"""Single-source shortest paths with a pluggable infinity representation.

One search implementation serves both weight domains.  A domain contributes
exactly one thing to the loop, its infinity value; finite costs are plain
binary64 numbers either way, so the two domains are distinguishable only by
how "unreached" is spelled, never by the distances they produce.

Node selection is a linear scan over the unvisited set (no priority queue),
the variant the benchmark harness measures.  check_query is the one check of
a query's graph and source, for dijkstra and the benchmark harness alike.
bellman_ford is an independently coded reference used to cross-check
results.
"""

import math
from collections import namedtuple

from . import _native
from .graphs import InvalidGraphError, validate
from .weights import (
    INFINITY,
    ExtendedWeight,
    _from_search,
    canonical_number,
    from_binary64,
    parse_weight,
)

__all__ = [
    "DOMAINS",
    "IEEE_BASELINE",
    "SENTINEL",
    "UnknownNodeError",
    "WeightDomain",
    "bellman_ford",
    "check_query",
    "dijkstra",
    "distances_from_jsonable",
    "distances_to_jsonable",
    "get_domain",
    "linear_scan_distances",
]


_from_search_in_c = _native.bind(__name__, "_from_search_in_c", ExtendedWeight, INFINITY)


class UnknownNodeError(LookupError):
    """A node id that does not exist in the graph."""


class WeightDomain(namedtuple("WeightDomain", "name infinity")):
    """An infinity representation, named for reports.

    The two domains differ only in this value.  Comparison and addition are
    the host operators in both: IEEE infinity through ordinary float
    arithmetic, the sentinel through its own operator overloads, which agree
    with IEEE arithmetic on binary64 images.

    The infinity must have the binary64 image +inf, equal to ``INFINITY`` or
    to ``math.inf``, or the constructor raises ValueError naming the domain:
    a finite stand-in would be overtaken by real distances and read as a
    cost.  Both tests are needed, since ``10**400`` equals only ``INFINITY``
    and an object whose comparisons answer only floats, as a C type's may,
    equals only ``math.inf``.  With that image, every finite candidate beats
    it and no infinite one does, so a node the search never reaches still
    holds this very object when the search ends, which is how ``dijkstra``
    tells it apart.  _make (and _replace, which calls it) builds through the
    constructor, so neither skips the check.
    """

    __slots__ = ()

    def __new__(cls, name, infinity):
        if not (infinity == INFINITY or infinity == math.inf):
            raise ValueError(
                f"weight domain {name!r}: infinity must have the binary64 image +inf, "
                f"got {infinity!r}"
            )
        return super().__new__(cls, name, infinity)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


IEEE_BASELINE = WeightDomain("ieee_baseline", math.inf)
SENTINEL = WeightDomain("sentinel", INFINITY)

DOMAINS = {domain.name: domain for domain in (IEEE_BASELINE, SENTINEL)}


def get_domain(domain) -> WeightDomain:
    """Resolve a WeightDomain instance or one of the ids in DOMAINS."""
    if isinstance(domain, WeightDomain):
        return domain
    try:
        return DOMAINS[domain]
    except (KeyError, TypeError):
        raise ValueError(f"unknown weight domain: {domain!r}") from None


def check_query(graph: dict, source: str, graph_id=None) -> None:
    """Raise InvalidGraphError unless graph is valid, then UnknownNodeError
    unless it holds source; with a graph_id, each message names the graph."""
    violations = validate(graph)
    if violations:
        if graph_id is not None:
            violations = [f"graph {graph_id!r}: {v}" for v in violations]
        raise InvalidGraphError(violations)
    if source not in graph:
        if graph_id is None:
            raise UnknownNodeError(f"unknown source node: {source!r}")
        raise UnknownNodeError(f"unknown source node {source!r} in graph {graph_id!r}")


def linear_scan_distances(graph: dict, source: str, infinity) -> dict:
    """Raw search kernel: no validation, distances as in-domain values.

    This is the exact loop the benchmark harness times.  Ties in the minimum
    scan go to the lexicographically smallest unvisited node id.  The table
    comes from ``dict.fromkeys``, which runs no Python frame, and the scan
    key is bound once, before the loop.  Which comparisons and additions
    ``infinity`` sees, and in what order, the tests pin by count.
    """
    unvisited = sorted(graph)
    distances = dict.fromkeys(graph, infinity)
    distances[source] = 0.0
    key = distances.__getitem__
    while unvisited:
        current = min(unvisited, key=key)
        base = distances[current]
        for neighbor, weight in graph[current].items():
            candidate = base + weight
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
        unvisited.remove(current)
    return distances


def dijkstra(graph: dict, source: str, domain=SENTINEL) -> dict:
    """Shortest-path costs from source for every node, as ExtendedWeight.

    Unreachable nodes map to INFINITY.  domain picks the internal infinity
    representation and nothing else; both domains return equal results.
    The kernel stores only a finite candidate that beats a node's value, and
    a domain's infinity has the image +inf, so a node is unreached exactly
    when it still holds the domain's own infinity object.  The conversion
    tests that identity under either domain; every other value is a finite
    binary64 cost.  One C call converts the whole map when every value is
    the infinity or an exact int or float in range; otherwise it leaves the
    map as it was and ``_from_search``'s Python loop converts it.  A value
    outside the domain, which only an operand with its own ``+`` can put
    there, goes through ExtendedWeight in that loop and raises as it would.
    """
    domain = get_domain(domain)
    check_query(graph, source)
    infinity = domain.infinity
    distances = linear_scan_distances(graph, source, infinity)
    if _from_search_in_c(distances, infinity):
        return distances
    return _from_search(distances, infinity)


def bellman_ford(graph: dict, source: str) -> dict:
    """Reference oracle: len(graph)-1 rounds of relaxation over every edge."""
    if source not in graph:
        raise UnknownNodeError(f"unknown source node: {source!r}")
    distances = {node: math.inf for node in graph}
    distances[source] = 0.0
    for _ in range(len(graph) - 1):
        for node, neighbors in graph.items():
            base = distances[node]
            for neighbor, weight in neighbors.items():
                if base + weight < distances[neighbor]:
                    distances[neighbor] = base + weight
    return {node: from_binary64(value) for node, value in distances.items()}


def distances_to_jsonable(distances: dict) -> dict:
    """JSON form of a distance map: node id -> number, or "inf" if unreachable."""
    return {
        node: "inf" if w.is_infinite else canonical_number(w.value)
        for node, w in distances.items()
    }


def distances_from_jsonable(doc: dict) -> dict:
    """Inverse of distances_to_jsonable."""
    out = {}
    for node, value in doc.items():
        if isinstance(value, str):
            out[node] = parse_weight(value)
        else:
            out[node] = from_binary64(value)
    return out
