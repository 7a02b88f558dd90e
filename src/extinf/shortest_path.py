"""Single-source shortest paths with a pluggable infinity representation.

One search implementation serves both weight domains.  A domain contributes
exactly one thing to the loop, its infinity value; finite costs are plain
binary64 numbers either way, so the two domains are distinguishable only by
how "unreached" is spelled, never by the distances they produce.

Node selection is a linear scan over the unvisited set (no priority queue),
the variant the benchmark harness measures.  bellman_ford is an independently
coded reference used to cross-check results.
"""

import math
from collections import namedtuple

from .graphs import InvalidGraphError, validate
from .weights import INFINITY, canonical_number, from_binary64, parse_weight

__all__ = [
    "DOMAINS",
    "IEEE_BASELINE",
    "SENTINEL",
    "UnknownNodeError",
    "WeightDomain",
    "bellman_ford",
    "dijkstra",
    "distances_from_jsonable",
    "distances_to_jsonable",
    "get_domain",
    "linear_scan_distances",
]


class UnknownNodeError(LookupError):
    """A node id that does not exist in the graph."""


class WeightDomain(namedtuple("WeightDomain", "name infinity")):
    """An infinity representation, named for reports.

    The two domains differ only in this value.  Comparison and addition are
    the host operators in both: IEEE infinity through ordinary float
    arithmetic, the sentinel through its own operator overloads, which agree
    with IEEE arithmetic on binary64 images.
    """

    __slots__ = ()


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


def linear_scan_distances(graph: dict, source: str, infinity) -> dict:
    """Raw search kernel: no validation, distances as in-domain values.

    This is the exact loop the benchmark harness times.  Ties in the minimum
    scan go to the lexicographically smallest unvisited node id.
    """
    unvisited = sorted(graph)
    distances = {node: infinity for node in graph}
    distances[source] = 0.0
    while unvisited:
        current = min(unvisited, key=distances.__getitem__)
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
    """
    domain = get_domain(domain)
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    if source not in graph:
        raise UnknownNodeError(f"unknown source node: {source!r}")
    raw = linear_scan_distances(graph, source, domain.infinity)
    return {node: v if v is INFINITY else from_binary64(v) for node, v in raw.items()}


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
