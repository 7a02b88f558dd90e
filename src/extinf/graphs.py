"""Directed graph model and its JSON file format.

A graph is a plain adjacency map: node id (string) -> {neighbor id -> weight}.
Weights are non-negative finite numbers.  Every edge target must itself be a
key of the map; nodes without outgoing edges map to an empty object.

The on-disk format is the JSON transliteration of that structure.  Emission is
canonical (keys sorted, integral weights written as integers) so equal graphs
always serialize to identical bytes.

``parse_graph`` and ``validate`` check every edge weight, so both loops first
try one inline test that accepts a plain ``float`` or ``int`` in range without
a function call; it accepts only weights that ``_check_weight`` accepts, and
every other weight goes to ``_check_weight``, which words the error.  The rule
itself is ``_weight_problem``, which ``generators`` shares for explicit weights.
"""

import itertools
import json
import math
import sys
import warnings

from .weights import canonical_number

__all__ = [
    "DanglingTargetWarning",
    "GraphParseError",
    "InvalidGraphError",
    "count_edges",
    "emit_graph",
    "parse_graph",
    "validate",
]


class GraphParseError(ValueError):
    """A graph document that cannot be turned into a valid graph."""


class InvalidGraphError(ValueError):
    """An in-memory graph violating the adjacency-map invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DanglingTargetWarning(UserWarning):
    """An edge target that was missing from the key set and got auto-added."""


# Largest int whose conversion to binary64 is exact and finite; larger ints,
# even the few that still round to a finite float, go to _check_weight.
_MAX_INT = int(sys.float_info.max)


def _weight_problem(weight):
    """Why weight is not a non-negative finite number, or None if it is one."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        return f"weight must be a number, got {weight!r}"
    try:
        if not math.isfinite(weight):
            return f"weight must be finite, got {weight!r}"
    except OverflowError:  # an int past binary64 range; too long to quote
        return f"weight must be finite, got a {weight.bit_length()}-bit integer"
    if weight < 0:
        return f"negative weight {weight!r}"
    return None


def _check_weight(node, neighbor, weight):
    problem = _weight_problem(weight)
    if problem is None:
        return None
    return f"edge {node!r} -> {neighbor!r}: {problem}"


def parse_graph(text: str) -> dict:
    """Parse a JSON graph document.

    Edge targets missing from the key set are auto-added with empty adjacency
    and reported via DanglingTargetWarning.  Malformed documents raise
    GraphParseError naming the offending node or edge.
    """
    try:
        doc = json.loads(text)
    # JSONDecodeError, an int literal past int_max_str_digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise GraphParseError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphParseError(
            f"graph document must be a JSON object, got {type(doc).__name__}"
        )
    for node, neighbors in doc.items():
        if not isinstance(neighbors, dict):
            raise GraphParseError(
                f"adjacency of node {node!r} must be an object, got {type(neighbors).__name__}"
            )
        for neighbor, w in neighbors.items():
            if not (
                (type(w) is float and 0.0 <= w < math.inf)
                or (type(w) is int and 0 <= w <= _MAX_INT)
            ):
                problem = _check_weight(node, neighbor, w)
                if problem is not None:
                    raise GraphParseError(problem)
    graph = doc  # json.loads built every dict afresh, so the graph owns them
    dangling = sorted(set(itertools.chain.from_iterable(graph.values())) - graph.keys())
    if dangling:
        for target in dangling:
            graph[target] = {}
        warnings.warn(
            f"auto-added {len(dangling)} node(s) that only appeared as edge targets: "
            + ", ".join(repr(t) for t in dangling),
            DanglingTargetWarning,
            stacklevel=2,
        )
    return graph


def emit_graph(graph: dict) -> str:
    """Canonical JSON for a graph; parse_graph(emit_graph(g)) == g."""
    doc = {
        node: {neighbor: canonical_number(w) for neighbor, w in neighbors.items()}
        for node, neighbors in graph.items()
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def validate(graph: dict) -> list:
    """All invariant violations, one entry per problem; empty means valid."""
    violations = []
    if not isinstance(graph, dict):
        return [f"graph must be a dict, got {type(graph).__name__}"]
    for node, neighbors in graph.items():
        if not isinstance(node, str):
            violations.append(f"node id must be a string, got {node!r}")
        if not isinstance(neighbors, dict):
            violations.append(
                f"adjacency of node {node!r} must be a dict, got {type(neighbors).__name__}"
            )
            continue
        for neighbor, w in neighbors.items():
            if not isinstance(neighbor, str):
                violations.append(
                    f"edge target of node {node!r} must be a string, got {neighbor!r}"
                )
            elif neighbor not in graph:
                violations.append(
                    f"edge {node!r} -> {neighbor!r}: target is not a node of the graph"
                )
            if not (
                (type(w) is float and 0.0 <= w < math.inf)
                or (type(w) is int and 0 <= w <= _MAX_INT)
            ):
                problem = _check_weight(node, neighbor, w)
                if problem is not None:
                    violations.append(problem)
    return violations


def count_edges(graph: dict) -> int:
    return sum(len(neighbors) for neighbors in graph.values())
