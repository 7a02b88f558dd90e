"""Directed graph model and its JSON file format.

A graph is a plain adjacency map: node id (string) -> {neighbor id -> weight}.
Weights are non-negative finite numbers.  Every edge target must itself be a
key of the map; nodes without outgoing edges map to an empty object.

The on-disk format is the JSON transliteration of that structure.  Emission is
canonical (keys sorted, integral weights written as integers) so equal graphs
always serialize to identical bytes: ``emit_graph`` writes the bytes of
``json.dumps(doc, sort_keys=True, indent=2)``, but through ``json``'s C
encoder rather than its pure-Python indent encoder, encoding each distinct
key and weight once.

``_weight_problem`` is the one weight rule.  ``validate`` accepts a plain
``int`` or ``float`` in range inline, without a call (``int`` first, since
bundled and generated graphs hold int weights), and sends every other weight
to it; ``generators`` uses it for explicit weights.  ``parse_graph`` raises
on malformed JSON, a non-object document or adjacency, a duplicate key, then
``validate``'s first violation, in that order; only ``validate`` and
``emit_graph`` walk a graph's edges in Python.  A search never reads or
writes JSON, so ``json`` loads on first use: the first ``emit_graph``, or
the first ``parse_graph`` of a text that the C decoder below refuses.

Before those loops run, the C extension (``_absinf.c``) checks a plain graph
in one pass: ``_plain_graph(graph)`` is True only when ``validate(graph)``
would find nothing, and then ``validate`` and ``emit_graph`` skip their
loops.  False means "look closer": the loops run and word every problem.

``parse_graph`` first hands its text to ``_parse_plain(text)``, which
decodes a plain document in one C pass: an exact ``str`` of latin-1
characters holding an object of objects of unsigned numbers, with no
escape, duplicate key, trailing data or target that is not a node.  It
returns the dict that ``json.loads`` would build, each distinct node id one
``str`` object as with ``json``'s key memo, or None to look closer; then
``json.loads`` and the checks of ``parse_graph`` run, the rule and the only
place its errors are worded.  The decoder proves its own graph plain, with no
``_plain_graph`` pass: its grammar makes only exact types and unsigned finite
numbers, and its table of ids tells whether every target is a node, so
``validate`` is the one check of a parsed graph.
"""

import itertools
import math
import warnings
from operator import concat

from . import _native
from .weights import _ROUNDS_TO_INF, canonical_number

__all__ = [
    "DanglingTargetWarning",
    "GraphParseError",
    "InvalidGraphError",
    "count_edges",
    "emit_graph",
    "parse_graph",
    "validate",
]


_plain_graph = _native.bind(__name__, "_plain_graph")
_parse_plain = _native.bind(__name__, "_parse_plain")


class GraphParseError(ValueError):
    """A graph document that cannot be turned into a valid graph."""


class InvalidGraphError(ValueError):
    """An in-memory graph violating the adjacency-map invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DanglingTargetWarning(UserWarning):
    """An edge target that was missing from the key set and got auto-added."""


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

    Raises GraphParseError on the first of: malformed JSON, a non-object
    document or adjacency, a duplicate key, ``validate``'s first violation.
    Edge targets missing from the key set are auto-added with empty adjacency
    and, if the graph is then valid, reported via DanglingTargetWarning.

    A plain document is decoded in one C pass (see the module docstring);
    every other text goes through ``json.loads`` and the checks below, which
    are the rule and word every error.
    """
    graph = _parse_plain(text)
    if graph is not None:
        return graph
    import json

    try:
        doc = json.loads(text)
    # JSONDecodeError, an int literal past int_max_str_digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise GraphParseError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphParseError(f"graph document must be a JSON object, got {type(doc).__name__}")
    for node, neighbors in doc.items():
        if not isinstance(neighbors, dict):
            raise GraphParseError(
                f"adjacency of node {node!r} must be an object, got {type(neighbors).__name__}"
            )
    # json.loads keeps the last of duplicate keys.  Each member of the document
    # and of an adjacency has its own ":", and any other ":" (in a string, in a
    # non-number weight, or a 0x3A byte of encoded text) only adds to the count,
    # so equal counts prove that no key was dropped before any weight is checked.
    colon = b":" if isinstance(text, (bytes, bytearray)) else ":"
    if text.count(colon) != len(doc) + count_edges(doc):
        members = json.loads(text, object_pairs_hook=list)
        # Node ids first: once they are distinct, each adjacency is one checked above.
        for node, pairs in [(None, members)] + members:
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    where = f"node {key!r}" if node is None else f"edge {node!r} -> {key!r}"
                    raise GraphParseError(f"{where} appears more than once")
                seen.add(key)
    graph = doc  # json.loads built every dict afresh, so the graph owns them
    dangling = sorted(set(itertools.chain.from_iterable(graph.values())) - graph.keys())
    for target in dangling:
        graph[target] = {}
    problems = validate(graph)
    if problems:
        raise GraphParseError(problems[0])
    if dangling:
        warnings.warn(
            f"auto-added {len(dangling)} node(s) that only appeared as edge targets: "
            + ", ".join(repr(t) for t in dangling),
            DanglingTargetWarning,
            stacklevel=2,
        )
    return graph


class _KeyTexts(dict):
    """Node id -> its encoded text and ": "; any other key is encoded anew.

    Only ``str`` ids are stored, since ``1``, ``1.0`` and ``True`` are one
    dict key but three JSON keys; in a valid graph every target is one.
    """

    def __init__(self, encode, texts):
        super().__init__(texts)
        self.encode = encode

    def __missing__(self, key):
        return self.encode({key: 0})[1:-2]


class _NumberTexts(dict):
    """Weight -> JSON text of its canonical number, shared by equal weights.

    Every weight is an int or a float (``emit_graph`` checks that first), and
    equal numbers have the same binary64 image, so one entry serves them all
    (``0``, ``0.0``, ``-0.0`` and ``False`` write ``0``); a NaN equals no
    other weight and gets an entry of its own.
    """

    def __init__(self, encode):
        self.encode = encode

    def __missing__(self, weight):
        text = self[weight] = self.encode(canonical_number(weight))
        return text


def emit_graph(graph: dict) -> str:
    """Canonical JSON for a graph; parse_graph(emit_graph(g)) == g."""
    nodes = sorted(graph)
    if not nodes:
        return "{}\n"
    import json

    # Every value this encodes is a number, so there is no nesting to check.
    encode = json.JSONEncoder(separators=(",\n  ", ": "), check_circular=False).encode
    # An encoded key holds no raw newline, so the split finds each key's end.
    keys = encode(dict.fromkeys(nodes, 0))[1:-2].split("0,\n  ")
    key = _KeyTexts(encode, ((n, k) for n, k in zip(nodes, keys) if type(n) is str)).__getitem__
    number = _NumberTexts(encode).__getitem__
    if not _plain_graph(graph):
        # Before any lookup, or an equal weight already in the number table
        # would stand in for a Fraction or a Decimal.
        for neighbors in graph.values():
            for weight in neighbors.values():
                if not isinstance(weight, (int, float)):
                    raise TypeError(f"weight must be a number, got {weight!r}")
    lines = []
    for text, node in zip(keys, nodes):
        neighbors = graph[node]
        targets = sorted(neighbors.keys())
        if targets:
            weights = map(number, map(neighbors.__getitem__, targets))
            text += "{\n    " + ",\n    ".join(map(concat, map(key, targets), weights)) + "\n  }"
        else:
            text += "{}"
        lines.append(text)
    return "{\n  " + ",\n  ".join(lines) + "\n}\n"


def validate(graph: dict) -> list:
    """All invariant violations, one entry per problem; empty means valid."""
    if _plain_graph(graph):
        return []
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
                (type(w) is int and 0 <= w < _ROUNDS_TO_INF)
                or (type(w) is float and 0.0 <= w < math.inf)
            ):
                problem = _check_weight(node, neighbor, w)
                if problem is not None:
                    violations.append(problem)
    return violations


def count_edges(graph: dict) -> int:
    return sum(map(len, graph.values()))
