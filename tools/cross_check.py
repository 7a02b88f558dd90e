"""The stdlib-only gate for what must hold on any CPython >= 3.10.

It runs on interpreters that have no pytest::

    python3 tools/cross_check.py

It puts this checkout's ``src/`` on the import path and checks:

1. Every bundled fixture from every source, and ``GRAPHS_PER_KIND`` seeded
   graphs of each generator kind from their first node: ``dijkstra`` returns
   the same map under both domains, equal to ``bellman_ford``, with every
   unreached node mapped to ``INFINITY`` itself and every reached one to a
   plain ``ExtendedWeight``.
2. ``finite`` rejects each out-of-domain value with its exact message.
3. ``WeightDomain`` accepts the infinities whose binary64 image is +inf,
   one whose ``==`` answers only floats among them, and rejects the others.
4. ``golden_digest`` and ``benchmark_sized_digest``, the sha256 of the
   generated graphs as ``emit_graph`` writes them, and ``order_digest``,
   the sha256 of the same graphs' ``repr``, which has every adjacency in
   insertion order, equal their pins.
5. All six comparisons of ``INFINITY`` with each number of ``OPERANDS``,
   in both orders, equal the IEEE comparison of the binary64 images; a
   non-number makes ``<``, ``<=``, ``>`` and ``>=`` raise ``TypeError`` and
   ``==`` answer False; and ``hash(INFINITY) == hash(math.inf)``.  Run on whichever comparisons the
   import loaded, C or Python, which the summary names, with the reason the
   C ones did not load, if they did not.
6. For each graph of ``PLAIN_GRAPHS``, the C check of plain graphs says True
   exactly when every type in the graph is exact and ``validate``'s Python
   loop finds nothing, and the C check of weight types exactly when the
   graph, its adjacencies and its weights are of exact types.  ``validate``,
   ``emit_graph`` and, where ``json.dumps`` takes the graph, ``parse_graph``
   of its text give the same answer (a graph with its key order, types and
   target identity), or exception and message, and the same warnings as
   under ``python_rules``, which puts the Python rules of ``_native``'s table
   in place: the loops alone.  For each text of ``PLAIN_TEXTS``, the C
   decoder of plain documents decodes exactly the texts the table marks,
   each to a graph the C check of plain graphs passes, and ``parse_graph``
   gives the same outcome and warnings as under ``python_rules``.  The
   summary reports each check's answer per graph and whether the decoder
   took each text, null where the extension did not load.
7. ``compare`` and ``add`` over every pair of the weights in ``OPERANDS``
   give the IEEE order and sum of their binary64 images, a sum of +inf
   being ``INFINITY`` itself.
8. For each value of ``FROM_SEARCH``, last in a distance map of each
   domain, the search's conversion on the path ``dijkstra`` takes (the C
   call, then the Python loop if it says "look closer") gives the same
   weights, types and ``INFINITY`` identity as the Python loop alone, which
   is that path under ``python_rules``, or the same exception and message.
   The C call converts exactly where the table says it does, and leaves the
   map untouched where it does not.  The summary reports its answer per
   domain and value, null where the extension did not load.
9. For each state of ``SPLITMIX_BLOCKS``, the mixer that ``generate``
   calls returns the same bytes as under ``python_rules``, where it is the
   rule: SplitMix64 one output at a time, stored as native-order words with
   the last output first.  With the extension loaded, each value of
   ``SPLITMIX_REFUSED`` makes the C mixer raise its exception.  The summary
   reports, per state, the block's first output in hex, and per refused
   value the exception raised; null where the extension did not load.

``MESSAGES`` and the three digest pins live here only; ``tests/`` reads them
from this module and checks the same things under pytest.  Each failed check
prints one line, and the last line of output is a JSON summary; the exit
status is 0 only when every check passed.
"""

import enum
import hashlib
import itertools
import json
import math
import operator
import platform
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from extinf.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from extinf.generators import KINDS, GeneratorSpec, generate  # noqa: E402
from extinf import _native, generators, graphs, shortest_path, weights  # noqa: E402
from extinf.graphs import emit_graph, parse_graph, validate  # noqa: E402
from extinf.shortest_path import DOMAINS, WeightDomain, bellman_ford, dijkstra  # noqa: E402
from extinf.weights import (  # noqa: E402
    INFINITY,
    NATIVE_FAILURE,
    SENTINEL_COMPARISONS,
    ExtendedWeight,
    Ordering,
    add,
    compare,
    finite,
    to_binary64,
)

GRAPHS_PER_KIND = 20
NATIVE = SENTINEL_COMPARISONS == "c"

# (label, value, the message of finite(value)'s ValueError)
MESSAGES = (
    ("-1", -1, "weight cannot be negative: -1.0"),
    ("-0.5", -0.5, "weight cannot be negative: -0.5"),
    ("nan", math.nan, "weight cannot be NaN"),
    ("inf", math.inf, "use INFINITY for an infinite weight"),
    ("-inf", -math.inf, "weight cannot be negative: -inf"),
    ("10**400", 10**400, "use INFINITY for an infinite weight"),
    ("-10**400", -(10**400), "weight cannot be negative: -inf"),
)

_MAX = sys.float_info.max
_ROUNDS_TO_INF = 2**1024 - 2**970  # the smallest int whose binary64 image is +inf

# (label, operand) for INFINITY's comparisons: edge values of every kind of
# number they take, then non-numbers.
OPERANDS = (
    ("nan", math.nan),
    ("0.0", 0.0),
    ("-0.0", -0.0),
    ("inf", math.inf),
    ("-inf", -math.inf),
    ("5e-324", 5e-324),
    ("max float", _MAX),
    ("0", 0),
    ("1", 1),
    ("-1", -1),
    ("2**53+1", 2**53 + 1),
    ("10**300", 10**300),
    ("2**1024-2**970-1", _ROUNDS_TO_INF - 1),
    ("2**1024-2**970", _ROUNDS_TO_INF),
    ("2**1024", 2**1024),
    ("10**400", 10**400),
    ("-10**400", -(10**400)),
    ("INFINITY", INFINITY),
    ("finite(0)", finite(0)),
    ("finite(1.0)", finite(1.0)),
    ("finite(max float)", finite(_MAX)),
    ("Fraction(1, 3)", Fraction(1, 3)),
    ("Decimal('0.5')", Decimal("0.5")),
    ("'3'", "3"),
    ("None", None),
    ("(1.0,)", (1.0,)),
)
COMPARISONS = (
    ("<", operator.lt),
    ("<=", operator.le),
    ("==", operator.eq),
    ("!=", operator.ne),
    (">", operator.gt),
    (">=", operator.ge),
)


class _Level(enum.IntEnum):
    ONE = 1


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


def _edge(weight, node="A", target="B", adjacency=dict):
    """node with one edge of weight to target, and "B" as a node."""
    return {node: adjacency({target: weight}), "B": {}}


# (label, graph, whether every type in it is exact, whether the graph and its
# adjacencies are exact dicts and its weights exact ints and floats) for the C
# checks of plain graphs and of weight types: the weights on either side of
# each bound, then every way a graph can leave the exact types or the rules.
PLAIN_GRAPHS = (
    ("2**1024-2**970-1", _edge(_ROUNDS_TO_INF - 1), True, True),
    ("2**1024-2**970", _edge(_ROUNDS_TO_INF), True, True),
    ("10**400", _edge(10**400), True, True),
    ("-10**400", _edge(-(10**400)), True, True),
    ("0", _edge(0), True, True),
    ("-1", _edge(-1), True, True),
    ("0.0", _edge(0.0), True, True),
    ("-0.0", _edge(-0.0), True, True),
    ("5e-324", _edge(5e-324), True, True),
    ("max float", _edge(_MAX), True, True),
    ("nan", _edge(math.nan), True, True),
    ("inf", _edge(math.inf), True, True),
    ("-inf", _edge(-math.inf), True, True),
    ("INFINITY", _edge(INFINITY), False, False),
    ("True", _edge(True), False, False),
    ("IntEnum weight", _edge(_Level.ONE), False, False),
    ("float subclass weight", _edge(_Float(2.0)), False, False),
    ("Fraction weight", _edge(Fraction(2)), False, False),
    ("str subclass id", _edge(1, node=_Str("A")), False, True),
    ("str subclass target", _edge(1, target=_Str("B")), False, True),
    ("dict subclass adjacency", _edge(1, adjacency=_Dict), False, False),
    ("non-dict adjacency", {"A": [("B", 1)], "B": {}}, False, False),
    ("non-str target", _edge(1, target=1), True, True),
    ("missing target", _edge(1, target="C"), True, True),
    ("non-dict graph", [("A", {})], False, False),
    ("empty graph", {}, True, True),
    ("no edges", {"A": {}}, True, True),
)

# (label, text, whether the C decoder of plain documents takes it): one
# text it decodes, then one per kind of text it leaves to json.loads, then
# the edges of its count of ids against nodes.
PLAIN_TEXTS = (
    ("plain", ' {"A":{"B":1,"\u00e9":2.5e0},\r\n\t"B":{"A":0}, "\u00e9":{"B":1E-400}}\n', True),
    ("backslash escape", '{"A": {"\\u0042": 1}, "B": {}}', False),
    ("control character", '{"A\x1f": {}}', False),
    ("minus sign", '{"A": {"B": -0}, "B": {}}', False),
    ("19-digit int", '{"A": {"B": 1000000000000000000}, "B": {}}', False),
    ("non-finite float", '{"A": {"B": 1e400}, "B": {}}', False),
    ("NaN", '{"A": {"B": NaN}, "B": {}}', False),
    ("Infinity", '{"A": {"B": Infinity}, "B": {}}', False),
    ("array document", "[]", False),
    ("number adjacency", '{"A": 1}', False),
    ("object weight", '{"A": {"B": {}}, "B": {}}', False),
    ("duplicate node", '{"A": {"B": 1}, "B": {}, "A": {}}', False),
    ("duplicate edge", '{"A": {"B": 1, "B": 2}, "B": {}}', False),
    ("trailing data", '{"A": {}} {}', False),
    ("bytes", b'{"A": {}}', False),
    ("str subclass", _Str('{"A": {}}'), False),
    ("2-byte kind", '{"\u0100": {}}', False),
    ("4-byte kind", '{"\U0001f600": {}}', False),
    ("missing target", '{"A": {"B": 1}}', False),
    ("empty document", "{}", True),
    ("self-loop only", '{"A": {"A": 0}}', True),
    ("two dangling targets", '{"A": {"B": 1, "C": 2}}', False),
)

_BOTH = frozenset(DOMAINS)
_ANOTHER_INF = float("inf")  # a +inf that is not the object math.inf

# (label, value, the domains under which the C conversion takes a map holding
# it) for the search's conversion: the edges of the range it converts, then
# every kind of value it must leave to the Python loop.
FROM_SEARCH = (
    ("-0.0", -0.0, _BOTH),
    ("5e-324", 5e-324, _BOTH),
    ("max float", _MAX, _BOTH),
    ("0", 0, _BOTH),
    ("2**53+1", 2**53 + 1, _BOTH),
    ("2**1024-2**970-1", _ROUNDS_TO_INF - 1, _BOTH),
    ("2**1024-2**970", _ROUNDS_TO_INF, ()),
    ("-1", -1, ()),
    ("True", True, ()),
    ("float subclass", _Float(2.0), ()),
    ("nan", math.nan, ()),
    ("-1.0", -1.0, ()),
    ("another inf", _ANOTHER_INF, ()),
    ("Fraction(1, 3)", Fraction(1, 3), ()),
    ("finite(1.0)", finite(1.0), ()),
    ("math.inf", math.inf, {"ieee_baseline"}),
    ("INFINITY", INFINITY, {"sentinel"}),
)

# (label, state) for the mixer of SplitMix64 blocks: both ends of the state's
# range, the step, and the state whose first output wraps it past 2**64 to 0.
SPLITMIX_BLOCKS = (
    ("0", 0),
    ("1", 1),
    ("gamma", generators._GAMMA),
    ("2**63", 2**63),
    ("2**64-1", 2**64 - 1),
    ("2**64-gamma", 2**64 - generators._GAMMA),
)
# (label, value, the exception the C mixer raises for it)
SPLITMIX_REFUSED = (
    ("-1", -1, OverflowError),
    ("2**64", 2**64, OverflowError),
    ("1.0", 1.0, TypeError),
)

# (kind, node count) of the benchmark's generated graphs, and the largest grid.
BENCHMARK_SIZES = (
    ("dense", 100),
    ("equal_weights", 200),
    ("grid", 400),
    ("sparse_tree", 400),
    ("real_world_like", 400),
    ("disconnected", 400),
    ("grid", 1600),
)

GOLDEN_DIGEST = "c3c7ff7f06d032bb4deba166cdb4cb3016bbecc89d149fdf6cbeff490db2d8f9"
BENCHMARK_SIZED_DIGEST = "9d717b1a8e408f0136c78495d85294da1903405d91394a087d08c565927bad12"
ORDER_DIGEST = "6ff21153680282ed2b363c78f89fdaa9c685ca4d9dac0976ae9e75dd1fff92fb"


def golden_specs():
    """Every kind at small sizes and 100 nodes, four seeds and two weight
    ranges each, then the explicit-weight kinds."""
    sizes = {"grid": (4, 9, 16, 25), "worst_case_tie": (4, 6, 9, 13)}
    for kind in KINDS:
        for node_count in sizes.get(kind, (4, 5, 8, 12)) + (100,):
            for seed in (0, 7, 2**63, 2**64 - 1):
                for weight_range in ((1, 10), (3, 1000)):
                    yield GeneratorSpec(kind, node_count, weight_range, seed)
    for kind, weights in (
        ("linear_chain", (0, 2.5, 7)),
        ("star", (1, 0.5, 2**53)),
        ("cycle", (3, 0, 1.25, 9)),
    ):
        yield GeneratorSpec(kind, len(weights) + (kind != "cycle"), weights=weights)


def benchmark_specs():
    """The benchmark's generated kinds and sizes, and the largest grid, at
    three seeds each."""
    for kind, node_count in BENCHMARK_SIZES:
        for seed in (0, 12345, 2**64 - 1):
            yield GeneratorSpec(kind, node_count, seed=seed)


def _sha256(texts):
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return digest.hexdigest()


def golden_digest():
    """sha256 of the golden specs' graphs as ``emit_graph`` writes them."""
    return _sha256(emit_graph(generate(spec)) for spec in golden_specs())


def benchmark_sized_digest():
    """sha256 of the benchmark-sized graphs as ``emit_graph`` writes them."""
    return _sha256(emit_graph(generate(spec)) for spec in benchmark_specs())


def order_digest():
    """sha256 of the ``repr`` of every golden and benchmark-sized graph.

    ``emit_graph`` sorts each adjacency's targets, so neither digest above
    sees a builder that inserts them in another order; a dict's ``repr``
    lists its keys in insertion order, which is the order the kernel relaxes
    a node's edges in."""
    specs = itertools.chain(golden_specs(), benchmark_specs())
    return _sha256(repr(generate(spec)) for spec in specs)


def search_problems(graph_id, graph, sources):
    problems = []
    for source in sources:
        oracle = bellman_ford(graph, source)
        for domain in DOMAINS.values():
            result = dijkstra(graph, source, domain)
            if result != oracle or any(
                w is not INFINITY and type(w) is not ExtendedWeight for w in result.values()
            ):
                problems.append(f"{graph_id} from {source!r} under {domain.name}")
    return problems


def message_problems():
    problems = []
    for label, value, expected in MESSAGES:
        try:
            finite(value)
        except ValueError as exc:
            if str(exc) != expected:
                problems.append(f"finite({label}) said {str(exc)!r}")
        else:
            problems.append(f"finite({label}) did not raise")
    return problems


class FloatOnlyInfinity:
    """+inf whose ``==`` answers only a float, as a C type's rich comparison
    may: ``== INFINITY`` is answered by neither side and falls back to identity."""

    def __eq__(self, other):
        return other == math.inf if type(other) is float else NotImplemented

    __hash__ = object.__hash__


def domain_problems():
    problems = []
    for infinity, accepted in (
        (math.inf, True),
        (float("inf"), True),
        (10**400, True),
        (INFINITY, True),
        (FloatOnlyInfinity(), True),
        (1e9, False),
        (-math.inf, False),
        (math.nan, False),
        ("inf", False),
    ):
        try:
            WeightDomain("x", infinity)
        except ValueError:
            if accepted:
                problems.append(f"WeightDomain refused {infinity!r}")
        else:
            if not accepted:
                problems.append(f"WeightDomain accepted {infinity!r}")
    return problems


def binary64_image(operand):
    """An operand's binary64 image, None for a non-number; an int past
    binary64 range rounds to +-inf."""
    if isinstance(operand, ExtendedWeight):
        return to_binary64(operand)
    if not isinstance(operand, (int, float, Fraction, Decimal)):
        return None
    try:
        return float(operand)
    except OverflowError:
        return math.inf if operand > 0 else -math.inf


def operator_problems():
    problems = []
    for label, operand in OPERANDS:
        image = binary64_image(operand)
        for symbol, op in COMPARISONS:
            for text, operands, images in (
                (f"INFINITY {symbol} {label}", (INFINITY, operand), (math.inf, image)),
                (f"{label} {symbol} INFINITY", (operand, INFINITY), (image, math.inf)),
            ):
                if image is not None:
                    expected = op(*images)
                elif op in (operator.eq, operator.ne):
                    expected = op is operator.ne  # identity decides
                else:
                    expected = TypeError
                try:
                    got = op(*operands)
                except Exception as exc:  # noqa: BLE001 - any exception is an answer
                    got = type(exc)
                if got is not expected:
                    problems.append(f"{text} gave {got!r}, expected {expected!r}")
    if hash(INFINITY) != hash(math.inf):
        problems.append(f"hash(INFINITY) is {hash(INFINITY)}, hash(math.inf) is {hash(math.inf)}")
    return problems


def weight_function_problems():
    """``compare`` and ``add`` over every pair of the weights in OPERANDS,
    against the IEEE order and sum of their binary64 images."""
    problems = []
    weights = [(label, w) for label, w in OPERANDS if isinstance(w, ExtendedWeight)]
    for (a_label, a), (b_label, b) in itertools.product(weights, repeat=2):
        x, y = to_binary64(a), to_binary64(b)
        order = compare(a, b)
        if order is not Ordering((x > y) - (x < y)):
            problems.append(f"compare({a_label}, {b_label}) gave {order}")
        total, image = add(a, b), x + y  # finite(max float) twice overflows to +inf
        if image == math.inf:
            good = total is INFINITY
        else:
            good = type(total) is ExtendedWeight and to_binary64(total) == image
        if not good:
            problems.append(f"add({a_label}, {b_label}) gave {total!r}")
    return problems


def _outcome(function, *args):
    """What function(*args) returned, or the type and message it raised."""
    try:
        return ("returned", function(*args))
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome
        return ("raised", type(exc), str(exc))


def graph_layout(graph):
    """graph's nodes, edges and weights in order, with their types, and
    whether each target is its node's key object."""
    keys = {node: node for node in graph}

    def edge(target, weight):
        return target, type(target), keys.get(target) is target, type(weight), repr(weight)

    return [(node, type(node), [edge(*e) for e in adj.items()]) for node, adj in graph.items()]


def text_outcome(text):
    """What parse_graph gave on text, a graph by its layout, with the
    warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _outcome(parse_graph, text)
    if outcome[0] == "returned":
        outcome = ("returned", graph_layout(outcome[1]))
    return outcome, [(w.category, str(w.message)) for w in caught]


def parse_outcome(graph):
    """text_outcome of graph's JSON text, or None where json.dumps refuses
    the graph."""
    try:
        text = json.dumps(graph)
    except (TypeError, ValueError):
        return None
    return text_outcome(text)


def plain_graph_problems():
    """The problems of the C check of plain graphs, and its answer per graph
    (None without the extension, whose rule says False to every graph)."""
    answers, problems = {}, []
    for label, graph, exact, _ in PLAIN_GRAPHS:
        with _native.python_rules():  # the Python loops alone
            loop, parsed = validate(graph), parse_outcome(graph)
        if validate(graph) != loop:
            problems.append(f"validate({label}) changed with the C check on")
        if parse_outcome(graph) != parsed:
            problems.append(f"parse_graph({label}) changed with the C check on")
        answer = graphs._plain_graph(graph)
        answers[label] = answer if NATIVE else None
        if answer is not (exact and not loop) and (NATIVE or answer is not False):
            problems.append(f"plain_graph({label}) said {answer!r}, the loop found {loop!r}")
    return problems, answers


def plain_weights_problems():
    """The problems of the C check of weight types, and its answer per graph
    (None without the extension, whose rule says False to every graph)."""
    answers, problems = {}, []
    for label, graph, _, exact_weights in PLAIN_GRAPHS:
        with _native.python_rules():  # emit_graph's Python loop alone
            loop = _outcome(emit_graph, graph)
        if _outcome(emit_graph, graph) != loop:
            problems.append(f"emit_graph({label}) changed with the C check on")
        answer = graphs._plain_weights(graph)
        answers[label] = answer if NATIVE else None
        if answer is not exact_weights and (NATIVE or answer is not False):
            problems.append(f"plain_weights({label}) said {answer!r}, emit_graph's loop {loop[0]}")
    return problems, answers


def plain_texts_problems():
    """The problems of the C decoder of plain documents, and whether it took
    each text (None without the extension, whose rule takes none)."""
    answers, problems = {}, []
    for label, text, decoded in PLAIN_TEXTS:
        with _native.python_rules():  # json.loads and the checks alone
            rule = text_outcome(text)
        if text_outcome(text) != rule:
            problems.append(f"parse_graph({label}) changed with the decoder on")
        graph = graphs._parse_plain(text)
        took = graph is not None
        answers[label] = took if NATIVE else None
        if took is not (decoded and NATIVE):
            problems.append(f"parse_plain_graph({label}) {'took' if took else 'refused'} the text")
        if took and graphs._plain_graph(graph) is not True:
            problems.append(f"parse_plain_graph({label}) gave a graph plain_graph refuses")
    return problems, answers


def conversion_outcome(convert, distances, infinity):
    """What convert(distances, infinity) gave: each weight as (node, type,
    is INFINITY, repr of its binary64 image), so -0.0 and +0.0 differ, or the
    type and message of what it raised."""
    outcome = _outcome(convert, distances, infinity)
    if outcome[0] != "returned":
        return outcome
    return [(node, type(w), w is INFINITY, repr(w._value)) for node, w in outcome[1].items()]


def converted(distances, infinity):
    """The search's conversion as ``dijkstra`` runs it."""
    if shortest_path._from_search_in_c(distances, infinity):
        return distances
    return weights._from_search(distances, infinity)


def from_search_problems():
    """The problems of the search's conversion in C, and its answer per
    domain and value (None without the extension)."""
    answers, problems = {name: {} for name in DOMAINS}, []
    for label, value, converted_in in FROM_SEARCH:
        for domain in DOMAINS.values():
            infinity = domain.infinity
            where = f"from_search({label}) under {domain.name}"
            # Last, so a conversion that gave up half-way would have changed the rest.
            row = {"A": 0.0, "B": 2, "C": infinity, "Z": value}
            distances = dict(row)
            answer = shortest_path._from_search_in_c(distances, infinity)
            answers[domain.name][label] = answer if NATIVE else None
            if answer is not (NATIVE and domain.name in converted_in):
                problems.append(f"{where}: the C call said {answer!r}")
            if not answer and any(a is not b for a, b in zip(row.values(), distances.values())):
                problems.append(f"{where}: the C call said look closer and changed the map")
            c_path = conversion_outcome(converted, dict(row), infinity)
            with _native.python_rules():
                python_loop = conversion_outcome(converted, dict(row), infinity)
            if c_path != python_loop:
                problems.append(
                    f"{where}: C path gave {c_path!r}, Python loop gave {python_loop!r}"
                )
    return problems, answers


def splitmix_problems():
    """The problems of the mixer ``generate`` calls against the rule, and
    its answers (None without the extension)."""
    answers, problems = {}, []
    for label, state in SPLITMIX_BLOCKS:
        with _native.python_rules():
            rule = _outcome(generators._splitmix_block, state)
        outcome, answers[label] = _outcome(generators._splitmix_block, state), None
        if outcome != rule:
            problems.append(f"splitmix_block({label}) differs from the rule")
        elif NATIVE:
            first = memoryview(outcome[1]).cast("Q")[-1]
            answers[label] = f"{first:#018x}"
    for label, value, expected in SPLITMIX_REFUSED if NATIVE else ():
        outcome = _outcome(generators._splitmix_block, value)
        raised = answers[label] = outcome[1].__name__ if outcome[0] == "raised" else None
        if raised != expected.__name__:
            problems.append(f"splitmix_block({label}) raised {raised}, not {expected.__name__}")
    return problems, answers


def digest_problems():
    problems = []
    for name, digest, pinned in (
        ("GOLDEN_DIGEST", golden_digest(), GOLDEN_DIGEST),
        ("BENCHMARK_SIZED_DIGEST", benchmark_sized_digest(), BENCHMARK_SIZED_DIGEST),
        ("ORDER_DIGEST", order_digest(), ORDER_DIGEST),
    ):
        if digest != pinned:
            problems.append(f"generated graphs hash to {digest}, {name} pins {pinned}")
    return problems


def main():
    problems = []
    checked = 0
    for name in FIXTURE_NAMES:
        graph = fixture(name)
        problems += search_problems(name, graph, sorted(graph))
        checked += 1
    for kind in KINDS:
        for seed in range(GRAPHS_PER_KIND):
            spec = GeneratorSpec(kind, (2 + seed % 4) ** 2, seed=seed)
            graph = generate(spec)
            problems += search_problems(f"{kind} seed {seed}", graph, [min(graph)])
            checked += 1
    problems += message_problems() + domain_problems() + digest_problems() + operator_problems()
    problems += weight_function_problems()
    plain_problems, plain_answers = plain_graph_problems()
    weights_problems, weights_answers = plain_weights_problems()
    texts_problems, texts_answers = plain_texts_problems()
    conversion_problems, conversion_answers = from_search_problems()
    splitmix_found, splitmix_answers = splitmix_problems()
    problems += plain_problems + weights_problems + texts_problems
    problems += conversion_problems + splitmix_found
    for problem in problems:
        print(problem)
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "graphs": checked,
                "problems": len(problems),
                "sentinel_comparisons": SENTINEL_COMPARISONS,
                "native_failure": NATIVE_FAILURE,
                "plain_graphs": plain_answers,
                "plain_weights": weights_answers,
                "plain_texts": texts_answers,
                "from_search": conversion_answers,
                "splitmix": splitmix_answers,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
