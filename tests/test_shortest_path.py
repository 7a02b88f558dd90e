"""Search correctness: fixtures, oracle equivalence, domain interchangeability."""

import collections
import copy
import math
import operator
import pickle

import pytest
from hypothesis import given, settings

from conftest import also_on_python_rules, graphs_with_source
from extinf.fixtures import FIXTURE_NAMES, fixture, primary_fixture_names
from extinf.generators import GeneratorSpec, generate
from extinf.graphs import InvalidGraphError, validate
from extinf.shortest_path import (
    DOMAINS,
    IEEE_BASELINE,
    SENTINEL,
    UnknownNodeError,
    WeightDomain,
    bellman_ford,
    check_query,
    dijkstra,
    distances_from_jsonable,
    distances_to_jsonable,
    get_domain,
    linear_scan_distances,
)
from extinf.weights import INFINITY, ExtendedWeight, finite, from_binary64, parse_weight
from helpers import enumerate_shortest, reachable


def as_floats(distances):
    return {node: math.inf if w.is_infinite else w.value for node, w in distances.items()}


class TestKnownResults:
    def test_linear_chain_from_a(self):
        expected = {"A": finite(0), "B": finite(2), "C": finite(5), "D": finite(6)}
        graph = fixture("Linear_Chain_1")
        assert dijkstra(graph, "A", IEEE_BASELINE) == expected
        assert dijkstra(graph, "A", SENTINEL) == expected
        assert enumerate_shortest(graph, "A") == as_floats(expected)

    def test_disconnected_marks_unreachable(self):
        expected = {
            "A": finite(0),
            "B": finite(3),
            "C": finite(7),
            "X": INFINITY,
            "Y": INFINITY,
        }
        graph = fixture("Disconnected_Graph_1")
        assert dijkstra(graph, "A", IEEE_BASELINE) == expected
        assert dijkstra(graph, "A", SENTINEL) == expected
        assert enumerate_shortest(graph, "A") == as_floats(expected)

    def test_bellman_ford_equal_weights(self):
        expected = {"1": finite(0), "2": finite(1), "3": finite(1), "4": finite(2)}
        graph = fixture("Equal_Weights_2")
        assert bellman_ford(graph, "1") == expected
        assert enumerate_shortest(graph, "1") == as_floats(expected)

    def test_bellman_ford_worst_case_tie(self):
        expected = {"A": finite(0), "B": finite(1), "C": finite(1), "D": finite(2)}
        graph = fixture("Worst_Case_Tie_1")
        assert bellman_ford(graph, "A") == expected
        assert enumerate_shortest(graph, "A") == as_floats(expected)

    def test_single_node_graph(self):
        assert bellman_ford({"Z": {}}, "Z") == {"Z": finite(0)}
        assert dijkstra({"Z": {}}, "Z") == {"Z": finite(0)}


@also_on_python_rules
class TestOracleEquivalence:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_every_source(self, name):
        graph = fixture(name)
        for source in graph:
            oracle = bellman_ford(graph, source)
            assert dijkstra(graph, source, IEEE_BASELINE) == oracle
            assert dijkstra(graph, source, SENTINEL) == oracle
            assert enumerate_shortest(graph, source) == as_floats(oracle)

    @given(graphs_with_source())
    @settings(max_examples=200, deadline=None)
    def test_generated_graphs(self, case):
        graph, source = case
        oracle = bellman_ford(graph, source)
        assert dijkstra(graph, source, IEEE_BASELINE) == oracle
        assert dijkstra(graph, source, SENTINEL) == oracle

    @given(graphs_with_source())
    @settings(max_examples=200, deadline=None)
    def test_unreachable_iff_no_path(self, case):
        graph, source = case
        distances = dijkstra(graph, source)
        can_reach = reachable(graph, source)
        for node, weight in distances.items():
            assert weight.is_infinite == (node not in can_reach)

    @given(graphs_with_source())
    @settings(max_examples=150, deadline=None)
    def test_shortest_path_tree_property(self, case):
        """Every reached node is entered by an edge that closes its distance,
        from a node no farther away; distances along paths are non-decreasing."""
        graph, source = case
        distances = as_floats(dijkstra(graph, source))
        for node, d in distances.items():
            if node == source or math.isinf(d):
                continue
            closers = [
                u
                for u, out in graph.items()
                if node in out and distances[u] + out[node] == d
            ]
            assert closers, f"no edge closes {node}"
            assert all(distances[u] <= d for u in closers)

    @given(graphs_with_source())
    @settings(max_examples=100, deadline=None)
    def test_distance_map_shape(self, case):
        graph, source = case
        distances = dijkstra(graph, source)
        assert distances.keys() == graph.keys()
        assert distances[source] == finite(0)


class _FloatOnlyInfinity:
    """+inf shaped like a C type's rich comparison: it answers a float or
    itself and returns NotImplemented for anything else, INFINITY included,
    so ``== INFINITY`` falls back to identity.  ``+`` absorbs any number."""

    __slots__ = ()

    def _compare(op):
        def method(self, other):
            if other is self:
                return op(math.inf, math.inf)
            if type(other) is float:
                return op(math.inf, other)
            return NotImplemented

        return method

    __eq__, __ne__ = _compare(operator.eq), _compare(operator.ne)
    __lt__, __le__ = _compare(operator.lt), _compare(operator.le)
    __gt__, __ge__ = _compare(operator.gt), _compare(operator.ge)
    del _compare

    def __hash__(self):
        return hash(math.inf)

    def __add__(self, other):
        return self if type(other) in (int, float) else NotImplemented

    __radd__ = __add__


class TestDomains:
    def test_registry(self):
        assert set(DOMAINS) == {"ieee_baseline", "sentinel"}
        assert get_domain("sentinel") is SENTINEL
        assert get_domain(IEEE_BASELINE) is IEEE_BASELINE

    def test_unknown_domain(self):
        with pytest.raises(ValueError, match="unknown weight domain"):
            get_domain("decimal")

    def test_infinity_representations_differ_only_in_type(self):
        assert IEEE_BASELINE.infinity == math.inf
        assert SENTINEL.infinity is INFINITY

    def test_raw_kernel_returns_domain_values(self):
        graph = fixture("Disconnected_Graph_1")
        raw = linear_scan_distances(graph, "A", SENTINEL.infinity)
        assert raw["X"] is INFINITY and raw["B"] == 3.0
        raw = linear_scan_distances(graph, "A", IEEE_BASELINE.infinity)
        assert raw["X"] == math.inf

    @pytest.mark.parametrize(
        "copier",
        [
            copy.copy,
            copy.deepcopy,
            lambda w: pickle.loads(pickle.dumps(w)),
            lambda w: from_binary64(math.inf),
            lambda w: parse_weight("inf"),
            lambda w: float("inf"),
            lambda w: 10**400,
        ],
        ids=[
            "copy", "deepcopy", "pickle", "from_binary64", "parse_weight",
            "float_inf", "10**400",
        ],
    )
    def test_copied_sentinel_marks_unreachable(self, copier):
        # The last two are not INFINITY, and float("inf") is not math.inf:
        # each unreached node must still come back as INFINITY itself.
        for graph, unreached in (
            (fixture("Disconnected_Graph_1"), ("X", "Y")),
            ({"A": {"B": 1e308}, "B": {"C": 1e308}, "C": {}, "D": {}}, ("C", "D")),
        ):
            stand_in = WeightDomain("stand-in", copier(INFINITY))
            for domain in (stand_in, IEEE_BASELINE, SENTINEL):
                result = dijkstra(graph, "A", domain)
                assert result == bellman_ford(graph, "A")
                assert all(result[node] is INFINITY for node in unreached)

    def test_infinity_that_answers_only_floats_registers(self):
        # Neither side of == INFINITY answers the other, so the guard also
        # asks == math.inf; the search then runs with this infinity as with
        # any other.
        infinity = _FloatOnlyInfinity()
        assert not infinity == INFINITY and infinity == math.inf
        domain = WeightDomain("float_only", infinity)
        assert domain.infinity is infinity
        graph = fixture("Disconnected_Graph_1")
        result = dijkstra(graph, "A", domain)
        assert result == bellman_ford(graph, "A")
        assert result["X"] is INFINITY and result["Y"] is INFINITY

    @pytest.mark.parametrize(
        "infinity",
        [1e9, -math.inf, math.nan, "inf", finite(1)],
        ids=["1e9", "-inf", "nan", "str", "finite"],
    )
    def test_domain_infinity_must_be_plus_inf(self, infinity):
        # A finite stand-in such as 1e9 would be overtaken by real costs: a
        # node at 2e9 and an unreachable one would both read finite(1e9).
        message = "^weight domain 'x': infinity must have the binary64 image \\+inf, got "
        with pytest.raises(ValueError, match=message):
            WeightDomain("x", infinity)
        with pytest.raises(ValueError, match=message):
            WeightDomain._make(["x", infinity])
        with pytest.raises(ValueError, match="^weight domain 'x': "):
            IEEE_BASELINE._replace(name="x", infinity=infinity)


def counting_infinity():
    """A float +inf that tallies each operator call made on it, and the tally.

    ``+`` returns the infinity itself, as ``INFINITY`` absorbs, so an unreached
    node keeps holding this object and every later use of it is counted too.
    """
    counts = collections.Counter()

    class Counting(float):
        def __lt__(self, other):
            counts["<"] += 1
            return float.__lt__(self, other)

        def __le__(self, other):
            counts["<="] += 1
            return float.__le__(self, other)

        def __gt__(self, other):
            counts[">"] += 1
            return float.__gt__(self, other)

        def __ge__(self, other):
            counts[">="] += 1
            return float.__ge__(self, other)

        def __add__(self, other):
            counts["+"] += 1
            return self

        __radd__ = __add__

    return Counting(math.inf), counts


class TestKernelLogic:
    def test_operator_calls_on_the_infinity_are_pinned(self):
        # The paper's comparison holds the search logic fixed, so a change to
        # the kernel's plumbing must leave every comparison and addition the
        # infinity sees, and their number, as these counts pin them.
        graphs = [fixture(name) for name in primary_fixture_names()] + [
            generate(GeneratorSpec(kind, 400, seed=5)) for kind in ("grid", "disconnected")
        ]
        infinity, counts = counting_infinity()
        for graph in graphs:
            raw = linear_scan_distances(graph, min(graph), infinity)
            assert raw.keys() == graph.keys()
        assert counts == {"<": 151_199, ">": 778, "+": 56}


class _AddsTo(float):
    """A weight that passes validate (its value is 1.0), but whose reflected
    ``+`` answers a fixed result: a way to put any value into the kernel's map."""

    def __new__(cls, result):
        weight = super().__new__(cls, 1.0)
        weight.result = result
        return weight

    def __radd__(self, other):
        return self.result


@also_on_python_rules
class TestConversion:
    @pytest.mark.parametrize("domain", [IEEE_BASELINE, SENTINEL])
    def test_finite_results_are_plain_weights_equal_to_the_oracle(self, domain):
        # The last graph puts an int into the raw map: the C conversion takes
        # its binary64 image, the Python loop goes through ExtendedWeight(v).
        cases = [(fixture(name), source) for name in FIXTURE_NAMES for source in fixture(name)]
        cases.append(({"A": {"B": _AddsTo(2)}, "B": {}, "C": {}}, "A"))
        for graph, source in cases:
            assert validate(graph) == []
            result = dijkstra(graph, source, domain)
            assert result == bellman_ford(graph, source)
            for weight in result.values():
                assert weight is INFINITY or type(weight) is ExtendedWeight
        assert result == {"A": finite(0), "B": finite(2), "C": INFINITY}

    @pytest.mark.parametrize("domain", [IEEE_BASELINE, SENTINEL])
    def test_an_out_of_domain_kernel_value_still_raises(self, domain):
        graph = {"A": {"B": _AddsTo(-1.0)}, "B": {}}
        assert validate(graph) == []
        with pytest.raises(ValueError, match=r"^weight cannot be negative: -1\.0$"):
            dijkstra(graph, "A", domain)


class TestTieBreaking:
    def test_scan_prefers_lexicographically_smallest(self):
        # Two equal-cost routes; the deterministic scan keeps results identical
        # across domains and repeated runs.
        graph = fixture("Worst_Case_Tie_2")
        runs = [dijkstra(graph, "1", d) for d in (IEEE_BASELINE, SENTINEL, "sentinel")]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0]["4"] == finite(4)


NEGATIVE = {"A": {"B": -1}, "B": {}}


class TestErrors:
    def test_unknown_source(self):
        with pytest.raises(UnknownNodeError, match="'Q'"):
            dijkstra(fixture("Cycle_Graph_1"), "Q")
        with pytest.raises(UnknownNodeError, match="'Q'"):
            bellman_ford(fixture("Cycle_Graph_1"), "Q")

    def test_invalid_graph(self):
        with pytest.raises(InvalidGraphError, match="'B'"):
            dijkstra({"A": {"B": 1}}, "A")

    @pytest.mark.parametrize(
        "graph, source, graph_id, error, message",
        [
            ({"A": {}}, "Q", None, UnknownNodeError, "unknown source node: 'Q'"),
            ({"A": {}}, "Q", "g", UnknownNodeError, "unknown source node 'Q' in graph 'g'"),
            (NEGATIVE, "A", None, InvalidGraphError, "edge 'A' -> 'B': negative weight -1"),
            (
                NEGATIVE, "A", "g", InvalidGraphError,
                "graph 'g': edge 'A' -> 'B': negative weight -1",
            ),
        ],
    )
    def test_check_query_names_the_graph_only_when_given_an_id(
        self, graph, source, graph_id, error, message
    ):
        calls = [lambda: check_query(graph, source, graph_id)]
        if graph_id is None:
            calls.append(lambda: dijkstra(graph, source))
        for call in calls:
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == message


class TestSerialization:
    def test_to_jsonable(self):
        distances = dijkstra(fixture("Disconnected_Graph_1"), "A")
        doc = distances_to_jsonable(distances)
        assert doc == {"A": 0, "B": 3, "C": 7, "X": "inf", "Y": "inf"}

    def test_round_trip(self):
        distances = dijkstra(fixture("Disconnected_Graph_1"), "A")
        assert distances_from_jsonable(distances_to_jsonable(distances)) == distances
