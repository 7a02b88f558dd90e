"""Search correctness: fixtures, oracle equivalence, domain interchangeability."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings

from conftest import graphs_with_source
from extinf.fixtures import FIXTURE_NAMES, fixture
from extinf.graphs import InvalidGraphError
from extinf.shortest_path import (
    DOMAINS,
    IEEE_BASELINE,
    SENTINEL,
    UnknownNodeError,
    WeightDomain,
    bellman_ford,
    dijkstra,
    distances_from_jsonable,
    distances_to_jsonable,
    get_domain,
    linear_scan_distances,
)
from extinf.weights import INFINITY, finite
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
        [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copied_sentinel_marks_unreachable(self, copier):
        graph = fixture("Disconnected_Graph_1")
        domain = WeightDomain("sentinel", copier(INFINITY))
        assert dijkstra(graph, "A", domain) == dijkstra(graph, "A", SENTINEL)


class TestTieBreaking:
    def test_scan_prefers_lexicographically_smallest(self):
        # Two equal-cost routes; the deterministic scan keeps results identical
        # across domains and repeated runs.
        graph = fixture("Worst_Case_Tie_2")
        runs = [dijkstra(graph, "1", d) for d in (IEEE_BASELINE, SENTINEL, "sentinel")]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0]["4"] == finite(4)


class TestErrors:
    def test_unknown_source(self):
        with pytest.raises(UnknownNodeError, match="'Q'"):
            dijkstra(fixture("Cycle_Graph_1"), "Q")
        with pytest.raises(UnknownNodeError, match="'Q'"):
            bellman_ford(fixture("Cycle_Graph_1"), "Q")

    def test_invalid_graph(self):
        with pytest.raises(InvalidGraphError, match="'B'"):
            dijkstra({"A": {"B": 1}}, "A")


class TestSerialization:
    def test_to_jsonable(self):
        distances = dijkstra(fixture("Disconnected_Graph_1"), "A")
        doc = distances_to_jsonable(distances)
        assert doc == {"A": 0, "B": 3, "C": 7, "X": "inf", "Y": "inf"}

    def test_round_trip(self):
        distances = dijkstra(fixture("Disconnected_Graph_1"), "A")
        assert distances_from_jsonable(distances_to_jsonable(distances)) == distances
