"""Graph model, JSON format, validation, and the bundled fixtures."""

import json
import warnings

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from extinf.fixtures import (
    CATEGORY_FIXTURES,
    FIXTURE_NAMES,
    ROAD_ROUTES,
    UnknownFixtureError,
    fixture,
    primary_fixture_names,
)
from extinf.graphs import (
    DanglingTargetWarning,
    GraphParseError,
    count_edges,
    emit_graph,
    parse_graph,
    validate,
)


class TestParse:
    def test_linear_chain_document(self):
        text = '{"A":{"B":2},"B":{"C":3},"C":{"D":1},"D":{}}'
        assert parse_graph(text) == fixture("Linear_Chain_1")

    def test_empty_graph(self):
        assert parse_graph("{}") == {}

    def test_negative_weight_named(self):
        with pytest.raises(GraphParseError, match=r"'A' -> 'B'.*negative"):
            parse_graph('{"A":{"B":-1},"B":{}}')

    def test_malformed_json(self):
        with pytest.raises(GraphParseError, match="malformed JSON"):
            parse_graph("{not json")

    def test_non_object_document(self):
        with pytest.raises(GraphParseError, match="must be a JSON object"):
            parse_graph("[1, 2]")

    def test_non_object_adjacency(self):
        with pytest.raises(GraphParseError, match="'A'"):
            parse_graph('{"A": 3}')

    @pytest.mark.parametrize("weight", ['"2"', "true", "null", "NaN", "Infinity"])
    def test_bad_weights_rejected(self, weight):
        with pytest.raises(GraphParseError, match=r"'A' -> 'B'"):
            parse_graph('{"A":{"B":%s},"B":{}}' % weight)

    def test_integer_past_binary64_range_named(self):
        with pytest.raises(GraphParseError, match=r"'A' -> 'B': weight must be finite"):
            parse_graph('{"A":{"B":1%s},"B":{}}' % ("0" * 400))

    def test_integer_past_int_digit_limit_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph('{"A":{"B":1%s},"B":{}}' % ("0" * 5000))

    def test_dangling_target_added_with_warning(self):
        with pytest.warns(DanglingTargetWarning, match="'B'"):
            graph = parse_graph('{"A":{"B":2}}')
        assert graph == {"A": {"B": 2}, "B": {}}

    def test_closed_graph_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_graph('{"A":{"B":2},"B":{}}')


class TestEmit:
    def test_empty(self):
        assert parse_graph(emit_graph({})) == {}

    def test_keys_sorted(self):
        text = emit_graph(fixture("Star_Graph_1"))
        positions = [text.index(f'"{k}"') for k in "ABCD"]
        assert positions == sorted(positions)

    def test_integral_floats_written_as_integers(self):
        assert '"B": 2' in emit_graph({"A": {"B": 2.0}, "B": {}})

    def test_round_trip_all_fixtures(self):
        for name in FIXTURE_NAMES:
            graph = fixture(name)
            assert parse_graph(emit_graph(graph)) == graph

    def test_emission_is_stable(self):
        for name in FIXTURE_NAMES:
            assert emit_graph(fixture(name)) == emit_graph(fixture(name))

    @given(small_graphs())
    @settings(max_examples=200)
    def test_round_trip_generated(self, graph):
        # Arbitrary small graphs may have dangling targets; close them first.
        closed = dict(graph)
        for neighbors in graph.values():
            for target in neighbors:
                closed.setdefault(target, {})
        assert parse_graph(emit_graph(closed)) == closed


class TestValidate:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_are_valid(self, name):
        assert validate(fixture(name)) == []

    def test_dangling_target(self):
        assert len(validate({"A": {"B": 2}})) == 1

    def test_negative_weight(self):
        violations = validate({"A": {"B": -3}, "B": {}})
        assert len(violations) == 1 and "negative" in violations[0]

    def test_integer_past_binary64_range(self):
        assert validate({"A": {"B": 10**400}, "B": {}}) == [
            "edge 'A' -> 'B': weight must be finite, got a 1329-bit integer"
        ]

    def test_multiple_violations_reported_separately(self):
        violations = validate({"A": {"B": -3, "C": 1}, "B": {}})
        assert len(violations) == 2  # negative weight plus dangling 'C'

    def test_non_dict_adjacency(self):
        assert validate({"A": [1]}) != []

    def test_non_string_node(self):
        assert validate({1: {}}) != []


class TestFixtures:
    def test_cycle_graph_1(self):
        assert fixture("Cycle_Graph_1") == {
            "A": {"B": 1},
            "B": {"C": 2},
            "C": {"A": 3},
        }

    def test_worst_case_tie_2(self):
        assert fixture("Worst_Case_Tie_2") == {
            "1": {"2": 2, "3": 2},
            "2": {"4": 2},
            "3": {"4": 2},
            "4": {},
        }

    def test_unknown_name(self):
        with pytest.raises(UnknownFixtureError, match="Nope"):
            fixture("Nope")

    def test_twenty_fixtures_in_ten_categories(self):
        assert len(FIXTURE_NAMES) == 20
        assert len(CATEGORY_FIXTURES) == 10
        assert all(len(pair) == 2 for pair in CATEGORY_FIXTURES.values())

    def test_primary_names_one_per_category(self):
        names = primary_fixture_names()
        assert len(names) == 10
        assert names[0] == "Linear_Chain_1" and names[-1] == "Real_World_Like_1"

    def test_fixture_returns_fresh_copy(self):
        graph = fixture("Cycle_Graph_1")
        graph["A"]["B"] = 99
        assert fixture("Cycle_Graph_1")["A"]["B"] == 1

    def test_route_metadata_is_inert_data(self):
        assert len(ROAD_ROUTES) == 8
        for route in ROAD_ROUTES:
            assert route.radius_m > 0
            assert len(route.start) == 2 and len(route.end) == 2


def test_count_edges():
    assert count_edges(fixture("Dense_Graph_1")) == 12
    assert count_edges({}) == 0
