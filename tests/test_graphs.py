"""Graph model, JSON format, validation, and the bundled fixtures."""

import enum
import json
import math
import sys
import types
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from extinf import graphs
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
    _check_weight,
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


class _Level(enum.IntEnum):
    ONE = 1


class _Float(float):
    def __repr__(self):
        return f"_Float({float(self)!r})"


_MAX_INT = int(sys.float_info.max)
# Weights on and around every edge of the inline test that parse_graph and
# validate run before _check_weight, and values of the types it must refuse.
_EDGE_WEIGHTS = (
    (0.0, -0.0, 5e-324, -5e-324, 1.5, -1.0, sys.float_info.max)
    + (math.inf, -math.inf, math.nan)
    + (0, 1, -1, _MAX_INT, _MAX_INT + 1)
    + (2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400, -(10**400))
    + (True, False, _Level.ONE, _Float(-1.0), _Float(2.0), "2", None)
)
_weights = st.one_of(
    st.sampled_from(_EDGE_WEIGHTS),
    st.floats(allow_subnormal=True),
    st.integers(-(2**1100), 2**1100),
)


def _weight_id(w):
    text = repr(w)
    return text if len(text) <= 24 else f"{text[:8]}...{text[-8:]}"


def _star(weights):
    """Node A with one edge per weight, to B0, B1, ..., each a node."""
    graph = {"A": {f"B{i}": w for i, w in enumerate(weights)}}
    graph.update((f"B{i}", {}) for i in range(len(weights)))
    return graph


def _reference(weights):
    """What the checks must report: _check_weight on every edge, in order."""
    problems = (_check_weight("A", f"B{i}", w) for i, w in enumerate(weights))
    return [problem for problem in problems if problem is not None]


def _assert_parse_matches(text, weights):
    expected = _reference(weights)
    if expected:
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == expected[0]
    else:
        parsed = list(parse_graph(text)["A"].values())
        assert all(p is w or (type(p), p) == (type(w), w) for p, w in zip(parsed, weights))


def _check_against_reference(weights):
    assert validate(_star(weights)) == _reference(weights)

    def loads(text, object_pairs_hook=None):
        graph = _star(weights)
        if object_pairs_hook is None:
            return graph
        return object_pairs_hook(
            [(node, object_pairs_hook(list(adj.items()))) for node, adj in graph.items()]
        )

    # parse_graph on the weight objects themselves, subclasses included ...
    decoder = types.SimpleNamespace(loads=loads)
    with mock.patch.object(graphs, "json", decoder):
        _assert_parse_matches("", weights)
    # ... and on the JSON text of the same star.
    text = json.dumps(_star(weights))
    _assert_parse_matches(text, list(json.loads(text)["A"].values()))


class TestWeightChecks:
    """parse_graph and validate accept a plain weight inline and hand every
    other weight to _check_weight; both must agree with _check_weight alone."""

    @pytest.mark.parametrize("weight", _EDGE_WEIGHTS, ids=_weight_id)
    def test_edge_weights(self, weight):
        _check_against_reference([weight])
        _check_against_reference([1, weight, 2.5])

    @given(st.lists(_weights, max_size=6))
    @settings(max_examples=300)
    def test_matches_check_weight(self, weights):
        _check_against_reference(weights)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats(allow_subnormal=True)
    | st.integers(-(2**1100), 2**1100)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=10,
)
_graph_documents = st.dictionaries(
    st.text(max_size=2),
    st.dictionaries(st.text(max_size=2), _json_values, max_size=4) | _json_values,
    max_size=4,
)


@st.composite
def _json_ish_texts(draw):
    """Graph documents, other JSON values or any text, with one slice of
    characters replaced by up to three arbitrary ones."""
    documents = st.one_of(_graph_documents, _json_values).map(json.dumps)
    text = draw(st.one_of(documents, st.text()))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.text(max_size=3)) + text[end:]


class TestParseFuzzed:
    """Any text yields a valid graph or GraphParseError, nothing else."""

    @given(_json_ish_texts())
    @settings(max_examples=300)
    def test_valid_graph_or_parse_error(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DanglingTargetWarning)
            try:
                graph = parse_graph(text)
            except GraphParseError:
                return
        assert validate(graph) == []

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"A":' * 100_000], ids=["list", "object"])
    def test_nesting_too_deep(self, text):
        with pytest.raises(GraphParseError, match="malformed JSON"):
            parse_graph(text)


# Ids over a small alphabet, so that repeats are common, with ":" itself and
# characters that JSON text escapes: '"', backslash and a non-ASCII letter.
_dup_ids = st.text('AB:"\\\u00e9', min_size=1, max_size=2)


# Graph documents as written member by member, duplicates allowed.
_member_lists = st.lists(
    st.tuples(_dup_ids, st.lists(st.tuples(_dup_ids, st.integers(0, 9)), max_size=3)),
    max_size=4,
)


def _key_text(key, escape_all):
    # Either json.dumps' own escaping or every character as a \uXXXX escape,
    # which writes a ":" in an id without a ":" in the text.
    if escape_all:
        return '"' + "".join(f"\\u{ord(c):04x}" for c in key) + '"'
    return json.dumps(key)


def _first_repeat(keys):
    return next((k for i, k in enumerate(keys) if k in keys[:i]), None)


class TestDuplicateKeys:
    def test_dropped_edge_is_reported(self):
        with pytest.raises(GraphParseError, match="^node 'A' appears more than once$"):
            parse_graph('{"A": {"B": 1}, "B": {}, "A": {}}')

    @given(_member_lists, st.booleans(), st.sampled_from([None, "utf-8", "utf-16", "utf-32"]))
    @settings(max_examples=300)
    def test_duplicates_at_either_level_are_named(self, members, escape_all, encoding):
        def obj(pairs, value_text):
            return "{" + ", ".join(
                f"{_key_text(k, escape_all)}: {value_text(v)}" for k, v in pairs
            ) + "}"

        text = obj(members, lambda adjacency: obj(adjacency, str))
        if encoding is not None:  # json.loads also takes encoded bytes
            text = text.encode(encoding)
        node = _first_repeat([n for n, _ in members])
        edge = next(
            ((n, t) for n, adj in members if (t := _first_repeat([k for k, _ in adj]))),
            None,
        )
        if node is not None:
            expected = f"node {node!r} appears more than once"
        elif edge is not None:
            expected = f"edge {edge[0]!r} -> {edge[1]!r} appears more than once"
        else:
            expected = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DanglingTargetWarning)
            if expected is None:
                graph = parse_graph(text)
                assert all(graph[n] == dict(adjacency) for n, adjacency in members)
            else:
                with pytest.raises(GraphParseError) as info:
                    parse_graph(text)
                assert str(info.value) == expected


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
