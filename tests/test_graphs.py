"""Graph model, JSON format, validation, and the bundled fixtures."""

import enum
import json
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cross_check
from conftest import also_on_python_rules, needs_c, small_graphs
from extinf import _native, graphs
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
from extinf.generators import KINDS, GeneratorSpec, generate
from extinf.weights import canonical_number



@also_on_python_rules
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

    # The first fault wins: decoding, then the JSON shape, then duplicate keys,
    # then validate's first violation.
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"A":{"B":-1},"B":3', "malformed JSON"),
            ('{"A":{"B":-1},"B":3}', "adjacency of node 'B' must be an object, got int"),
            ('{"A":{"B":-1},"B":{"C":1,"C":2},"C":{}}', "edge 'B' -> 'C' appears more than once"),
            ('{"A":{"B":-1},"B":{"C":"x"}}', "edge 'A' -> 'B': negative weight -1"),
        ],
        ids=["decoding", "shape", "duplicate", "graph rule"],
    )
    def test_fault_order(self, text, message):
        with pytest.raises(GraphParseError, match="^" + re.escape(message)):
            parse_graph(text)

    def test_no_warning_for_a_graph_that_fails_validate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphParseError, match=r"^edge 'A' -> 'B': negative weight -1$"):
                parse_graph('{"A":{"B":-1,"C":1}}')


@also_on_python_rules
class TestEmit:
    def test_empty(self):
        assert parse_graph(emit_graph({})) == {}

    def test_keys_sorted(self):
        text = emit_graph(fixture("Star_Graph_1"))
        positions = [text.index(f'"{k}"') for k in "ABCD"]
        assert positions == sorted(positions)

    def test_non_number_weight_raises_type_error(self):
        with pytest.raises(TypeError):
            emit_graph({"A": {"B": [1]}})

    @pytest.mark.parametrize("weight", ["2", Fraction(1, 3)], ids=["str", "Fraction"])
    def test_weight_that_json_would_rewrite_raises_type_error(self, weight):
        with pytest.raises(TypeError, match=re.escape(f"got {weight!r}")):
            emit_graph({"A": {"B": weight}, "B": {}})

    @pytest.mark.parametrize(
        "weights", [(2, Fraction(2)), (Fraction(2), 2)], ids=["number first", "Fraction first"]
    )
    def test_non_number_equal_to_another_weight_raises_type_error(self, weights):
        with pytest.raises(TypeError, match=re.escape("got Fraction(2, 1)")):
            emit_graph({"A": dict(zip("BC", weights)), "B": {}, "C": {}})

    def test_non_dict_adjacency_raises(self):
        with pytest.raises(AttributeError):
            emit_graph({"A": []})

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


def _indent_reference(graph):
    """What emit_graph wrote through json's pure-Python indent=2 encoder."""
    doc = {
        node: {neighbor: canonical_number(w) for neighbor, w in neighbors.items()}
        for node, neighbors in graph.items()
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Ids whose encoded form could be mistaken for the separators emit_graph splits on.
_awkward_ids = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", ",\n  ", ": 0,\n  ", "\u00e9\u6f22", "{}", ""]),
)
_emitted_weights = st.one_of(
    st.integers(-(2**53) - 3, 2**53 + 3),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([2**53, -(2**53), 2**53 - 1, 1e300, math.nan, math.inf, -math.inf]),
    st.booleans(),
)

# Numbers that sort together but share dict keys across types: 1, 1.0 and True.
_mixed_numeric_ids = st.one_of(
    st.integers(-3, 3), st.booleans(), st.sampled_from([1.0, 0.5, -0.0])
)


@st.composite
def _emittable_graphs(draw):
    # Keys of one dict must sort, so a graph's ids are all str or all numbers.
    ids = draw(st.sampled_from([_awkward_ids, st.integers(-3, 12), _mixed_numeric_ids]))
    return draw(
        st.dictionaries(ids, st.dictionaries(ids, _emitted_weights, max_size=5), max_size=6)
    )


class TestEmitMatchesIndentEncoder:
    @pytest.mark.parametrize(
        "graph",
        [
            {},
            {"A": {}},
            {"A": {}, "B": {}},
            {2: {10: 1}, 10: {}},
            {"A": {"B": 2**53, "C": -(2**53), "D": 2**53 - 1}, "B": {}},
            {"A": {"B": 1e300, "C": math.nan, "D": math.inf, "E": True, "F": False}},
            {",\n  \"x\": 0": {"\\": 1}, "\u00e9\n": {"": 2.5}},
            # Equal dict keys of other types are other JSON keys.
            {1: {}, 2: {1.0: 3}},
            {0: {False: 1}, 1: {True: 2.0, 0.5: -0.0}},
            # Equal weights of other types write one text.
            {"A": dict(zip("BCDEFGH", [1, 1.0, True, -0.0, 0, 2**53, float(2**53)]))},
        ],
    )
    def test_examples(self, graph):
        assert emit_graph(graph) == _indent_reference(graph)

    @given(_emittable_graphs())
    @settings(max_examples=400)
    def test_any_graph(self, graph):
        assert emit_graph(graph) == _indent_reference(graph)


@also_on_python_rules
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

    def test_non_dict_graph(self):
        assert validate([("A", {})]) == ["graph must be a dict, got list"]

    def test_non_string_edge_target(self):
        assert validate({"A": {1: 2}}) == ["edge target of node 'A' must be a string, got 1"]


class _Level(enum.IntEnum):
    ONE = 1


class _Float(float):
    def __repr__(self):
        return f"_Float({float(self)!r})"


_MAX_INT = int(sys.float_info.max)
# Weights on and around every edge of the inline test that validate runs
# before _check_weight, and values of the types it must refuse.
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
    with mock.patch.object(json, "loads", loads):
        _assert_parse_matches("", weights)
    # ... and on the JSON text of the same star.
    text = json.dumps(_star(weights))
    _assert_parse_matches(text, list(json.loads(text)["A"].values()))


@also_on_python_rules
class TestWeightChecks:
    """validate accepts a plain weight inline and hands every other weight to
    _check_weight; it, and parse_graph through it, must agree with
    _check_weight alone."""

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


@also_on_python_rules
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


@also_on_python_rules
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


class _Str(str):
    pass


class _Dict(dict):
    pass


_plain_ids = st.sampled_from("ABC")
_any_ids = st.one_of(_plain_ids, _plain_ids.map(_Str), st.integers(0, 2))
# Closed or not, with plain ids and weights: the graphs the C check passes.
_plain_graphs = st.dictionaries(
    _plain_ids,
    st.dictionaries(st.sampled_from("ABCD"), st.integers(0, 9) | st.floats(0, 9), max_size=3),
    max_size=3,
)
_any_graphs = st.one_of(
    _plain_graphs,
    st.dictionaries(
        _any_ids,
        st.one_of(
            st.dictionaries(_any_ids, st.integers(0, 9) | _weights, max_size=3),
            st.dictionaries(_plain_ids, st.integers(0, 9), max_size=3).map(_Dict),
            st.lists(st.integers(0, 9), max_size=2),
        ),
        max_size=3,
    ),
    _plain_graphs.map(_Dict),
    st.lists(st.tuples(_plain_ids, st.just({})), max_size=2),
)


def _members_text(members):
    """The JSON text of a graph written member by member, duplicates kept."""

    def obj(pairs, value_text):
        return "{" + ", ".join(f"{json.dumps(k)}: {value_text(v)}" for k, v in pairs) + "}"

    return obj(members, lambda adjacency: obj(adjacency, str))


_graph_texts = st.one_of(
    _plain_graphs.map(json.dumps),
    _member_lists.map(_members_text),
    _any_graphs.map(json.dumps),
    _json_ish_texts(),
)


def _outcome(function, argument):
    """What function(argument) returned or raised, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = cross_check._outcome(function, argument)
    return result, [(w.category, str(w.message)) for w in caught]


def _outcomes_on_and_off(functions, argument):
    on = [_outcome(function, argument) for function in functions]
    with _native.python_rules():
        off = [_outcome(function, argument) for function in functions]
    return on, off


def _loop_ran(*args):
    """Stands in for a builtin that only graphs' Python loops call."""
    raise AssertionError("a Python loop ran")


# Ids over a small alphabet, so that repeats and dangling targets are common,
# latin-1 ones beside ones of the 2- and 4-byte kinds.
_text_ids = st.one_of(
    st.sampled_from(["A", "B", "\u00e9", ":", "\x1f", "\x7f", "\u0100", "\U0001f600"]),
    st.text(st.characters(max_codepoint=0xFF), max_size=2),
    st.text(max_size=2),
)
_text_weights = st.one_of(
    st.integers(0, 10**20),
    st.floats(min_value=0.0),
    st.sampled_from([-0.0, math.nan, math.inf, -1, 10**19, 10**18 - 1]),
)
# Tokens outside the decoder's subset or at its edges.
_odd_numbers = ["-1", "-0", "-0.0", "1e5", "1E-400", "1e400", "NaN", "Infinity", "01", "1."] + [
    "0e0", "123456789012345678", "1234567890123456789", "12345678901234567890"
]
_odd_keys = ['"\x1f"', '"\\u0041"', '"\u00e9"', '"\u0100"', '"\U0001f600"', '""']
_odd_marks = ["", "-", "\\", "}", "{", ",", ":", '"', "[", " ", "\u0100", "\x00"]
# Weights as written: json.dumps' own, and what it never writes.
_weight_tokens = st.one_of(
    _text_weights.map(json.dumps),
    st.sampled_from(_odd_numbers + ["0.5E+3", "true", "null", '"1"', "{}"]),
)
_spaces = st.sampled_from(["", " ", "\n  ", "\r\n", "\t", " \r\t\n"])


@st.composite
def _written_documents(draw):
    """Graph documents written member by member, duplicates kept, with any
    JSON whitespace, and keys as json.dumps writes them, \\u-escaped or raw."""
    members = draw(
        st.lists(
            st.tuples(_text_ids, st.lists(st.tuples(_text_ids, _weight_tokens), max_size=3)),
            max_size=4,
        )
    )
    if draw(st.booleans()):  # close it, as a decodable document must be
        nodes = {node for node, _ in members}
        targets = (t for _, adjacency in members for t, _ in adjacency)
        members += [(t, []) for t in dict.fromkeys(targets) if t not in nodes]
    ensure_ascii = draw(st.booleans())

    def key(k):
        way = draw(st.sampled_from(["dumps", "escaped", "raw"]))
        if way == "escaped":
            return _key_text(k, escape_all=True)
        if way == "raw" and '"' not in k and "\\" not in k:  # control characters too
            return f'"{k}"'
        return json.dumps(k, ensure_ascii=ensure_ascii)

    def obj(pairs, value_text):
        written = (
            f"{draw(_spaces)}{key(k)}{draw(_spaces)}:{draw(_spaces)}{value_text(v)}"
            for k, v in pairs
        )
        return "{" + ",".join(written) + draw(_spaces) + "}"

    return draw(_spaces) + obj(members, lambda adjacency: obj(adjacency, str)) + draw(_spaces)


def _closed(graph):
    closed = dict(graph)
    for neighbors in graph.values():
        for target in neighbors:
            closed.setdefault(target, {})
    return closed


_dumped_documents = st.builds(
    json.dumps,
    st.dictionaries(_text_ids, st.dictionaries(_text_ids, _text_weights, max_size=3), max_size=4)
    | st.dictionaries(_text_ids, st.dictionaries(_text_ids, st.integers(0, 9), max_size=3)).map(
        _closed
    ),
    indent=st.sampled_from([None, 0, 2, "\t", "\r\n"]),
    separators=st.sampled_from([None, (",", ":"), (", ", ": "), (",\n", " :\t")]),
    ensure_ascii=st.booleans(),
)
_emitted_documents = small_graphs().map(_closed).map(emit_graph)
_documents = st.one_of(_emitted_documents, _dumped_documents, _written_documents())

# JSON tokens: strings, numbers, punctuation, runs of whitespace, words.
_json_tokens = re.compile(r'"(?:[^"\\]|\\.)*"|[-+.\w]+|\s+|.', re.DOTALL)


@st.composite
def _one_token_mutations(draw):
    """A document, emitted half the time, with one number replaced by an odd
    one, one id renamed to an odd one wherever it occurs, or one token
    replaced by an odd mark, by itself twice or by another of its tokens."""
    tokens = _json_tokens.findall(draw(st.one_of(_emitted_documents, _documents)))
    numbers = [i for i, token in enumerate(tokens) if token[0].isdigit()]
    keys = sorted({token for token in tokens if token.startswith('"')})
    way = draw(st.sampled_from(["number", "key", "any"]))
    if way == "number" and numbers:
        tokens[draw(st.sampled_from(numbers))] = draw(st.sampled_from(_odd_numbers))
    elif way == "key" and keys:
        key, odd = draw(st.sampled_from(keys)), draw(st.sampled_from(_odd_keys))
        tokens = [odd if token == key else token for token in tokens]
    elif tokens:
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(_odd_marks + [tokens[i] * 2] + tokens))
    return "".join(tokens)


_parse_texts = st.one_of(
    _documents,
    _one_token_mutations(),
    st.tuples(st.sampled_from([str.encode, _Str]), _documents).map(lambda pair: pair[0](pair[1])),
)


class TestPlainCheck:
    """The C checks of plain graphs and of weight types and the C decoder
    change no answer, and plain graphs and their texts take them."""

    @given(_any_graphs)
    @settings(max_examples=300)
    def test_validate_and_emit_agree_with_the_check_off(self, graph):
        on, off = _outcomes_on_and_off((validate, emit_graph), graph)
        assert on == off

    @given(_graph_texts)
    @settings(max_examples=300)
    def test_parse_agrees_with_the_check_off(self, text):
        on, off = _outcomes_on_and_off((parse_graph,), text)
        assert on == off

    @given(_parse_texts)
    @settings(max_examples=1000)
    def test_decoder_agrees_with_json_loads(self, text):
        # The outcome is a graph's layout: key order, types and target identity.
        on = cross_check.text_outcome(text)
        with _native.python_rules():
            off = cross_check.text_outcome(text)
        assert on == off
        graph = graphs._parse_plain(text)
        if graph is not None:
            # The decoder runs no plain_graph pass: it proves its graph plain.
            assert graphs._plain_graph(graph) is True
            keys = {node: node for node in graph}
            assert all(keys[target] is target for adj in graph.values() for target in adj)

    def test_cross_check_text_table_catches_a_wrong_answer(self, monkeypatch):
        assert cross_check.plain_texts_problems()[0] == []
        decoder = graphs._parse_plain
        labels = ("duplicate node", "duplicate edge", "two dangling targets")
        wrong = {text for label, text, _ in cross_check.PLAIN_TEXTS if label in labels}

        def lenient(text):  # as json.loads: the last of duplicate keys, dangling targets
            return json.loads(text) if text in wrong else decoder(text)

        monkeypatch.setattr(graphs, "_parse_plain", lenient)
        problems, answers = cross_check.plain_texts_problems()
        assert answers["duplicate node"] is (True if cross_check.NATIVE else None)
        for label in labels:
            assert f"parse_graph({label}) changed with the decoder on" in problems
            assert f"parse_plain_graph({label}) took the text" in problems
        refused = "parse_plain_graph(two dangling targets) gave a graph plain_graph refuses"
        assert refused in problems
        assert len(problems) == 7

    @needs_c
    def test_repeated_decoding_leaks_nothing(self):
        # One text it takes, then ones it refuses part of the way through,
        # after interning ids: an escape, an infinite weight, a duplicate
        # edge, and a missing target, which only the count of ids refuses.
        texts = [
            '{"A": {"B": 1, "CD": 2.5}, "B": {"A": 3}, "CD": {}}',
            '{"A": {"B": 1, "CD": 2.5}, "B": {"A": 3}, "CD": {"\\u0041": 1}}',
            '{"A": {"B": 1, "CD": 2.5}, "B": {"A": 1e400}, "CD": {}}',
            '{"A": {"B": 1, "CD": 2.5, "B": 2}, "B": {}, "CD": {}}',
            '{"A": {"B": 1, "CD": 2.5}, "B": {"A": 3}}',
        ]
        decode = _native._absinf.parse_plain_graph
        assert [decode(text) is not None for text in texts] == [True] + [False] * 4
        counted = ("A", "B")  # one-character latin-1 strs are shared

        def decode_all(times):
            for _ in range(times):
                for text in texts:
                    decode(text)

        decode_all(100)
        tracemalloc.start()
        try:
            decode_all(100)
            size = tracemalloc.get_traced_memory()[0]
            refcounts = list(map(sys.getrefcount, counted))
            decode_all(2_000)
            grown = tracemalloc.get_traced_memory()[0] - size
        finally:
            tracemalloc.stop()
        assert list(map(sys.getrefcount, counted)) == refcounts
        assert grown < 64 * 1024  # one leaked "CD" per text would be 0.5 MB

    def test_cross_check_table_catches_a_wrong_answer(self, monkeypatch):
        assert cross_check.plain_graph_problems()[0] == []
        monkeypatch.setattr(graphs, "_plain_graph", lambda graph: True)
        problems, answers = cross_check.plain_graph_problems()
        assert set(answers.values()) == ({True} if cross_check.NATIVE else {None})
        assert "validate(missing target) changed with the C check on" in problems
        # The C decoder refuses a minus sign, so json.loads and validate decide.
        assert "parse_graph(-1) changed with the C check on" in problems
        assert "plain_graph(IntEnum weight) said True, the loop found []" in problems

    @needs_c
    def test_emit_graph_needs_only_number_weights(self, monkeypatch):
        # A dangling target fails validate, not emit_graph's loop.
        monkeypatch.setattr(graphs, "isinstance", _loop_ran, raising=False)
        text = emit_graph({"A": {"C": 1, "B": 0.5}, "B": {}})
        assert text == '{\n  "A": {\n    "B": 0.5,\n    "C": 1\n  },\n  "B": {}\n}\n'

    def test_cross_check_weights_table_catches_a_wrong_answer(self, monkeypatch):
        assert cross_check.plain_weights_problems()[0] == []
        monkeypatch.setattr(graphs, "_plain_weights", lambda graph: True)
        problems, answers = cross_check.plain_weights_problems()
        assert set(answers.values()) == ({True} if cross_check.NATIVE else {None})
        # An equal entry in the number table would write a Fraction as "2".
        assert "emit_graph(Fraction weight) changed with the C check on" in problems
        assert "plain_weights(Fraction weight) said True, emit_graph's loop raised" in problems
        assert not any(p.startswith("plain_weights(missing target)") for p in problems)

    @needs_c
    def test_bundled_generated_and_emitted_graphs_take_it(self, monkeypatch):
        # A silent miss would put the loops back into every query.
        benchmarked = {kind for kind, _ in cross_check.BENCHMARK_SIZES}
        sizes = [(kind, 100) for kind in KINDS if kind not in benchmarked]
        plain = [fixture(name) for name in FIXTURE_NAMES] + [
            generate(GeneratorSpec(kind, node_count, seed=seed))
            for kind, node_count in sizes + list(cross_check.BENCHMARK_SIZES)
            for seed in (0, 4242)
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "isinstance", _loop_ran, raising=False)
            texts = [emit_graph(graph) for graph in plain]
            assert [validate(graph) for graph in plain] == [[]] * len(plain)
        # The C decoder takes every emitted text: json.loads, the search
        # for a dropped key or a dangling target (in a set) and validate
        # never run.
        monkeypatch.setattr(json, "loads", _loop_ran)
        monkeypatch.setattr(graphs, "set", _loop_ran, raising=False)
        monkeypatch.setattr(graphs, "validate", _loop_ran)
        assert [parse_graph(text) for text in texts] == plain
