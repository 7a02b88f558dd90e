"""Extended-weight domain: ordering, addition, binary64 mapping, rendering."""

import copy
import decimal
import itertools
import math
import operator
import pickle
import struct
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cross_check
from conftest import extended_weights, finite_payloads, needs_c
from extinf import _native, shortest_path, weights
from extinf.weights import (
    INFINITY,
    ExtendedWeight,
    Ordering,
    add,
    canonical_number,
    compare,
    finite,
    format_weight,
    from_binary64,
    parse_weight,
    to_binary64,
)


def ieee_ordering(x, y):
    if x < y:
        return Ordering.LESS
    if x > y:
        return Ordering.GREATER
    return Ordering.EQUAL


class TestCompare:
    def test_infinity_dominates_huge_finite(self):
        assert compare(INFINITY, finite(1e9)) is Ordering.GREATER

    def test_infinity_equals_itself(self):
        assert compare(INFINITY, INFINITY) is Ordering.EQUAL

    def test_finite_numeric_ordering(self):
        assert compare(finite(2), finite(3)) is Ordering.LESS
        assert compare(finite(3), finite(2)) is Ordering.GREATER
        assert compare(finite(3), finite(3)) is Ordering.EQUAL

    def test_rejects_non_weights(self):
        with pytest.raises(TypeError):
            compare(INFINITY, 3.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: add(finite(1), 2.0), "add expects two ExtendedWeight values"),
            (lambda: to_binary64(2.0), "to_binary64 expects an ExtendedWeight"),
            (lambda: format_weight("inf"), "format_weight expects an ExtendedWeight"),
        ],
        ids=["add", "to_binary64", "format_weight"],
    )
    def test_module_functions_reject_non_weights(self, call, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()

    @given(finite_payloads)
    def test_dominance(self, x):
        assert compare(INFINITY, finite(x)) is Ordering.GREATER
        assert compare(finite(x), INFINITY) is Ordering.LESS

    @given(extended_weights, extended_weights)
    def test_consistent_with_binary64(self, a, b):
        assert compare(a, b) is ieee_ordering(to_binary64(a), to_binary64(b))

    @given(extended_weights, extended_weights)
    def test_antisymmetry(self, a, b):
        flipped = {
            Ordering.LESS: Ordering.GREATER,
            Ordering.GREATER: Ordering.LESS,
            Ordering.EQUAL: Ordering.EQUAL,
        }
        assert compare(b, a) is flipped[compare(a, b)]

    @given(extended_weights, extended_weights, extended_weights)
    def test_transitivity(self, a, b, c):
        not_greater = (Ordering.LESS, Ordering.EQUAL)
        if compare(a, b) in not_greater and compare(b, c) in not_greater:
            assert compare(a, c) in not_greater

    @given(st.lists(extended_weights, min_size=1, max_size=8))
    def test_sorting_matches_binary64_order(self, values):
        images = [to_binary64(w) for w in sorted(values)]
        assert images == sorted(images)


class TestAdd:
    def test_infinity_absorbs(self):
        assert add(INFINITY, finite(7)) is INFINITY

    def test_zero_identity(self):
        assert add(finite(0), finite(0)) == finite(0)

    def test_finite_sum(self):
        assert add(finite(2), finite(3)) == finite(5)

    def test_overflow_saturates_to_infinity(self):
        assert add(finite(1e308), finite(1e308)) is INFINITY

    @given(finite_payloads)
    def test_neutrality(self, x):
        assert add(INFINITY, finite(x)) is INFINITY
        assert add(finite(x), INFINITY) is INFINITY

    @given(finite_payloads, finite_payloads)
    def test_matches_binary64_addition(self, x, y):
        assert to_binary64(add(finite(x), finite(y))) == x + y


def test_cross_check_weight_table_catches_a_wrong_answer(monkeypatch):
    assert cross_check.weight_function_problems() == []
    monkeypatch.setattr(cross_check, "compare", lambda a, b: Ordering.EQUAL)
    monkeypatch.setattr(cross_check, "add", lambda a, b: finite(0))
    problems = cross_check.weight_function_problems()
    assert "compare(INFINITY, finite(0)) gave Ordering.EQUAL" in problems
    assert "add(finite(max float), finite(max float)) gave ExtendedWeight(0)" in problems
    assert "add(finite(0), finite(0)) gave ExtendedWeight(0)" not in problems


def _converts_in_one_pass(distances, infinity):
    """A wrong C conversion: -0.0 kept, ints from 2**53 left to the loop,
    and the map half converted when it gives up."""
    for node, value in distances.items():
        if value is infinity:
            distances[node] = INFINITY
        elif type(value) in (int, float) and 0 <= value < 2**53:
            weight = object.__new__(ExtendedWeight)
            weight._value = float(value)
            distances[node] = weight
        else:
            return False
    return True


def test_cross_check_conversion_table_catches_a_wrong_answer(monkeypatch):
    assert cross_check.from_search_problems()[0] == []
    monkeypatch.setattr(cross_check, "NATIVE", True)  # hold it to the C rows
    monkeypatch.setattr(shortest_path, "_from_search_in_c", _converts_in_one_pass)
    problems = cross_check.from_search_problems()[0]
    assert "from_search(2**53+1) under sentinel: the C call said False" in problems
    assert (
        "from_search(nan) under ieee_baseline: the C call said look closer and changed the map"
        in problems
    )
    wrong_sign = [p for p in problems if p.startswith("from_search(-0.0) under sentinel: C path")]
    assert len(wrong_sign) == 1 and "'-0.0')], Python loop gave" in wrong_sign[0]
    assert not any(p.startswith("from_search(5e-324) under") for p in problems)


_ROUNDS_TO_INF = 2**1024 - 2**970


@st.composite
def _search_maps(draw):
    """A fresh distance map of in-range floats and ints and the infinity of a
    domain, as the kernel leaves it, with that infinity."""
    infinity = draw(st.sampled_from((math.inf, INFINITY)))
    values = st.one_of(
        st.floats(min_value=0.0, max_value=_MAX),
        st.just(-0.0),
        st.integers(0, _ROUNDS_TO_INF - 1),
        st.just(infinity),
    )
    return dict(enumerate(draw(st.lists(values, max_size=12)), start=1)), infinity


# (label, value, the exception and message its conversion raises)
_OUT_OF_DOMAIN = (
    ("True", True, TypeError, "weight must be a real number, got bool"),
    ("Fraction", Fraction(1, 3), TypeError, "weight must be a real number, got Fraction"),
    ("finite(1.0)", finite(1.0), TypeError, "weight must be a real number, got ExtendedWeight"),
    ("nan", math.nan, ValueError, "weight cannot be NaN"),
    ("-1.0", -1.0, ValueError, "weight cannot be negative: -1.0"),
    ("-1", -1, ValueError, "weight cannot be negative: -1.0"),
    ("another inf", float("inf"), ValueError, "use INFINITY for an infinite weight"),
    ("2**1024-2**970", _ROUNDS_TO_INF, ValueError, "use INFINITY for an infinite weight"),
)


class TestFromSearch:
    """The search's conversion, in C with the Python loop behind it, gives
    what the Python loop alone gives."""

    @given(_search_maps())
    @settings(max_examples=300)
    def test_in_range_maps_match_the_python_loop(self, case):
        raw, infinity = case
        named = {str(k): v for k, v in raw.items()}
        outcome = cross_check.conversion_outcome
        for distances in (named, raw):  # int node ids make the C call look closer
            expected = outcome(weights._from_search, dict(distances), infinity)
            assert outcome(cross_check.converted, dict(distances), infinity) == expected
        assert shortest_path._from_search_in_c(named, infinity) is cross_check.NATIVE
        assert shortest_path._from_search_in_c(raw, infinity) is (cross_check.NATIVE and not raw)

    @pytest.mark.parametrize("infinity", [math.inf, INFINITY], ids=["ieee", "sentinel"])
    @pytest.mark.parametrize(
        "value, error, message",
        [pytest.param(v, e, m, id=label) for label, v, e, m in _OUT_OF_DOMAIN],
    )
    def test_an_out_of_domain_value_leaves_the_map_to_the_loop(
        self, infinity, value, error, message
    ):
        distances = {"A": 0.0, "B": 2, "C": infinity, "Z": value}
        before = list(distances.items())
        assert shortest_path._from_search_in_c(distances, infinity) is False
        assert all(a is b and v is w for (a, v), (b, w) in zip(before, distances.items()))
        for convert in (cross_check.converted, weights._from_search):
            with pytest.raises(error) as caught:
                convert(dict(before), infinity)
            assert str(caught.value) == message

    @needs_c
    def test_negative_zero_is_folded_and_ints_become_their_image(self):
        distances = {"A": -0.0, "B": 2**53 + 1, "C": 0, "D": 2.5, "E": INFINITY}
        assert shortest_path._from_search_in_c(distances, INFINITY) is True
        assert [type(w) for w in distances.values()] == [ExtendedWeight] * 4 + [type(INFINITY)]
        assert distances["E"] is INFINITY
        assert math.copysign(1.0, distances["A"].value) == 1.0
        assert [distances[k].value for k in "BCD"] == [float(2**53), 0.0, 2.5]
        assert all(type(distances[k].value) is float for k in "ABCD")

    @needs_c
    def test_the_c_call_needs_a_type_with_its_own_value_slot(self):
        for finite_type in (float, object, "ExtendedWeight"):
            with pytest.raises(TypeError):
                _native._absinf.from_search(finite_type, INFINITY, {"A": 1.0}, math.inf)

    @needs_c
    def test_repeated_conversions_leak_nothing(self):
        template = {"A": 0.0, "B": -0.0, "C": 2.5, "D": 7, "E": math.inf, "F": math.inf}
        counted = (ExtendedWeight, INFINITY, math.inf, template["C"])

        def convert(times):
            for _ in range(times):
                shortest_path._from_search_in_c(dict(template), math.inf)

        convert(1_000)
        tracemalloc.start()
        try:
            convert(1_000)
            size = tracemalloc.get_traced_memory()[0]
            refcounts = list(map(sys.getrefcount, counted))
            convert(100_000)
            grown = tracemalloc.get_traced_memory()[0] - size
        finally:
            tracemalloc.stop()
        assert list(map(sys.getrefcount, counted)) == refcounts
        assert grown < 64 * 1024  # one leaked float per call would be 2.4 MB


class TestBinary64:
    def test_infinity_bit_pattern(self):
        bits = struct.unpack(">Q", struct.pack(">d", to_binary64(INFINITY)))[0]
        assert bits == 0x7FF0000000000000

    def test_finite_zero(self):
        assert to_binary64(finite(0)) == 0.0

    def test_exactly_representable(self):
        assert to_binary64(finite(2.5)) == 2.5

    def test_from_infinity(self):
        assert from_binary64(math.inf) is INFINITY

    def test_from_zero(self):
        assert from_binary64(0.0) == finite(0)

    def test_from_nan_rejected(self):
        with pytest.raises(ValueError):
            from_binary64(math.nan)

    def test_from_negative_rejected(self):
        for negative in (-1.0, -math.inf):
            with pytest.raises(ValueError, match="negative"):
                from_binary64(negative)

    def test_int_past_binary64_range_rounds_to_infinity(self):
        assert from_binary64(10**400) is INFINITY
        assert from_binary64(2**1024) is INFINITY
        assert from_binary64(2**1024 - 2**970) is INFINITY
        assert from_binary64(2**1024 - 2**970 - 1) == finite(_MAX)
        for negative in (-(2**1024 - 2**970 - 1), -(2**1024 - 2**970), -(10**400)):
            with pytest.raises(ValueError, match="negative"):
                from_binary64(negative)

    @given(extended_weights)
    def test_round_trip(self, w):
        assert from_binary64(to_binary64(w)) == w


class TestConstruction:
    @pytest.mark.parametrize(
        "bad, message",
        [pytest.param(value, message, id=label) for label, value, message in cross_check.MESSAGES],
    )
    def test_finite_rejects_out_of_domain(self, bad, message):
        with pytest.raises(ValueError) as caught:
            finite(bad)
        assert str(caught.value) == message

    def test_finite_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            finite("3")

    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_are_not_weights(self, flag):
        with pytest.raises(TypeError):
            finite(flag)
        with pytest.raises(TypeError):
            from_binary64(flag)

    def test_value_of_infinity_raises(self):
        with pytest.raises(ValueError):
            INFINITY.value

    def test_tags(self):
        assert INFINITY.is_infinite and not INFINITY.is_finite
        assert finite(1).is_finite and not finite(1).is_infinite

    def test_negative_zero_normalized(self):
        assert math.copysign(1.0, finite(-0.0).value) == 1.0


class TestNumberInterop:
    """The sentinel must sit in a distance table next to raw numbers."""

    def test_dominates_raw_numbers(self):
        assert INFINITY > 10**9
        assert 5 < INFINITY
        assert not INFINITY < 5
        assert not INFINITY > INFINITY

    def test_equals_ieee_infinity(self):
        assert INFINITY == float("inf")
        assert INFINITY >= float("inf")
        assert not INFINITY > float("inf")

    def test_absorbing_addition_with_numbers(self):
        assert INFINITY + 7 is INFINITY
        assert 7 + INFINITY is INFINITY
        assert INFINITY + (-5) is INFINITY
        assert INFINITY + 10**400 is INFINITY

    def test_finite_plus_number(self):
        assert finite(2) + 3 == finite(5)
        assert finite(2) + math.inf is INFINITY

    def test_finite_plus_negative_rejected(self):
        with pytest.raises(TypeError):
            finite(2) + (-3)

    def test_nan_comparisons_are_false(self):
        assert not INFINITY > math.nan
        assert not INFINITY < math.nan
        assert not finite(1) == math.nan

    def test_hash_matches_numeric_equality(self):
        assert hash(finite(2.0)) == hash(2.0)
        table = {finite(2.0): "here"}
        assert table[2.0] == "here"

    def test_min_over_mixed_values(self):
        assert min([INFINITY, 3.0, 7.0]) == 3.0
        assert min([INFINITY, INFINITY]) is INFINITY


_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
_NON_NUMBERS = ("3", None, (1.0,))
_TINY = 5e-324  # the smallest subnormal
_MAX = sys.float_info.max

# Left operands: the two kinds of weight.  Right operands: everything the
# operators accept or must refuse, edge values of each kind first.
_EDGE_WEIGHTS = (INFINITY, finite(0.0), finite(_TINY), finite(1.0), finite(_MAX))
_EDGE_OPERANDS = (
    (math.nan, 0.0, -0.0, math.inf, -math.inf, _TINY, -_TINY, 1.0, -1.0, _MAX)
    + (0, 1, -1, 2**53 + 1, 10**300)
    + (2**1024 - 2**970 - 1, 2**1024 - 2**970, 2**1024, 10**400)
    + (-(2**1024 - 2**970 - 1), -(2**1024 - 2**970), -(10**400))
    + (INFINITY, finite(0), finite(1.0), finite(_MAX))
    + _NON_NUMBERS
)
_operands = st.one_of(
    st.floats(allow_subnormal=True),
    st.integers(-(2**1100), 2**1100),
    extended_weights,
    st.sampled_from(_NON_NUMBERS),
)


def _expected_sum(w, v):
    """w + v by the contract; None when the sum must raise TypeError."""
    image = cross_check.binary64_image(v)
    if image is None or math.isnan(image):
        return None
    if w.is_infinite:
        return INFINITY
    if image < 0:
        return None
    total = w.value + image
    return INFINITY if math.isinf(total) else finite(total)


def _check_operators(w, v):
    """Every operator between weight w and operand v, in both orders."""
    a, b = cross_check.binary64_image(w), cross_check.binary64_image(v)
    for op in _COMPARISONS:
        for (x, y), (ix, iy) in (((w, v), (a, b)), ((v, w), (b, a))):
            if b is not None:
                assert op(x, y) is op(ix, iy), (op.__name__, x, y)
            elif op in (operator.eq, operator.ne):
                assert op(x, y) is (op is operator.ne), (op.__name__, x, y)
            else:
                with pytest.raises(TypeError):
                    op(x, y)
    expected = _expected_sum(w, v)
    for x, y in ((w, v), (v, w)):
        if expected is None:
            with pytest.raises(TypeError):
                x + y
        elif expected.is_infinite:
            assert x + y is INFINITY, (x, y)
        else:
            total = x + y
            assert type(total) is ExtendedWeight and total == expected, (x, y)


class TestOperatorSemantics:
    """Operators on weights agree with IEEE arithmetic on binary64 images.

    The sentinel's comparisons run in C (the ``_absinf`` slot when it is
    built, else thresholds through ``partial``), and its + takes a fast path
    on int and float addends; these tests pin every path of the comparisons
    loaded, in both operand orders, to the contract.  tests/test_native.py
    runs the same table on the other implementation.
    """

    def test_edge_operands(self):
        for w, v in itertools.product(_EDGE_WEIGHTS, _EDGE_OPERANDS):
            _check_operators(w, v)

    @given(extended_weights, _operands)
    @settings(max_examples=300)
    def test_matches_binary64(self, w, v):
        _check_operators(w, v)


def _pickled(protocol):
    return lambda w: pickle.loads(pickle.dumps(w, protocol))


def _python_calls(thunk):
    """thunk's result and the names of the Python frames it ran."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


class TestSingleton:
    """INFINITY is the one instance of a private subclass whose comparisons
    are C callables, so a search's comparisons with it run no Python frame."""

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy]
        + [pytest.param(_pickled(p), id=f"pickle{p}") for p in range(6)],
    )
    def test_copies_are_the_singleton(self, copier):
        assert copier(INFINITY) is INFINITY

    def test_comparisons_run_no_python_frame(self):
        huge = 10**400
        results, calls = _python_calls(
            lambda: (INFINITY < 1.0, INFINITY < INFINITY, 1.0 < INFINITY, INFINITY > huge)
        )
        assert calls == ["<lambda>"]
        assert results == (False, False, True, False)

    def test_addition_runs_one_method_and_c_equality_and_hash_none(self):
        # + answers int and float addends in __add__ alone.  The C base
        # answers == and hash with no frame; without it, ExtendedWeight's
        # methods read the +inf payload, and == converts only its operand.
        results, calls = _python_calls(lambda: (INFINITY + 1.0, INFINITY + 3))
        assert calls == ["<lambda>", "__add__", "__add__"]
        assert results == (INFINITY, INFINITY)
        in_c = weights.SENTINEL_COMPARISONS == "c"
        result, calls = _python_calls(lambda: hash(INFINITY))
        assert calls == ["<lambda>"] + ([] if in_c else ["__hash__"])
        assert result == hash(math.inf)
        result, calls = _python_calls(lambda: (INFINITY == INFINITY, INFINITY != INFINITY))
        assert calls == ["<lambda>"] + ([] if in_c else ["__eq__", "_as_binary64"] * 2)
        assert result == (True, False)

    def test_type_repr_and_hash(self):
        # With the C extension loaded, its type is the first base, so its
        # slots, not ExtendedWeight's methods, answer comparisons and hash.
        assert type(INFINITY) is not ExtendedWeight
        if weights.SENTINEL_COMPARISONS == "c":
            assert type(INFINITY).__bases__ == (_native._absinf.AbsInf, ExtendedWeight)
            assert weights.NATIVE_FAILURE is None
        else:
            assert type(INFINITY).__bases__ == (ExtendedWeight,)
            assert weights.NATIVE_FAILURE
        assert isinstance(INFINITY, ExtendedWeight) and not isinstance(INFINITY, float)
        assert repr(INFINITY) == "ExtendedWeight(inf)"
        assert hash(INFINITY) == hash(math.inf)
        with pytest.raises(TypeError):
            ExtendedWeight()

    def test_other_numbers_answer_through_their_reflected_methods(self):
        # The thresholds hand a Fraction or Decimal to its own comparison
        # with -inf or 2**1024 - 2**970.
        for v in (Fraction(1, 3), decimal.Decimal("0.5")):
            with decimal.localcontext():
                assert [op(INFINITY, v) for op in _COMPARISONS[:4]] == [False, False, True, True]
                assert v < INFINITY and not v > INFINITY
        assert not INFINITY > Fraction(2**1024 - 2**970)
        assert INFINITY >= Fraction(2**1024 - 2**970)

    def test_type_errors_name_the_threshold_type(self):
        with pytest.raises(TypeError, match="'float' and 'str'"):
            INFINITY < "3"
        with pytest.raises(TypeError, match="'int' and 'str'"):
            INFINITY > "3"
        with pytest.raises(TypeError, match="'int' and 'NoneType'"):
            None < INFINITY


class TestRendering:
    def test_infinity_renders_as_inf(self):
        assert format_weight(INFINITY) == "inf"

    def test_integral_payloads_render_minimally(self):
        assert format_weight(finite(2.0)) == "2"
        assert format_weight(finite(2.5)) == "2.5"

    @pytest.mark.parametrize(
        "text", ["inf", "INF", "Inf", "  inf  ", "infinity", "+Inf", "\tinf\n"]
    )
    def test_parse_inf_case_insensitive(self, text):
        assert parse_weight(text) is INFINITY

    def test_parse_decimal(self):
        assert parse_weight("2.5") == finite(2.5)
        assert parse_weight("7") == finite(7)

    @pytest.mark.parametrize("text", ["abc", "-3", "nan", ""])
    def test_parse_rejects_non_weights(self, text):
        with pytest.raises(ValueError):
            parse_weight(text)

    @given(extended_weights)
    @settings(max_examples=200)
    def test_round_trip(self, w):
        assert parse_weight(format_weight(w)) == w

    def test_str_and_repr(self):
        assert str(INFINITY) == "inf"
        assert repr(finite(2.5)) == "ExtendedWeight(2.5)"


def test_canonical_number():
    assert canonical_number(2.0) == 2 and isinstance(canonical_number(2.0), int)
    assert canonical_number(2.5) == 2.5
    assert isinstance(canonical_number(1e300), float)
