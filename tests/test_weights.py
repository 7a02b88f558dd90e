"""Extended-weight domain: ordering, addition, binary64 mapping, rendering."""

import copy
import decimal
import itertools
import math
import operator
import pickle
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extended_weights, finite_payloads
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
        assert from_binary64(2**1024 - 2**970) is INFINITY
        assert from_binary64(2**1024 - 2**970 - 1) == finite(_MAX)
        with pytest.raises(ValueError):
            from_binary64(-(10**400))

    @given(extended_weights)
    def test_round_trip(self, w):
        assert from_binary64(to_binary64(w)) == w


class TestConstruction:
    @pytest.mark.parametrize(
        "bad",
        [-1, -0.5, math.nan, math.inf]
        + [pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
    )
    def test_finite_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            finite(bad)

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
    + (2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400, -(10**400))
    + (INFINITY, finite(0), finite(1.0), finite(_MAX))
    + _NON_NUMBERS
)
_operands = st.one_of(
    st.floats(allow_subnormal=True),
    st.integers(-(2**1100), 2**1100),
    extended_weights,
    st.sampled_from(_NON_NUMBERS),
)


def _image(x):
    """Binary64 image of an operand, None for a non-number."""
    if isinstance(x, ExtendedWeight):
        return to_binary64(x)
    if isinstance(x, (int, float)):
        try:
            return float(x)
        except OverflowError:  # an int past binary64 range rounds to +-inf
            return math.inf if x > 0 else -math.inf
    return None


def _expected_sum(w, v):
    """w + v by the contract; None when the sum must raise TypeError."""
    image = _image(v)
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
    a, b = _image(w), _image(v)
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

    The sentinel's ordering compares the operand with a threshold in C, and its
    + takes a fast path on int and float addends; these tests pin every path,
    in both operand orders, to the contract.
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
    """INFINITY is the one instance of a private subclass whose <, <=, > and >=
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

    def test_addition_hash_and_equality_run_one_method(self):
        # The Python operators read the +inf payload with no branch on the
        # kind of weight: + answers int and float addends in __add__ alone,
        # and == converts only its operand.
        results, calls = _python_calls(lambda: (INFINITY + 1.0, INFINITY + 3))
        assert calls == ["<lambda>", "__add__", "__add__"]
        assert results == (INFINITY, INFINITY)
        result, calls = _python_calls(lambda: hash(INFINITY))
        assert calls == ["<lambda>", "__hash__"] and result == hash(math.inf)
        result, calls = _python_calls(lambda: INFINITY == INFINITY)
        assert calls == ["<lambda>", "__eq__", "_as_binary64"] and result is True

    def test_type_repr_and_hash(self):
        assert type(INFINITY) is not ExtendedWeight
        assert type(INFINITY).__bases__ == (ExtendedWeight,)
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
