"""Welch's t-test machinery against hand arithmetic and quadrature oracles."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from extinf.stats import (
    DegenerateSamplesError,
    SampleSet,
    mean,
    regularized_incomplete_beta,
    student_t_cdf,
    variance,
    welch_test,
)
from helpers import quadrature_t_cdf

# width=32 keeps spreads above the range where squared variances underflow,
# which is far outside anything a timing harness can produce anyway.
samples_lists = st.lists(
    st.floats(
        min_value=-1e6,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
        width=32,
    ),
    min_size=2,
    max_size=12,
)


class TestDescriptive:
    def test_hand_case(self):
        assert mean([1, 2, 3, 4]) == 2.5
        assert variance([1, 2, 3, 4]) == pytest.approx(5 / 3, abs=1e-15)

    def test_constant_samples(self):
        assert mean([4.2, 4.2, 4.2]) == 4.2
        assert variance([4.2, 4.2, 4.2]) == 0.0

    def test_two_timing_means(self):
        assert mean([0.1874, 0.1647]) == pytest.approx(0.17605, abs=1e-15)

    def test_variance_needs_two(self):
        with pytest.raises(ValueError, match="at least two"):
            variance([1.0])

    def test_mean_needs_one(self):
        with pytest.raises(ValueError):
            mean([])

    def test_sample_set_validation(self):
        with pytest.raises(ValueError):
            SampleSet(())
        with pytest.raises(ValueError, match="finite"):
            SampleSet((1.0, math.inf))
        assert len(SampleSet((1, 2), label="x")) == 2


class TestStudentTCdf:
    def test_symmetry_point(self):
        assert student_t_cdf(0.0, 3.7) == 0.5

    def test_hand_case_against_quadrature(self):
        # Frozen from the quadrature oracle, which integrates the density.
        oracle_p = 0.1576667981006149
        assert quadrature_t_cdf(-1.0954451150103321, 6.0) == pytest.approx(
            oracle_p, abs=1e-13
        )
        assert student_t_cdf(-1.0954451150103321, 6.0) == pytest.approx(
            oracle_p, abs=1e-12
        )

    def test_far_tail(self):
        assert student_t_cdf(50.0, 6.0) > 1 - 1e-8
        assert student_t_cdf(50.0, 6.0) == pytest.approx(
            quadrature_t_cdf(50.0, 6.0), abs=1e-12
        )

    def test_infinite_t(self):
        assert student_t_cdf(math.inf, 4.0) == 1.0
        assert student_t_cdf(-math.inf, 4.0) == 0.0

    def test_bad_df(self):
        for df in (0, -1, math.nan):
            with pytest.raises(ValueError):
                student_t_cdf(1.0, df)

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=0.3, max_value=500, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_antisymmetry(self, t, df):
        assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        st.floats(min_value=0.3, max_value=300, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_monotone_in_t(self, t1, t2, df):
        lo, hi = sorted((t1, t2))
        assert student_t_cdf(lo, df) <= student_t_cdf(hi, df) + 1e-15

    def test_spot_values_against_scipy_betainc(self):
        # Independent special-function route for the same quantity.
        for t, df in [(-2.3, 1.5), (0.7, 11.0), (4.0, 2.0), (-0.01, 40.0), (8.0, 0.5)]:
            x = df / (df + t * t)
            tail = 0.5 * special.betainc(df / 2, 0.5, x)
            expected = tail if t < 0 else 1 - tail
            assert student_t_cdf(t, df) == pytest.approx(expected, abs=1e-13)


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity.
        assert regularized_incomplete_beta(1.0, 1.0, 0.25) == pytest.approx(
            0.25, abs=1e-14
        )


class TestWelch:
    def test_identical_samples_give_even_odds(self):
        report = welch_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report.t == 0.0
        assert report.p_one_tailed == 0.5
        assert not report.reject_null

    def test_hand_derived_case(self):
        report = welch_test([1, 2, 3, 4], [2, 3, 4, 5], alpha=0.01)
        assert report.t == pytest.approx(-math.sqrt(6 / 5), abs=1e-12)
        assert report.df == pytest.approx(6.0, abs=1e-12)
        assert report.p_one_tailed == pytest.approx(0.1576667981006149, abs=1e-12)
        assert report.n_a == report.n_b == 4
        assert not report.reject_null

    def test_reject_decision_tracks_alpha(self):
        a = [1.0, 1.1, 0.9, 1.05]
        b = [5.0, 5.2, 4.9, 5.1]
        report = welch_test(a, b, alpha=0.01)
        assert report.reject_null == (report.p_one_tailed < 0.01)
        assert report.reject_null

    def test_degenerate_pairs_error(self):
        with pytest.raises(DegenerateSamplesError):
            welch_test([2.0, 2.0], [3.0, 3.0])

    def test_one_sided_variance_is_fine(self):
        report = welch_test([2.0, 2.0], [3.0, 3.1])
        assert 0.0 <= report.p_one_tailed <= 1.0

    def test_needs_two_per_side(self):
        with pytest.raises(ValueError, match="two samples"):
            welch_test([1.0], [2.0, 3.0])

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            welch_test([1, 2], [3, 4], alpha=1.5)

    def test_accepts_sample_sets(self):
        report = welch_test(SampleSet((1, 2), "a"), SampleSet((2, 4), "b"))
        assert report.n_a == 2

    @given(samples_lists, samples_lists)
    @settings(max_examples=200)
    def test_swap_antisymmetry(self, a, b):
        assume(len(set(a)) > 1 or len(set(b)) > 1)
        forward = welch_test(a, b)
        backward = welch_test(b, a)
        assert forward.t == pytest.approx(-backward.t, abs=1e-9)
        assert forward.df == pytest.approx(backward.df, rel=1e-12)
        assert forward.p_one_tailed + backward.p_one_tailed == pytest.approx(
            1.0, abs=1e-12
        )

    @given(
        samples_lists,
        samples_lists,
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_scale_equivariance(self, a, b, k):
        assume(len(set(a)) > 1 or len(set(b)) > 1)
        base = welch_test(a, b)
        scaled = welch_test([k * v for v in a], [k * v for v in b])
        assert scaled.t == pytest.approx(base.t, abs=1e-12, rel=1e-9)
        assert scaled.df == pytest.approx(base.df, rel=1e-9)
        assert scaled.p_one_tailed == pytest.approx(base.p_one_tailed, abs=1e-12, rel=1e-9)


class TestReport:
    def test_jsonable_fields(self):
        report = welch_test([1, 2, 3], [2, 3, 4], alpha=0.05)
        doc = report.to_jsonable()
        assert set(doc) == {
            "t",
            "df",
            "p_one_tailed",
            "mean_a",
            "mean_b",
            "var_a",
            "var_b",
            "n_a",
            "n_b",
            "alpha",
            "reject_null",
        }

    def test_verdict_lines(self):
        rejecting = welch_test([0.1, 0.11, 0.09], [9.0, 9.1, 8.9], alpha=0.01)
        assert rejecting.verdict_line().startswith("reject H0 at alpha=0.01 (p=")
        holding = welch_test([1, 2, 3], [1, 2, 4], alpha=0.01)
        assert holding.verdict_line().startswith("fail to reject H0 at alpha=0.01 (p=")
