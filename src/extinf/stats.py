"""Descriptive statistics and the one-tailed Welch's t-test.

The test compares two independent sample sets without assuming equal
variances:

    t  = (mean_a - mean_b) / sqrt(var_a/n_a + var_b/n_b)
    df = (var_a/n_a + var_b/n_b)^2
         / ((var_a/n_a)^2/(n_a-1) + (var_b/n_b)^2/(n_b-1))

with the alternative hypothesis "mean of A is below mean of B", so the
one-tailed p-value is P(T_df <= t).  Below df = 5000 the t CDF is evaluated
through the regularized incomplete beta function:

    P(T_df <= t) = 1 - I_x(df/2, 1/2) / 2   with x = df/(df + t^2), t >= 0

and by symmetry for t < 0.  The incomplete beta uses the modified Lentz
continued fraction with convergence tolerance 1e-14 and a hard iteration cap.
From df = 5000 on, the tail is the normal tail at Hill's deviate, which
student_t_cdf documents.
"""

import math
from collections import namedtuple

__all__ = [
    "DegenerateSamplesError",
    "SampleSet",
    "WelchReport",
    "mean",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "variance",
    "welch_test",
]

_CF_TOLERANCE = 1e-14
_CF_MAX_ITERATIONS = 300
_LARGE_DF = 5e3  # student_t_cdf's switch from the incomplete beta to Hill's deviate
_TINY = 1e-300


class DegenerateSamplesError(ValueError):
    """Both sample sets have zero variance; the t statistic is undefined."""


class SampleSet(namedtuple("SampleSet", "values label")):
    """A labelled, non-empty collection of finite measurements (seconds).

    len() counts the measurements, not the record's two fields, so _make (and
    _replace, which calls it) builds through the constructor instead of
    namedtuple's field-count check.
    """

    __slots__ = ()

    def __new__(cls, values, label=""):
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("a sample set cannot be empty")
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"samples must be finite, got {v!r}")
        return super().__new__(cls, values, label)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __len__(self):
        return len(self.values)


def _values(samples) -> tuple:
    if isinstance(samples, SampleSet):
        return samples.values
    return SampleSet(tuple(samples)).values


def _power_mean(values, power: int, divisor: int) -> float:
    """fsum(v ** power for v in values) / divisor.

    When a term or a partial sum passes the largest binary64, the values are
    summed at 2**-e, the least power of two that keeps that sum in range, and
    the quotient is scaled back; that is exact but for values near the
    subnormal range, far below the sum's last bit.  A sum in range keeps its
    bits.  Raises OverflowError when the quotient itself is out of range.
    """
    try:
        return math.fsum([v**power for v in values]) / divisor
    except OverflowError:
        pass
    _, top = math.frexp(max(map(abs, values)))
    e = top - (1023 - len(values).bit_length()) // power
    total = math.fsum([math.ldexp(v, -e) ** power for v in values])
    return math.ldexp(total / divisor, e * power)


def mean(samples) -> float:
    """Arithmetic mean."""
    values = _values(samples)
    return _power_mean(values, 1, len(values))


def variance(samples) -> float:
    """Unbiased sample variance (divisor n-1); needs at least two samples.

    Raises ValueError when the variance passes the largest binary64.
    """
    values = _values(samples)
    if len(values) < 2:
        raise ValueError("variance needs at least two samples")
    m = mean(values)
    try:
        var = _power_mean([v - m for v in values], 2, len(values) - 1)
    except OverflowError:
        var = math.inf
    if var == math.inf:  # also a deviation that itself rounded to inf
        raise ValueError("the samples are too large for a binary64 variance")
    return var


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + coeff / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        # Converged when the odd step no longer moves h.
        if abs(delta - 1.0) < _CF_TOLERANCE:
            return h
    raise ArithmeticError("incomplete-beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("incomplete beta needs positive shape parameters")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Continued fraction converges fast on one side of the mean; use the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T_df <= t) for Student's t distribution with finite df > 0.

    Below _LARGE_DF the tail is the incomplete beta; from there on it is the
    normal tail at Hill's deviate (G. W. Hill, "Algorithm 395: Student's
    t-distribution", CACM 13(10), 1970), since the beta's terms cancel and
    its continued fraction stops converging as df grows.  Against
    scipy.stats.t the relative error of the smaller tail stays below 1e-10
    for df from 0.5 to 1e300 and |t| up to 37.
    """
    if not 0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df!r}")
    t = float(t)
    if math.isnan(t):
        raise ValueError("t must be a number")
    if t == 0.0:
        return 0.5
    t2 = t * t
    if df >= _LARGE_DF:
        a = df - 0.5
        b = 48.0 * a * a
        # The tail has underflowed by y = 1600, and the polynomial would
        # overflow to NaN for y near 1e154.
        y = min(a * math.log1p(t2 / df), 1600.0)
        p = (((-0.4 * y - 3.3) * y - 24.0) * y - 85.5) / (0.8 * y * y + 100.0 + b)
        z = ((p + y + 3.0) / b + 1.0) * math.sqrt(y)
        upper_tail = 0.5 * math.erfc(z / math.sqrt(2.0))
    elif t2 < df * 2.0**-26:
        # df / (df + t2) would round so near 1 that 1 minus it keeps under
        # half its bits, so pass the small complement: I_x(a,b) = 1 - I_{1-x}(b,a).
        upper_tail = 0.5 - 0.5 * regularized_incomplete_beta(0.5, df / 2.0, t2 / (df + t2))
    else:
        upper_tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t2))
    return upper_tail if t < 0 else 1.0 - upper_tail


class WelchReport(
    namedtuple(
        "WelchReport", "t df p_one_tailed mean_a mean_b var_a var_b n_a n_b alpha reject_null"
    )
):
    """Everything the test computed, plus the decision at the chosen level."""

    __slots__ = ()

    def to_jsonable(self) -> dict:
        return self._asdict()

    def verdict_line(self) -> str:
        decision = "reject H0" if self.reject_null else "fail to reject H0"
        return f"{decision} at alpha={self.alpha:g} (p={self.p_one_tailed:.6g})"


def _require_alpha(alpha) -> None:
    """Raise ValueError unless 0 < alpha < 1; run_comparison checks it too,
    before it times anything."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")


def welch_test(a, b, alpha: float = 0.01) -> WelchReport:
    """One-tailed Welch's t-test of "mean of A is below mean of B".

    Needs at least two samples per side and a nonzero variance somewhere;
    two zero-variance sides raise DegenerateSamplesError rather than
    pretending certainty.
    """
    _require_alpha(alpha)
    values_a = _values(a)
    values_b = _values(b)
    if len(values_a) < 2 or len(values_b) < 2:
        raise ValueError("welch_test needs at least two samples on each side")
    mean_a, mean_b = mean(values_a), mean(values_b)
    var_a, var_b = variance(values_a), variance(values_b)
    if var_a == 0.0 and var_b == 0.0:
        raise DegenerateSamplesError(
            "both sample sets have zero variance; check the measurement harness"
        )
    sq_a = var_a / len(values_a)
    sq_b = var_b / len(values_b)
    t = (mean_a - mean_b) / math.sqrt(sq_a + sq_b)
    # Scaled by a power of two near their sum, which is exact, so that their
    # squares can neither underflow nor overflow.
    _, exponent = math.frexp(sq_a + sq_b)
    s_a, s_b = math.ldexp(sq_a, -exponent), math.ldexp(sq_b, -exponent)
    df = (s_a + s_b) ** 2 / (s_a**2 / (len(values_a) - 1) + s_b**2 / (len(values_b) - 1))
    p = student_t_cdf(t, df)
    return WelchReport(
        t=t,
        df=df,
        p_one_tailed=p,
        mean_a=mean_a,
        mean_b=mean_b,
        var_a=var_a,
        var_b=var_b,
        n_a=len(values_a),
        n_b=len(values_b),
        alpha=alpha,
        reject_null=p < alpha,
    )
