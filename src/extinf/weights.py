"""Extended shortest-path weights: finite non-negative costs plus a sentinel infinity.

The sentinel ``INFINITY`` compares greater than every finite cost and absorbs
addition, which is everything a shortest-path search asks of its "unreached"
marker.  Finite costs are ordinary binary64 values, so the sentinel differs
from IEEE +inf only in representation, never in the answers a search computes.
The ordering is written once, as IEEE arithmetic on binary64 images: ``compare``
and every comparison operator compare the operands' ``to_binary64`` images,
and ``add`` maps the images' sum back through ``from_binary64``, so a finite
sum that overflows saturates to the sentinel.

ExtendedWeight instances also interoperate with plain numbers in comparisons
and ``+``, so the sentinel can sit in a distance table next to raw floats.
A search loop calls ``<`` and ``>`` against a plain float or ``INFINITY``
and the sentinel's ``+`` with a number tens of thousands of times per query,
so those operators try these exact operand types before the general path's
coercion and type dispatch; each fast branch returns what the general path
returns, NaN operands included.
"""

import enum
import math

__all__ = [
    "Ordering",
    "ExtendedWeight",
    "INFINITY",
    "finite",
    "compare",
    "add",
    "to_binary64",
    "from_binary64",
    "format_weight",
    "parse_weight",
    "canonical_number",
]

# Largest integer range where binary64 is exact; beyond it we keep floats as-is.
_MAX_EXACT_INT = 2**53


class Ordering(enum.Enum):
    """Result of a three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def _float(x) -> float:
    """float(x) for an int or float; an int past binary64 range rounds to
    +-inf, as IEEE round-to-nearest does, instead of raising OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _as_binary64(operand):
    """The binary64 image of a comparison operand, or None if not numeric."""
    if isinstance(operand, ExtendedWeight):
        return math.inf if operand._value is None else operand._value
    if isinstance(operand, (int, float)):
        return _float(operand)
    return None


class ExtendedWeight:
    """A path cost: ``finite(v)`` with ``v >= 0``, or the ``INFINITY`` sentinel.

    Values are immutable and hashable.  Comparisons and ``+`` accept other
    ExtendedWeight values as well as plain numbers, interpreted by their
    binary64 value.  The sentinel absorbs any numeric addend; finite weights
    only accept non-negative addends, keeping results inside the domain.
    """

    __slots__ = ("_value",)

    def __init__(self, value=None):
        """Build ``INFINITY`` (no argument) or a finite weight (prefer ``finite``)."""
        if value is None:
            self._value = None
            return
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"weight must be a real number, got {type(value).__name__}")
            value = _float(value)
        if math.isnan(value):
            raise ValueError("weight cannot be NaN")
        if value < 0:
            raise ValueError(f"weight cannot be negative: {value!r}")
        if math.isinf(value):
            raise ValueError("use INFINITY for an infinite weight")
        self._value = value + 0.0  # folds -0.0 into +0.0

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> float:
        """The finite payload; raises on the infinity sentinel."""
        if self._value is None:
            raise ValueError("infinity carries no finite value")
        return self._value

    def __repr__(self):
        return f"ExtendedWeight({format_weight(self)})"

    def __str__(self):
        return format_weight(self)

    # IEEE comparison of binary64 images already makes NaN compare false and
    # the sentinel (+inf) dominate.  The fast branches of __lt__, __gt__ and
    # __add__ are float expressions that agree with it, NaN included.
    def __lt__(self, other):
        if type(other) is float:
            return self._value is not None and self._value < other
        if other is INFINITY:
            return self._value is not None
        o = _as_binary64(other)
        return NotImplemented if o is None else _as_binary64(self) < o

    def __le__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else _as_binary64(self) <= o

    def __gt__(self, other):
        if type(other) is float:
            return other < math.inf if self._value is None else self._value > other
        if other is INFINITY:
            return False
        o = _as_binary64(other)
        return NotImplemented if o is None else _as_binary64(self) > o

    def __ge__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else _as_binary64(self) >= o

    def __eq__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else _as_binary64(self) == o

    def __hash__(self):
        return hash(_as_binary64(self))

    def __add__(self, other):
        if self._value is None and (
            type(other) is int or (type(other) is float and other == other)
        ):
            return INFINITY
        o = _as_binary64(other)
        if o is None or math.isnan(o):
            return NotImplemented
        if self._value is None:
            return INFINITY
        if o < 0:
            return NotImplemented
        return from_binary64(self._value + o)

    __radd__ = __add__


INFINITY = ExtendedWeight()


def finite(value) -> ExtendedWeight:
    """A finite weight; rejects NaN, infinities, and negative values."""
    return ExtendedWeight(value)


def compare(a: ExtendedWeight, b: ExtendedWeight) -> Ordering:
    """Total order: the sentinel dominates every finite weight and equals itself."""
    if not isinstance(a, ExtendedWeight) or not isinstance(b, ExtendedWeight):
        raise TypeError("compare expects two ExtendedWeight values")
    x, y = _as_binary64(a), _as_binary64(b)
    return Ordering((x > y) - (x < y))


def add(a: ExtendedWeight, b: ExtendedWeight) -> ExtendedWeight:
    """Sum of two weights; the sentinel absorbs, finite overflow saturates to it."""
    if not isinstance(a, ExtendedWeight) or not isinstance(b, ExtendedWeight):
        raise TypeError("add expects two ExtendedWeight values")
    return from_binary64(_as_binary64(a) + _as_binary64(b))


def to_binary64(a: ExtendedWeight) -> float:
    """IEEE-754 binary64 image: +inf for the sentinel, the payload otherwise."""
    if not isinstance(a, ExtendedWeight):
        raise TypeError("to_binary64 expects an ExtendedWeight")
    return math.inf if a._value is None else a._value


def from_binary64(x) -> ExtendedWeight:
    """Inverse of to_binary64 on non-negative, non-NaN input."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"expected a real number, got {type(x).__name__}")
        x = _float(x)
    return INFINITY if x == math.inf else ExtendedWeight(x)


def canonical_number(x: float):
    """Minimal JSON-friendly form: an int when exactly integral, else the float."""
    x = float(x)
    if x.is_integer() and abs(x) < _MAX_EXACT_INT:
        return int(x)
    return x


def format_weight(w: ExtendedWeight) -> str:
    """Textual form: ``inf`` for the sentinel, a minimal decimal otherwise."""
    if not isinstance(w, ExtendedWeight):
        raise TypeError("format_weight expects an ExtendedWeight")
    if w._value is None:
        return "inf"
    return str(canonical_number(w._value))


def parse_weight(text: str) -> ExtendedWeight:
    """Parse ``format_weight`` output; ``inf`` is matched case-insensitively."""
    t = text.strip()
    if t.lower() == "inf":
        return INFINITY
    try:
        x = float(t)
    except ValueError:
        raise ValueError(f"not a weight: {text!r}") from None
    return from_binary64(x)
