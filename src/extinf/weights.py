"""Extended shortest-path weights: finite non-negative costs plus a sentinel infinity.

The sentinel ``INFINITY`` compares greater than every finite cost and absorbs
addition, which is everything a shortest-path search asks of its "unreached"
marker.  Finite costs are ordinary binary64 values, so the sentinel differs
from IEEE +inf only in representation, never in the answers a search computes.
The order and the sum are each written once, as IEEE arithmetic on binary64
images in the operators: ``ExtendedWeight``'s, and for the sentinel its C
base in ``_absinf.c`` (or the fallback on ``_Infinity``); a finite sum that
overflows saturates to the sentinel.  ``compare`` and ``add`` are those
operators behind a type check.

ExtendedWeight instances also compare with and add to plain numbers, so the
sentinel can sit in a distance table next to raw floats.  A search compares
``INFINITY`` tens of thousands of times per query, so the singleton's
comparisons run without a Python frame (see ``_Infinity``); an operand that
is not an int or a float answers through its own reflected method, and a
non-number raises the ``TypeError`` that ``float`` or ``int`` gives.
``SENTINEL_COMPARISONS`` says which implementation is loaded, ``"c"`` or
``"python"``, and ``NATIVE_FAILURE`` why the C one is not, when it is not.
"""

import enum
import math
import operator
from functools import partial

from ._native import FAILURE as NATIVE_FAILURE, _absinf

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
# Smallest int whose binary64 image is +inf: the midpoint of the largest
# finite double, 2**1024 - 2**971, and 2**1024, since ties round to even (up).
_ROUNDS_TO_INF = 2**1024 - 2**970
_INF = math.inf


class Ordering(enum.Enum):
    """Result of a three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def _float(x) -> float:
    """float(x) for an int or float; an int past binary64 range rounds to
    +-inf, as IEEE round-to-nearest does, instead of raising OverflowError.
    The range test comes first because a finite weight compared with
    ``INFINITY`` gets the int threshold here, and raising costs more than
    the rest of the comparison."""
    if isinstance(x, float) or -_ROUNDS_TO_INF < x < _ROUNDS_TO_INF:
        return float(x)
    return math.inf if x > 0 else -math.inf


def _as_binary64(operand):
    """The binary64 image of a comparison operand, or None if not numeric."""
    if isinstance(operand, ExtendedWeight):
        return operand._value
    if isinstance(operand, (int, float)):
        return _float(operand)
    return None


class ExtendedWeight:
    """A finite path cost, ``finite(v)`` with ``v >= 0``.

    ``INFINITY``, the one instance of a private subclass, is the only infinite
    weight.  Values are immutable and hashable.  Comparisons and ``+`` accept
    other ExtendedWeight values as well as plain numbers, interpreted by their
    binary64 value.  A finite weight only accepts non-negative addends, keeping
    results inside the domain; the sentinel absorbs any numeric addend.
    """

    __slots__ = ("_value",)
    is_infinite = False
    is_finite = True

    def __init__(self, value):
        """Build a finite weight (prefer ``finite``)."""
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"weight must be a real number, got {type(value).__name__}")
            value = _float(value)
        if not 0.0 <= value < _INF:  # also false for NaN; the tests below word it
            if math.isnan(value):
                raise ValueError("weight cannot be NaN")
            if value < 0:
                raise ValueError(f"weight cannot be negative: {value!r}")
            raise ValueError("use INFINITY for an infinite weight")
        self._value = value + 0.0  # folds -0.0 into +0.0

    @property
    def value(self) -> float:
        """The finite payload; ``INFINITY.value`` raises ValueError."""
        return self._value

    def __repr__(self):
        return f"ExtendedWeight({format_weight(self)})"

    def __str__(self):
        return format_weight(self)

    # IEEE comparison of binary64 images, so NaN compares false.
    def __lt__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else self._value < o

    def __le__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else self._value <= o

    def __gt__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else self._value > o

    def __ge__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else self._value >= o

    def __eq__(self, other):
        o = _as_binary64(other)
        return NotImplemented if o is None else self._value == o

    def __hash__(self):
        return hash(self._value)

    def __add__(self, other):
        o = _as_binary64(other)
        if o is None or not o >= 0:  # NaN fails ``>= 0`` too
            return NotImplemented
        return from_binary64(self._value + o)

    __radd__ = __add__


SENTINEL_COMPARISONS = "python" if _absinf is None else "c"
_INFINITY_BASES = (ExtendedWeight,) if _absinf is None else (_absinf.AbsInf, ExtendedWeight)


class _Infinity(*_INFINITY_BASES):
    """Type of the ``INFINITY`` singleton, whose ordering runs in C.

    Its payload is ``+inf``, so the module functions treat it like any
    weight.  With the C extension built (``_absinf.c``), its first base
    supplies every comparison and the hash, which CPython then calls with no
    Python-level lookup.  Without it, ``==`` and ``hash`` are inherited, and
    ``<`` and ``>=`` compare the operand with ``-inf``, ``<=`` and ``>`` with
    ``_ROUNDS_TO_INF``, through ``partial``s that run no Python frame either.
    Python compares ints and floats exactly, so ``INFINITY > x`` is "x's
    binary64 image is below +inf" for every int and float, NaN and huge ints
    included.  An ExtendedWeight operand makes the float or int return
    NotImplemented and answers through its own reflected method, so the
    fallback's ``INFINITY < INFINITY`` runs ``-inf > -inf``; the C base
    answers it at once.
    """

    __slots__ = ()
    is_infinite = True
    is_finite = False

    def __init__(self):
        self._value = math.inf

    @property
    def value(self) -> float:
        raise ValueError("infinity carries no finite value")

    if _absinf is None:
        # staticmethod keeps each partial unbound: called with the operand only.
        # Newer CPythons warn that a bare partial in a class will bind like a method.
        __lt__ = staticmethod(partial(operator.gt, -math.inf))
        __le__ = staticmethod(partial(operator.le, _ROUNDS_TO_INF))
        __gt__ = staticmethod(partial(operator.gt, _ROUNDS_TO_INF))
        __ge__ = staticmethod(partial(operator.le, -math.inf))

    def __add__(self, other):
        # Absorbs any numeric addend; NaN and non-numbers are refused.
        if type(other) is int or (type(other) is float and other == other):
            return self
        o = _as_binary64(other)
        return NotImplemented if o is None or math.isnan(o) else self

    __radd__ = __add__

    def __reduce__(self):
        # copy and pickle hand back the module-level singleton.
        return "INFINITY"


INFINITY = _Infinity()


def finite(value) -> ExtendedWeight:
    """A finite weight; rejects NaN, infinities, and negative values."""
    return ExtendedWeight(value)


def compare(a: ExtendedWeight, b: ExtendedWeight) -> Ordering:
    """Total order: the sentinel dominates every finite weight and equals itself."""
    if not isinstance(a, ExtendedWeight) or not isinstance(b, ExtendedWeight):
        raise TypeError("compare expects two ExtendedWeight values")
    return Ordering((a > b) - (a < b))


def add(a: ExtendedWeight, b: ExtendedWeight) -> ExtendedWeight:
    """Sum of two weights; the sentinel absorbs, finite overflow saturates to it."""
    if not isinstance(a, ExtendedWeight) or not isinstance(b, ExtendedWeight):
        raise TypeError("add expects two ExtendedWeight values")
    return a + b


def to_binary64(a: ExtendedWeight) -> float:
    """IEEE-754 binary64 image: +inf for the sentinel, the payload otherwise."""
    if not isinstance(a, ExtendedWeight):
        raise TypeError("to_binary64 expects an ExtendedWeight")
    return a._value


def from_binary64(x) -> ExtendedWeight:
    """Inverse of to_binary64 on non-negative, non-NaN input."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"expected a real number, got {type(x).__name__}")
        x = _float(x)
    return INFINITY if x == math.inf else ExtendedWeight(x)


def _from_search(distances: dict, infinity) -> dict:
    """Convert a search's fresh distance map to weights in place; return it.

    A value that is ``infinity`` itself becomes ``INFINITY``.  A plain float
    in ``[0, inf)`` passes every check of ``__init__``, so its weight is
    allocated and filled here without that call; any other value goes
    through ``ExtendedWeight``, which raises for one outside the domain.
    This loop is the conversion's rule and its error path.  ``dijkstra``
    first hands the map to the extension's ``from_search``, which converts it
    the same way in one C call (exact ints and floats in range, exact str
    nodes), or says False and leaves it untouched, and then this loop runs.
    """
    new = object.__new__
    for node, value in distances.items():
        if value is infinity:
            distances[node] = INFINITY
        elif type(value) is float and 0.0 <= value < _INF:
            weight = new(ExtendedWeight)
            weight._value = value + 0.0  # folds -0.0 into +0.0, as __init__ does
            distances[node] = weight
        else:
            distances[node] = ExtendedWeight(value)
    return distances


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
    return str(canonical_number(w._value))


def parse_weight(text: str) -> ExtendedWeight:
    """Parse ``format_weight`` output as ``float`` reads it, so ``inf`` and
    ``infinity`` match in any case and surrounding whitespace is ignored."""
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"not a weight: {text!r}") from None
    return from_binary64(x)
