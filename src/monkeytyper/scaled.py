"""Base-10 arithmetic for magnitudes far outside float range, on stdlib decimal.

A :class:`ScaledDecimal` wraps one positive :class:`~decimal.Decimal`.
Every operation runs in one module-level context: 36 significant digits and
the widest exponent range the :mod:`decimal` module allows, so the decimal
exponent stays an exact integer from success probabilities near 10^-2609 up
to attempt projections near 10^69, without the silent exponent saturation a
float would suffer. ``mantissa`` (in ``[1, 10)``) and ``exponent`` read a
value back as ``mantissa * 10**exponent``; ``to_string`` prints it as
``<mantissa>e<exponent>``.

Only the arithmetic this domain needs is provided: construction from ints
and floats, multiplication and division by a scaled value or a float,
integer powers, and ``log10`` out. This is deliberately not a general
bignum library.

``log10`` is the float log of the mantissa plus the exact exponent. It is
within one ulp of ``max(1, |log10|)`` of the correctly rounded value, and
its last digit follows the platform's libm, so the log10 series are
byte-stable per platform rather than across platforms. No result depends
on the caller's thread-local :mod:`decimal` context.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, Rounded

#: Working precision in significant decimal digits. The published tables carry
#: 3-4 significant figures; 36 digits makes our own rounding error irrelevant.
PRECISION = 36

_CTX = Context(prec=PRECISION, Emin=MIN_EMIN, Emax=MAX_EMAX)
_GUARDED = Context(prec=PRECISION + 8, Emin=MIN_EMIN, Emax=MAX_EMAX)  # eight guard digits


@dataclass(frozen=True, order=True)
class ScaledDecimal:
    """A positive finite decimal with an exact exponent.

    Instances are immutable and safe to share between threads.
    """

    value: Decimal

    def __post_init__(self):
        if not self.value.is_finite():
            raise ValueError(f"non-finite value {self.value!r}")
        if self.value <= 0:
            raise ValueError(f"value must be positive, got {self.value}")

    @property
    def exponent(self) -> int:
        """Position of the most significant digit."""
        return self.value.adjusted()

    @property
    def mantissa(self) -> Decimal:
        """The value scaled into ``[1, 10)``."""
        return _CTX.scaleb(self.value, -self.exponent)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "ScaledDecimal":
        """A (possibly huge) positive integer, rounded to the working precision."""
        return cls(_CTX.create_decimal(value))

    @classmethod
    def from_float(cls, value: float) -> "ScaledDecimal":
        """A positive finite float, converted exactly, then rounded."""
        return cls(_CTX.create_decimal_from_float(value))

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other) -> "ScaledDecimal":
        return ScaledDecimal(_CTX.multiply(self.value, _coerce(other).value))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScaledDecimal":
        return ScaledDecimal(_CTX.divide(self.value, _coerce(other).value))

    def log10(self) -> float:
        """Base-10 logarithm as a float, within one ulp of ``max(1, |log10|)``.

        The float log of the mantissa (which lies in ``[1, 10)``) plus the
        exact integer exponent.
        """
        return math.log10(self.mantissa) + self.exponent

    def __float__(self) -> float:
        # Overflows to inf / underflows to 0.0 outside float range, by design.
        return float(self.value)

    # -- formatting ---------------------------------------------------------

    def to_string(self, significant_digits: int = 4) -> str:
        """Serialize as ``<mantissa>e<exponent>``, e.g. ``4.404e-71``.

        The mantissa is padded to exactly ``significant_digits`` digits so
        output is byte-stable; fewer than one digit raises ``ValueError``.
        """
        # Round in a context of our own first: format() rounds in the
        # caller's thread-local context, and the rounded value formats exactly.
        rounded = _rounding_context(significant_digits).plus(self.value)
        return format(rounded, f".{significant_digits - 1}e").replace("+", "")

    def __str__(self) -> str:
        return self.to_string()


@functools.cache
def _rounding_context(digits: int) -> Context:
    return Context(prec=digits, rounding=_CTX.rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _coerce(value) -> ScaledDecimal:
    if isinstance(value, ScaledDecimal):
        return value
    if isinstance(value, float):
        return ScaledDecimal.from_float(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as ScaledDecimal")


def scaled_int_pow(base: int, exp: int) -> ScaledDecimal:
    """``base ** exp`` for integer ``base >= 1`` and any integer ``exp``; exponent exact.

    One decimal ``power``, rounded once, half-even, into the working
    precision. For ``exp >= 0`` the power is exact: its precision bounds the
    digit count and ``Inexact`` and ``Rounded`` trap, so a precision too
    short raises instead of rounding. For ``exp < 0`` it rounds from eight
    guard digits: correctly rounded at base 2..59, exp -1..-399, -1520, -4000.
    """
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    # base**exp, exp >= 0, has floor(exp * log10(base)) + 1 digits; one more
    # digit absorbs the float error of the log.
    ctx = _GUARDED if exp < 0 else Context(
        prec=int(exp * math.log10(base)) + 2, Emax=MAX_EMAX, traps=[Inexact, Rounded]
    )
    return ScaledDecimal(_CTX.plus(ctx.power(Decimal(base), exp)))
