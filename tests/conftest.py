"""Shared constants and comparison helpers for the test suite."""

from __future__ import annotations

from monkeytyper import Alphabet, ScaledDecimal

# Published per-prefix averages (ten trials each) that drive the projection
# pipeline; identical to the bundled published_averages.json fixture.
ATTEMPTS_BASE = [60, 3101, 159174, 8096722, 345380940]
TIMES_BASE = [0.0001, 0.006, 0.36, 22.355, 1097.5]

PHRASE = "To be, or not to be, that is the Question"


def decode(alphabet: Alphabet, codes) -> str:
    """The text whose symbol indices are ``codes``: the inverse of ``Alphabet.encode``."""
    return "".join(alphabet.symbols[int(i)] for i in codes)


def rel_err(a: ScaledDecimal, b: ScaledDecimal) -> float:
    """|a/b - 1| for nearby positive scaled decimals."""
    q = a / b
    if abs(q.exponent) > 2:  # wildly different magnitudes: report huge error
        return float("inf")
    return abs(float(q.mantissa.scaleb(q.exponent)) - 1.0)


def rel_err_float(s: ScaledDecimal, expected: float) -> float:
    """|s/expected - 1| against a float reference."""
    return rel_err(s, ScaledDecimal.from_float(expected))
