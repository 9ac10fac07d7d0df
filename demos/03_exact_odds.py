"""Exact closed-form odds, far outside float range.

The probability that one uniform 41-character candidate over 52 symbols
equals the target phrase is (1/52)^41, around 1e-71; for the full
1,520-character soliloquy it is (1/52)^1520, around 1e-2609. Scaled
decimals (mantissa in [1,10) plus an exact integer exponent) carry these
without overflow or exponent saturation.
"""

from monkeytyper import (
    ScaledDecimal,
    expected_attempts,
    success_probability,
)

for n in (1, 5, 41, 1520):
    p = success_probability(52, n)
    e = expected_attempts(52, n)
    print(f"n={n:>4}: success probability {p.to_string(4):>14}  expected attempts {e}")

# The two directions are exact reciprocals: the log10 values cancel.
p, e = success_probability(52, 41), expected_attempts(52, 41)
print(f"\nlog10 P + log10 E = {p.log10() + e.log10():.2e}")

# A float would have given up long ago:
print(f"float(P_1520) underflows to {float(success_probability(52, 1520))}")

# Arithmetic stays in scaled form all the way through.
product = p * e
assert product == ScaledDecimal.from_int(1)
print(f"P * E = {product}")
