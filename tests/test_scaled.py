import math
import sys
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_DOWN,
    ROUND_FLOOR,
    Context,
    Decimal,
    Inexact,
    localcontext,
)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_err
from monkeytyper import (
    ScaledDecimal,
    scaled_int_pow,
    success_probability,
)
from monkeytyper.scaled import PRECISION

mantissas = st.floats(min_value=1.0, max_value=9.999999, allow_nan=False)
exponents = st.integers(min_value=-3000, max_value=3000)


def build(mantissa: float, exponent: int) -> ScaledDecimal:
    return ScaledDecimal(Decimal(f"{mantissa!r}e{exponent}"))


@st.composite
def wide_values(draw) -> ScaledDecimal:
    """1 to 36 significant digits, decimal exponent in [-200000, 200000]."""
    digits = draw(st.integers(1, 36))
    coefficient = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    exponent = draw(st.integers(-200_000, 200_000))
    return ScaledDecimal(Decimal(f"{coefficient}e{exponent - digits + 1}"))


class TestLog10:
    @given(x=wide_values())
    @settings(max_examples=500)
    def test_within_one_ulp_of_a_sixty_digit_reference(self, x):
        # covers 52^+-100000 and 4.7e-2609; the golden log10 CSVs rely on it
        ref = float(Context(prec=60, Emin=MIN_EMIN, Emax=MAX_EMAX).log10(x.value))
        assert abs(x.log10() - ref) <= math.ulp(max(1.0, abs(ref)))


class TestCallerContext:
    """Results do not depend on the caller's thread-local decimal context."""

    @pytest.fixture(autouse=True)
    def hostile_context(self):
        with localcontext() as ctx:
            ctx.prec = 6
            ctx.rounding = ROUND_DOWN
            yield

    def test_log10_keeps_full_precision(self):
        assert success_probability(52, 41).log10() == -70.35613708902676

    def test_to_string_rounds_half_even(self):
        assert success_probability(52, 1520).to_string() == "4.731e-2609"


class TestMul:
    def test_identity(self):
        x = build(7.25, -40)
        one = ScaledDecimal.from_int(1)
        assert one * x == x

    def test_exact_carry(self):
        product = build(5.0, 3) * build(4.0, 2)
        assert product.mantissa == 2 and product.exponent == 6

    def test_long_multiplication_oracle(self):
        # 345,380,000 x 286,360,000 done in exact integers
        product = ScaledDecimal.from_float(3.4538e8) * ScaledDecimal.from_float(2.8636e8)
        exact = 345_380_000 * 286_360_000
        assert product == ScaledDecimal.from_int(exact)
        assert product.to_string(4) == "9.890e16"

    @given(a=mantissas, ae=exponents, b=mantissas, be=exponents)
    def test_commutative(self, a, ae, b, be):
        x, y = build(a, ae), build(b, be)
        assert rel_err(x * y, y * x) <= 1e-12

    @given(
        a=mantissas, ae=exponents, b=mantissas, be=exponents, c=mantissas, ce=exponents
    )
    def test_associative(self, a, ae, b, be, c, ce):
        x, y, z = build(a, ae), build(b, be), build(c, ce)
        assert rel_err((x * y) * z, x * (y * z)) <= 1e-12


class TestIntPow:
    def test_zero_exponent(self):
        x = scaled_int_pow(53, 0)
        assert x.mantissa == 1 and x.exponent == 0

    def test_small_power_exact(self):
        x = scaled_int_pow(53, 5)
        assert 53**5 == 418_195_493
        assert x.mantissa == Decimal("4.18195493") and x.exponent == 8

    def test_huge_power_digit_count(self):
        x = scaled_int_pow(52, 1520)
        assert x.exponent == 2608
        assert abs(float(x.mantissa) - 2.11) < 0.01

    @pytest.mark.parametrize("base,exp", [(0, 3), (-2, 1)])
    def test_rejects_bad_arguments(self, base, exp):
        with pytest.raises(ValueError):
            scaled_int_pow(base, exp)

    def test_rejects_base_zero_at_a_negative_exponent(self):
        # decimal gives 0^-3 as Infinity, so only the base check names the fault
        with pytest.raises(ValueError, match="base must be >= 1, got 0"):
            scaled_int_pow(0, -3)

    @given(base=st.integers(2, 100), exp=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_exponent_is_exact_digit_count(self, base, exp):
        sys.set_int_max_str_digits(10_000)
        assert scaled_int_pow(base, exp).exponent == len(str(base**exp)) - 1


#: The working precision and exponent range, rounding half-even.
WORKING = Context(prec=PRECISION, Emin=MIN_EMIN, Emax=MAX_EMAX)


def integer_reference(base: int, exp: int) -> ScaledDecimal:
    """The exact Python integer power, rounded once into the working precision."""
    return ScaledDecimal.from_int(base**exp)


def reciprocal_reference(base: int, exp: int) -> ScaledDecimal:
    """1 / base**exp from the exact integer, rounded once into the working precision."""
    return ScaledDecimal(WORKING.divide(1, Decimal(base**exp)))


class TestIntPowMatchesIntegerPower:
    """The powers give the very digits of the correctly rounded exact values."""

    @given(base=st.integers(1, 100), exp=st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_power(self, base, exp):
        got = scaled_int_pow(base, exp).value.as_tuple()
        assert got == integer_reference(base, exp).value.as_tuple()

    @given(base=st.integers(1, 100), exp=st.integers(1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_success_probability(self, base, exp):
        reference = reciprocal_reference(base, exp).value.as_tuple()
        assert success_probability(base, exp).value.as_tuple() == reference
        assert scaled_int_pow(base, -exp).value.as_tuple() == reference

    @pytest.mark.parametrize("base,exp", [(53, 10000), (52, 30000), (52, 100000)])
    def test_large_powers(self, base, exp):
        reference = integer_reference(base, exp)
        assert scaled_int_pow(base, exp).value.as_tuple() == reference.value.as_tuple()
        probability = reciprocal_reference(base, exp)
        assert success_probability(base, exp).value.as_tuple() == probability.value.as_tuple()

    def test_ignores_a_hostile_caller_context(self):
        reference = integer_reference(52, 1520)
        with localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = ROUND_FLOOR
            ctx.traps[Inexact] = True
            got = scaled_int_pow(52, 1520)
            probability = success_probability(52, 1520)
        assert got.value.as_tuple() == reference.value.as_tuple()
        expected = reciprocal_reference(52, 1520)
        assert probability.value.as_tuple() == expected.value.as_tuple()

    def test_short_precision_raises_instead_of_rounding(self, monkeypatch):
        # a digit-count bound of 2 cannot hold 52^5 = 380,204,032
        monkeypatch.setattr(math, "log10", lambda _: 0.0)
        with pytest.raises(Inexact):
            scaled_int_pow(52, 5)


class TestRepresentation:
    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            ScaledDecimal.from_float(-2.0)
        with pytest.raises(ValueError):
            ScaledDecimal.from_int(-2)
        with pytest.raises(ValueError):
            ScaledDecimal(Decimal(-1))

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            ScaledDecimal.from_float(bad)
        with pytest.raises(ValueError):
            ScaledDecimal(Decimal(bad))

    def test_zero_rejected(self):
        # no program value is zero: counts, rates, durations and odds 1/A^n
        for make in (
            lambda: ScaledDecimal.from_int(0),
            lambda: ScaledDecimal.from_float(0.0),
            lambda: ScaledDecimal(Decimal(0)),
        ):
            with pytest.raises(ValueError, match="positive"):
                make()

    def test_to_string_pads_significant_digits(self):
        assert build(5.0, -1).to_string(4) == "5.000e-1"
        assert build(5.0, -1).to_string(2) == "5.0e-1"
        assert build(5.0, -1).to_string(1) == "5e-1"

    def test_to_string_rejects_fewer_than_one_digit(self):
        # the rounding context's own precision check
        with pytest.raises(ValueError):
            build(5.0, -1).to_string(0)

    def test_to_string_carry_renormalizes(self):
        assert ScaledDecimal(Decimal("9.9999e5")).to_string(4) == "1.000e6"

    def test_float_conversion(self):
        assert float(build(2.5, 3)) == 2500.0
        assert float(build(1.0, -3100)) == 0.0  # underflow by design

    def test_ordering(self):
        assert build(2.0, 10) < build(1.0, 11)
        assert build(9.0, -5) > build(2.0, -5)

    def test_division(self):
        q = build(2.0, 6) / build(4.0, 2)
        assert q.mantissa == 5 and q.exponent == 3

    def test_works_with_plain_numbers(self):
        assert ScaledDecimal.from_float(3600.0) / 3600.0 == ScaledDecimal.from_int(1)
        assert 2.0 * build(3.0, 1) == ScaledDecimal.from_int(60)

    @pytest.mark.parametrize("other", ["2", 2], ids=["str", "int"])
    def test_other_operands_name_their_type(self, other):
        # a float or a scaled value only; an int is converted with from_int
        name = type(other).__name__
        for operate in (lambda x: x * other, lambda x: other * x, lambda x: x / other):
            with pytest.raises(TypeError, match=f"^cannot interpret {name} as ScaledDecimal$"):
                operate(build(3.0, 1))


def test_precision_is_at_least_thirty_digits():
    # 36 digits survive a multiply: check against exact integer arithmetic
    a = ScaledDecimal.from_int(10**17 + 3)
    b = ScaledDecimal.from_int(10**17 + 7)
    assert a * b == ScaledDecimal.from_int((10**17 + 3) * (10**17 + 7))


def test_log10_of_extreme_exponents_is_finite():
    assert math.isclose(build(4.73, -2609).log10(), -2609 + math.log10(4.73))
    assert math.isclose(build(2.68, 69).log10(), 69 + math.log10(2.68))
