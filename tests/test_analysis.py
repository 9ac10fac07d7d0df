import math
import re
import string
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ATTEMPTS_BASE, PHRASE, TIMES_BASE, rel_err, rel_err_float
from monkeytyper import (
    GrowthModel,
    ScaledDecimal,
    TargetText,
    build_projection_table,
    census_lines,
    convert_time,
    corpus_census,
    expected_attempts,
    fit_growth_model,
    growth_factor,
    hamlet_soliloquy,
    log10_series,
    success_probability,
)
from monkeytyper.analysis import JULIAN_YEAR_SECONDS, UNIVERSE_AGE_YEARS

positive_series = st.lists(
    st.floats(min_value=1e-4, max_value=1e9, allow_nan=False), min_size=2, max_size=8
)


class TestSuccessProbability:
    def test_coin_flip(self):
        p = success_probability(2, 1)
        assert p.mantissa == 5 and p.exponent == -1

    def test_phrase_odds(self):
        p = success_probability(52, 41)
        assert p.exponent == -71
        assert abs(float(p.mantissa) - 4.404) <= 0.002

    def test_soliloquy_odds(self):
        p = success_probability(52, 1520)
        assert p.exponent == -2609
        assert abs(float(p.mantissa) - 4.73) <= 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            success_probability(0, 1)
        with pytest.raises(ValueError):
            success_probability(2, 0)

    @given(size=st.integers(2, 100), n=st.integers(1, 50))
    @settings(max_examples=60)
    def test_exponent_tracks_big_integer_digit_count(self, size, n):
        sys.set_int_max_str_digits(10_000)
        p = success_probability(size, n)
        digits = len(str(size**n))
        expected_exponent = -digits if (size**n) != 10 ** (digits - 1) else -(digits - 1)
        assert p.exponent == expected_exponent

    @given(size=st.integers(2, 100), n=st.integers(1, 50))
    @settings(max_examples=60)
    def test_reciprocal_of_expected_attempts(self, size, n):
        total = expected_attempts(size, n).log10() + success_probability(size, n).log10()
        assert abs(total) <= 1e-12


def exact_scientific(num: int, den: int, digits: int) -> str:
    """``num / den`` as ``<mantissa>e<exponent>`` with ``digits`` significant
    digits, rounded half to even, in integer arithmetic only."""
    exponent = len(str(num)) - len(str(den))  # floor(log10) is this or one less
    if num * 10 ** max(-exponent, 0) < den * 10 ** max(exponent, 0):
        exponent -= 1
    shift = digits - 1 - exponent
    top, bottom = num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)
    quotient, remainder = divmod(top, bottom)
    if 2 * remainder > bottom or (2 * remainder == bottom and quotient % 2):
        quotient += 1
    if quotient == 10**digits:  # rounding carried 9.99... up to 10
        quotient //= 10
        exponent += 1
    text = str(quotient)
    return f"{text[0]}.{text[1:]}e{exponent}"


@given(size=st.integers(2, 100), n=st.integers(1, 1200), digits=st.integers(2, 7))
@settings(max_examples=300, deadline=None)
def test_odds_strings_equal_exact_rounding(size, n, digits):
    power = size**n
    assert success_probability(size, n).to_string(digits) == exact_scientific(1, power, digits)
    assert expected_attempts(size, n).to_string(digits) == exact_scientific(power, 1, digits)


def test_exact_scientific_reference():
    assert exact_scientific(1, 52**41, 4) == "4.404e-71"
    assert exact_scientific(125, 1, 2) == "1.2e2"  # a tie goes to the even digit
    assert exact_scientific(135, 1, 2) == "1.4e2"
    assert exact_scientific(9999, 1, 3) == "1.00e4"
    assert exact_scientific(1, 8, 2) == "1.2e-1"


class TestExpectedAttempts:
    def test_single_draw(self):
        x = expected_attempts(53, 1)
        assert x.mantissa == Decimal("5.3") and x.exponent == 1

    def test_two_bits(self):
        assert expected_attempts(2, 2) == ScaledDecimal.from_int(4)

    def test_five_characters_exact(self):
        assert expected_attempts(53, 5) == ScaledDecimal.from_int(53**5)
        assert 53**5 == 418_195_493

    @pytest.mark.parametrize("size,n", [(52, 0), (0, 3)])
    def test_validation(self, size, n):
        # without its own check, 52^0 comes back as 1.000e0
        with pytest.raises(ValueError, match="alphabet size and length must be positive"):
            expected_attempts(size, n)


class TestGrowthFactor:
    def test_exact_geometric_series(self):
        assert growth_factor([1, 2, 4, 8]) == 2.0

    def test_published_attempts_series(self):
        factor = growth_factor(ATTEMPTS_BASE)
        assert abs(factor - 49.134) <= 0.001
        assert math.isclose(factor, 49.13430649673239, rel_tol=1e-12)

    def test_published_times_series(self):
        factor = growth_factor(TIMES_BASE)
        assert abs(factor - 57.798) <= 0.001
        assert math.isclose(factor, 57.79784615050076, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            growth_factor([5.0])
        with pytest.raises(ValueError, match="positive"):
            growth_factor([1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            growth_factor([1.0, -2.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            growth_factor([1.0, bad])

    @given(
        ratio=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        start=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        length=st.integers(2, 10),
    )
    def test_recovers_ratio_of_any_geometric_series(self, ratio, start, length):
        series = [start]
        for _ in range(length - 1):
            series.append(series[-1] * ratio)
        assert math.isclose(growth_factor(series), ratio, rel_tol=1e-12)

    @given(values=positive_series, scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, values, scale):
        scaled = [v * scale for v in values]
        assert math.isclose(growth_factor(scaled), growth_factor(values), rel_tol=1e-12)


def _project(base, factor, length, time_factor=None):
    """The projection of a hand-built model whose times equal ``base``."""
    model = GrowthModel(tuple(base), tuple(base), factor, time_factor)
    return build_projection_table(model, TargetText("x" * length))


class TestProjectSeries:
    """The geometric series build_projection_table extends from a model's base."""

    def test_tiny_projection(self):
        table = _project([1.0], 2.0, 3, time_factor=2.0)
        assert [str(row.attempts) for row in table.rows] == ["1.000e0", "2.000e0", "4.000e0"]
        assert [str(row.seconds) for row in table.rows] == ["1.000e0", "2.000e0", "4.000e0"]

    def test_published_position_six(self):
        table = _project(ATTEMPTS_BASE, growth_factor(ATTEMPTS_BASE), 41)
        assert rel_err_float(table.rows[5].attempts, 1.70e10) <= 0.02

    def test_published_position_forty_one(self):
        table = _project(ATTEMPTS_BASE, growth_factor(ATTEMPTS_BASE), 41)
        assert rel_err_float(table.rows[40].attempts, 2.68e69) <= 0.01

    def test_echoes_base_verbatim(self):
        table = _project(ATTEMPTS_BASE, 49.134, 41)
        for row, base in zip(table.rows, ATTEMPTS_BASE):
            assert row.attempts == ScaledDecimal.from_int(base)

    def test_exact_power_series_reproduces_all_powers(self):
        base = [53.0**k for k in range(1, 6)]
        table = _project(base, 53.0, 41)
        for n in range(1, 42):
            assert rel_err(table.rows[n - 1].attempts, expected_attempts(53, n)) <= 1e-9

    @given(values=positive_series, scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50)
    def test_scaling_base_scales_projection(self, values, scale):
        factor = 3.7
        length = len(values) + 4
        plain = _project(values, factor, length).rows
        scaled = _project([v * scale for v in values], factor, length).rows
        for a, b in zip(plain, scaled):
            assert rel_err(a.attempts * scale, b.attempts) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="empty base"):
            _project([], 2.0, 3)
        with pytest.raises(ValueError, match="positive"):
            _project([1.0, 0.0], 2.0, 3)
        with pytest.raises(ValueError, match="factor"):
            _project([1.0], 0.0, 3)
        with pytest.raises(ValueError, match="shorter"):
            _project([1.0, 2.0], 2.0, 1)


class TestBuildProjectionTable:
    def model(self):
        return fit_growth_model(ATTEMPTS_BASE, TIMES_BASE)

    def test_no_extrapolation_when_target_equals_base(self):
        model = self.model()
        # the model holds float bases though ATTEMPTS_BASE holds ints
        assert repr(model.attempts_base) == repr(tuple(map(float, ATTEMPTS_BASE)))
        table = build_projection_table(model, TargetText("To be"))
        assert len(table.rows) == 5
        assert all(row.region == "measured" for row in table.rows)
        assert [row.text_part for row in table.rows] == ["T", "To", "To ", "To b", "To be"]
        for row, attempts in zip(table.rows, ATTEMPTS_BASE):
            assert row.attempts == ScaledDecimal.from_int(attempts)

    def test_full_phrase_spot_row_ten(self):
        table = build_projection_table(self.model(), TargetText(PHRASE))
        assert rel_err_float(table.rows[9].attempts, 9.89e16) <= 0.02
        assert table.rows[9].region == "extrapolated"

    def test_full_phrase_final_times(self):
        table = build_projection_table(self.model(), TargetText(PHRASE))
        assert rel_err_float(table.final.seconds, 2.95e66) <= 0.01
        assert rel_err_float(table.final.hours, 8.18e62) <= 0.01

    def test_regions_split_at_base_length(self):
        table = build_projection_table(self.model(), TargetText(PHRASE))
        assert [row.region for row in table.rows[:5]] == ["measured"] * 5
        assert all(row.region == "extrapolated" for row in table.rows[5:])

    def test_extrapolated_rows_follow_the_factor(self):
        model = self.model()
        table = build_projection_table(model, TargetText(PHRASE))
        factor = model.attempts_growth_factor
        for prev, row in zip(table.rows[4:], table.rows[5:]):
            assert rel_err(row.attempts, prev.attempts * factor) <= 1e-9

    def test_hours_are_seconds_over_3600(self):
        table = build_projection_table(self.model(), TargetText(PHRASE))
        for row in table.rows:
            assert rel_err(row.hours * 3600.0, row.seconds) <= 1e-12

    def test_rows_strictly_increase_when_factors_exceed_one(self):
        table = build_projection_table(self.model(), TargetText(PHRASE))
        for prev, row in zip(table.rows, table.rows[1:]):
            assert prev.attempts < row.attempts
            assert prev.seconds < row.seconds

    def test_a_zero_base_time_projects_attempts_only(self):
        # the published matrix shows 0.000 s at prefix 1, and --no-timing
        # zeroes every time: no time growth factor, no seconds, no hours
        times = [0.0, *TIMES_BASE[1:]]
        model = fit_growth_model(ATTEMPTS_BASE, times)
        assert model.time_growth_factor is None
        assert model.times_base == tuple(times)
        table = build_projection_table(model, TargetText(PHRASE))
        assert rel_err_float(table.final.attempts, 2.68e69) <= 0.01
        assert all(row.seconds is None and row.hours is None for row in table.rows)
        attempts, seconds = log10_series(table)
        assert len(attempts) == 41 and seconds == []
        rows = table.to_json_rows(str)
        assert rows[0]["seconds"] is None
        assert table.to_csv(rows).splitlines()[1] == "1,T,6.000e1,,,measured"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_base_time_still_fails(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_growth_model([1.0, 2.0], [0.0, bad])

    def test_target_shorter_than_base_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            build_projection_table(self.model(), TargetText("To"))

    def test_empty_times_fail_on_their_length(self):
        # the model owns the length check, and an empty times series reaches it
        with pytest.raises(ValueError, match="base series must have equal length"):
            fit_growth_model([1.0, 2.0, 3.0], [])

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError, match="empty base"):
            build_projection_table(GrowthModel((), (), 2.0, 2.0), TargetText("To"))

    def test_log10_series_matches_rows(self):
        table = build_projection_table(self.model(), TargetText("To be"))
        attempts_pairs, seconds_pairs = log10_series(table)
        assert attempts_pairs[0] == (1, table.rows[0].attempts.log10())
        assert len(seconds_pairs) == 5


class TestConvertTime:
    def test_one_hour(self):
        breakdown = convert_time(ScaledDecimal.from_float(3600.0))
        assert breakdown.hours == ScaledDecimal.from_int(1)

    def test_published_hours(self):
        breakdown = convert_time(ScaledDecimal.from_float(2.95e66))
        assert rel_err_float(breakdown.hours, 8.18e62) <= 0.01

    def test_years_with_julian_year(self):
        # oracle: straight division in log space
        seconds = ScaledDecimal.from_float(2.95e66)
        breakdown = convert_time(seconds)
        oracle = 10 ** (math.log10(2.95e66) - math.log10(3.15576e7) - 58)
        assert breakdown.years.exponent == 58
        assert abs(float(breakdown.years.mantissa) - oracle) <= 1e-9
        assert rel_err_float(breakdown.years, 9.35e58) <= 0.01

    def test_universe_age_ratio(self):
        breakdown = convert_time(ScaledDecimal.from_float(2.95e66))
        assert rel_err_float(breakdown.universe_age_ratio, 6.77e48) <= 0.01

    def test_breakdown_invariants(self):
        breakdown = convert_time(ScaledDecimal.from_float(1.234e20))
        assert rel_err(breakdown.hours * 3600.0, breakdown.seconds) <= 1e-12
        assert (
            rel_err(breakdown.years * JULIAN_YEAR_SECONDS, breakdown.seconds)
            <= 1e-12
        )
        assert (
            rel_err(
                breakdown.universe_age_ratio * UNIVERSE_AGE_YEARS,
                breakdown.years,
            )
            <= 1e-12
        )


class TestCorpusCensus:
    def test_empty_text(self):
        assert set(corpus_census("").values()) == {0}

    def test_newline_handling(self):
        counts = corpus_census("ab\ncd")
        assert counts["raw"] == 5
        assert counts["newlines_excluded"] == 4
        assert counts["whitespace_collapsed"] == 5
        assert counts["letters_and_space"] == 4

    def test_bundled_soliloquy_against_direct_count(self):
        text = hamlet_soliloquy()
        counts = corpus_census(text)
        # independent recount with different machinery
        assert counts["raw"] == len(text)
        assert counts["newlines_excluded"] == len(re.sub(r"[\n\r]", "", text))
        assert counts["whitespace_collapsed"] == len(
            re.sub(r"\s+", " ", text).strip()
        )
        letters = set(string.ascii_letters + " ")
        assert counts["letters_and_space"] == sum(text.count(c) for c in letters)

    def test_bundled_soliloquy_frozen_counts(self):
        assert corpus_census(hamlet_soliloquy()) == {
            "raw": 1520,
            "newlines_excluded": 1486,
            "whitespace_collapsed": 1520,
            "letters_and_space": 1430,
        }

    def test_report_lines_mention_every_normalization(self):
        lines = census_lines(corpus_census("abc"))
        assert len(lines) == 4
        assert any("raw" in line for line in lines)

    def test_lines_flag_the_counts_equal_to_the_published_total(self):
        assert census_lines(corpus_census(hamlet_soliloquy())) == [
            "raw                      1520  matches 1520",
            "newlines_excluded        1486  differs from 1520",
            "whitespace_collapsed     1520  matches 1520",
            "letters_and_space        1430  differs from 1520",
        ]

    @given(
        text=st.text(
            alphabet=st.one_of(st.characters(), st.sampled_from("\r\t\u00a0\u2028\u00e9\u017f")),
            max_size=200,
        )
    )
    @settings(max_examples=200)
    def test_matches_the_per_character_definition(self, text):
        # the counts the census was first defined by, one character at a
        # time; \u00e9 and \u017f (long s) are letters but not ASCII, \u00a0 and
        # \u2028 are whitespace but not spaces or line breaks
        oracle = {
            "raw": len(text),
            "newlines_excluded": sum(1 for c in text if c not in "\n\r"),
            "whitespace_collapsed": len(" ".join(text.split())),
            "letters_and_space": sum(
                1 for c in text if (c.isascii() and c.isalpha()) or c == " "
            ),
        }
        assert corpus_census(text) == oracle

    @given(text=st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=400))
    @settings(max_examples=80)
    def test_raw_bounds_every_normalization(self, text):
        counts = corpus_census(text)
        assert all(counts["raw"] >= count for count in counts.values())
