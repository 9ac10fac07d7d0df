"""Closed-form math and extrapolation: probabilities, growth factors, projections.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .data import PUBLISHED_SOLILOQUY_LENGTH
from .model import GrowthModel, ProjectionRow, ProjectionTable, TargetText
from .scaled import ScaledDecimal, scaled_int_pow

#: Julian year, the year length every time conversion uses: the published
#: figures never state which one they assumed.
JULIAN_YEAR_SECONDS = 3.15576e7

#: Estimated age of the universe, in years.
UNIVERSE_AGE_YEARS = 1.38e10

SECONDS_PER_HOUR = 3600.0


def success_probability(alphabet_size: int, n: int) -> ScaledDecimal:
    """P(one uniform length-``n`` candidate equals a fixed target) = A^-n.

    Computed as the reciprocal of :func:`expected_attempts`, the exact integer
    power, so the decimal exponent is exact even at n = 1520 (where it
    reaches -2609).
    """
    return ScaledDecimal.from_int(1) / expected_attempts(alphabet_size, n)


def expected_attempts(alphabet_size: int, n: int) -> ScaledDecimal:
    """Mean geometric waiting time A^n: exactly 1 / success_probability."""
    if alphabet_size < 1 or n < 1:
        raise ValueError("alphabet size and length must be positive")
    return scaled_int_pow(alphabet_size, n)


def growth_factor(values: Sequence[float]) -> float:
    """Mean of consecutive ratios ``values[i] / values[i-1]``.

    This is the extrapolation constant the projection pipeline uses; for an
    exact geometric series it recovers the ratio.
    """
    if len(values) < 2:
        raise ValueError("need at least 2 values to estimate a growth factor")
    for v in values:
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"values must be positive and finite, got {v}")
    ratios = [values[i] / values[i - 1] for i in range(1, len(values))]
    return sum(ratios) / len(ratios)


def fit_growth_model(
    attempts_base: Sequence[float], times_base: Sequence[float]
) -> GrowthModel:
    """Estimate both growth factors from measured per-prefix averages."""
    if len(attempts_base) != len(times_base):
        raise ValueError("attempts and times series must have equal length")
    return GrowthModel(
        attempts_base=tuple(float(v) for v in attempts_base),
        times_base=tuple(float(v) for v in times_base),
        attempts_growth_factor=growth_factor(attempts_base),
        time_growth_factor=growth_factor(times_base),
    )


def project_series(
    base: Sequence[float], factor: float, total_length: int
) -> list[ScaledDecimal]:
    """Geometric projection: echo ``base``, then multiply by ``factor`` per step.

    Values are carried as scaled decimals throughout (the tail reaches 10^69
    for the full phrase, and doubles would be fine until ~10^308, but one
    representation for the whole series keeps measured and extrapolated rows
    directly comparable).
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    if total_length < 0:
        raise ValueError("total_length must be >= 0")
    if not base and total_length > 0:
        raise ValueError("cannot project from an empty base series")
    if total_length < len(base):
        raise ValueError(
            f"projection length {total_length} shorter than base of {len(base)}"
        )
    for v in base:
        if v <= 0:
            raise ValueError(f"base values must be positive, got {v}")
    series = [ScaledDecimal.from_float(float(v)) for v in base[:total_length]]
    scale = ScaledDecimal.from_float(float(factor))
    while len(series) < total_length:
        series.append(series[-1] * scale)
    return series


def build_projection_table(model: GrowthModel, target: TargetText) -> ProjectionTable:
    """One row per prefix of the target: measured rows echo the base verbatim."""
    base_len = len(model.attempts_base)
    attempts = project_series(
        model.attempts_base, model.attempts_growth_factor, target.length
    )
    seconds = project_series(model.times_base, model.time_growth_factor, target.length)
    rows = []
    for i in range(1, target.length + 1):
        region = "measured" if i <= base_len else "extrapolated"
        sec = seconds[i - 1]
        rows.append(
            ProjectionRow(
                prefix_len=i,
                text_part=target.text[:i],
                attempts=attempts[i - 1],
                seconds=sec,
                hours=sec / SECONDS_PER_HOUR,
                region=region,
            )
        )
    return ProjectionTable(target=target.text, rows=tuple(rows))


@dataclass(frozen=True)
class TimeBreakdown:
    """One duration expressed in seconds, hours, years, and universe ages."""

    seconds: ScaledDecimal
    hours: ScaledDecimal
    years: ScaledDecimal
    universe_age_ratio: ScaledDecimal


def convert_time(seconds: ScaledDecimal) -> TimeBreakdown:
    """Express a duration in hours, Julian years, and multiples of the universe's age."""
    years = seconds / JULIAN_YEAR_SECONDS
    return TimeBreakdown(
        seconds=seconds,
        hours=seconds / SECONDS_PER_HOUR,
        years=years,
        universe_age_ratio=years / UNIVERSE_AGE_YEARS,
    )


@dataclass(frozen=True)
class CensusReport:
    """Character counts of one text under every normalization."""

    counts: dict[str, int]

    def lines(self) -> list[str]:
        """One line per normalization, flagging whether it equals the published total."""
        width = max(len(name) for name in self.counts)
        return [
            f"{name:<{width}}  {count:>7}  "
            + ("matches" if count == PUBLISHED_SOLILOQUY_LENGTH else "differs from")
            + f" {PUBLISHED_SOLILOQUY_LENGTH}"
            for name, count in self.counts.items()
        ]


def corpus_census(text: str) -> CensusReport:
    """Count characters under several rules rather than guessing the right one.

    * ``raw``: every character, line breaks included.
    * ``newlines_excluded``: every character except ``\\n`` and ``\\r``.
    * ``whitespace_collapsed``: runs of whitespace count as one space,
      leading/trailing whitespace dropped.
    * ``letters_and_space``: ASCII letters and plain spaces only.
    """
    collapsed = " ".join(text.split())
    counts = {
        "raw": len(text),
        "newlines_excluded": sum(1 for c in text if c not in "\n\r"),
        "whitespace_collapsed": len(collapsed),
        "letters_and_space": sum(
            1 for c in text if (c.isascii() and c.isalpha()) or c == " "
        ),
    }
    return CensusReport(counts=counts)


def log10_series(table: ProjectionTable) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """(prefix_len, log10) pairs for attempts and for seconds, plot-ready."""
    attempts = [(row.prefix_len, row.attempts.log10()) for row in table.rows]
    seconds = [(row.prefix_len, row.seconds.log10()) for row in table.rows]
    return attempts, seconds
