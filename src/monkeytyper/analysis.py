"""Closed-form math and extrapolation: probabilities, growth factors, projections.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .data import PUBLISHED_SOLILOQUY_LENGTH
from .model import LETTERS_AND_SPACE, GrowthModel, ProjectionRow, ProjectionTable, TargetText
from .scaled import ScaledDecimal, scaled_int_pow

#: Julian year, the year length every time conversion uses: the published
#: figures never state which one they assumed.
JULIAN_YEAR_SECONDS = 3.15576e7

#: Estimated age of the universe, in years.
UNIVERSE_AGE_YEARS = 1.38e10

SECONDS_PER_HOUR = ScaledDecimal.from_int(3600)

_LETTERS_AND_SPACE = LETTERS_AND_SPACE.symbols.encode()


def success_probability(alphabet_size: int, n: int) -> ScaledDecimal:
    """P(one uniform length-``n`` candidate equals a fixed target) = A^-n.

    :func:`~monkeytyper.scaled.scaled_int_pow` at ``-n``: correctly rounded
    to the working precision, with an exact decimal exponent (-2609 at
    n = 1520).
    """
    if alphabet_size < 1 or n < 1:
        raise ValueError("alphabet size and length must be positive")
    return scaled_int_pow(alphabet_size, -n)


def expected_attempts(alphabet_size: int, n: int) -> ScaledDecimal:
    """Mean geometric waiting time A^n, from the exact power rounded once."""
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
    mean = sum(ratios) / len(ratios)
    if not math.isfinite(mean):
        raise ValueError(f"the mean ratio of consecutive values {list(values)} is not finite")
    if mean <= 0:  # every ratio underflowed
        raise ValueError(f"the mean ratio of consecutive values {list(values)} is not positive")
    return mean


def fit_growth_model(
    attempts_base: Sequence[float], times_base: Sequence[float]
) -> GrowthModel:
    """Estimate both growth factors from measured per-prefix averages.

    Finite times of which one is zero or negative (``--no-timing`` zeroes
    them; the published matrix shows 0.000 s at prefix 1) have no growth
    factor: the model's ``time_growth_factor`` is None and nothing about
    seconds is projected from it. Series the model rejects, unequal lengths
    first, fail on its rule rather than on a growth factor's.
    """
    attempts, times = (tuple(float(v) for v in base) for base in (attempts_base, times_base))
    GrowthModel(attempts, times, 1.0, None)  # the model's rules come first
    untimed = all(map(math.isfinite, times)) and min(times) <= 0
    factors = growth_factor(attempts), None if untimed else growth_factor(times)
    return GrowthModel(attempts, times, *factors)


def _extend(base: Sequence[float], factor: float, length: int) -> list[ScaledDecimal]:
    """Echo ``base`` as scaled decimals, then multiply by ``factor`` per step
    up to ``length`` values: one representation for measured and
    extrapolated rows alike (the tail reaches 10^69 for the full phrase)."""
    series = [ScaledDecimal.from_float(v) for v in base]
    scale = ScaledDecimal.from_float(factor)
    while len(series) < length:
        series.append(series[-1] * scale)
    return series


def build_projection_table(model: GrowthModel, target: TargetText) -> ProjectionTable:
    """One row per prefix of the target: measured rows echo the base verbatim.

    A model without a time growth factor leaves every row's seconds and
    hours None.
    """
    base_len = len(model.attempts_base)
    if target.length < base_len:
        raise ValueError(f"projection length {target.length} shorter than base of {base_len}")
    attempts = _extend(model.attempts_base, model.attempts_growth_factor, target.length)
    if model.time_growth_factor is None:
        seconds = [None] * target.length
    else:
        seconds = _extend(model.times_base, model.time_growth_factor, target.length)
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
                hours=None if sec is None else sec / SECONDS_PER_HOUR,
                region=region,
            )
        )
    return ProjectionTable(rows=tuple(rows))


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
    ascii_only = text.encode("ascii", "ignore")
    counts = {
        "raw": len(text),
        "newlines_excluded": len(text) - text.count("\n") - text.count("\r"),
        "whitespace_collapsed": len(" ".join(text.split())),
        "letters_and_space": len(ascii_only) - len(ascii_only.translate(None, _LETTERS_AND_SPACE)),
    }
    return CensusReport(counts=counts)


def log10_series(table: ProjectionTable) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """(prefix_len, log10) pairs for attempts and for seconds, plot-ready.

    The seconds series is empty when the table projects no seconds.
    """
    attempts = [(row.prefix_len, row.attempts.log10()) for row in table.rows]
    seconds = [
        (row.prefix_len, row.seconds.log10()) for row in table.rows if row.seconds is not None
    ]
    return attempts, seconds
