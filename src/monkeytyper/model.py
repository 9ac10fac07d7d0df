"""Shared domain types: alphabets, targets, measured trials, growth models.

Everything here is an immutable value object; instances can be shared freely
between threads.
"""

from __future__ import annotations

import csv
import io
import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Sequence

import numpy as np

from .scaled import ScaledDecimal


class AlphabetMismatchError(ValueError):
    """A required character is not a member of the alphabet in use."""

    def __init__(self, missing: str, context: str = "text"):
        self.missing = missing
        listed = ", ".join(repr(c) for c in missing)
        super().__init__(f"{context} contains characters not in the alphabet: {listed}")


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct symbols candidates are drawn from."""

    symbols: str

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            dupes = sorted({c for c in self.symbols if self.symbols.count(c) > 1})
            raise ValueError(f"alphabet symbols must be distinct, duplicated: {dupes}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.symbols)}

    def missing_from(self, text: str) -> str:
        """Distinct characters of ``text`` not in this alphabet, in first-seen order."""
        seen: list[str] = []
        for c in text:
            if c not in self._index and c not in seen:
                seen.append(c)
        return "".join(seen)

    def encode(self, text: str) -> np.ndarray:
        """Map text to symbol indices (uint32). Raises on unknown characters."""
        missing = self.missing_from(text)
        if missing:
            raise AlphabetMismatchError(missing)
        return np.array([self._index[c] for c in text], dtype=np.uint32)

    def decode(self, codes: Iterable[int]) -> str:
        return "".join(self.symbols[int(i)] for i in codes)

    def extended_with(self, chars: str) -> "Alphabet":
        """A new alphabet with any unknown ``chars`` appended, order preserved."""
        missing = self.missing_from(chars)
        return Alphabet(self.symbols + missing) if missing else self


#: The 52 ASCII letters: the alphabet the published closed-form math assumes.
LETTERS = Alphabet(string.ascii_letters)

#: The 52 letters plus space: the alphabet the published trial code drew from.
LETTERS_AND_SPACE = Alphabet(string.ascii_letters + " ")

_PRESETS = {"letters": LETTERS, "letters+space": LETTERS_AND_SPACE}


def alphabet_preset(name: str) -> Alphabet:
    """Look up a named preset (``letters`` or ``letters+space``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown alphabet preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


@dataclass(frozen=True)
class TargetText:
    """The text a typing experiment tries to reproduce, prefix by prefix."""

    text: str

    def __post_init__(self):
        if len(self.text) == 0:
            raise ValueError("target text must be nonempty")

    @property
    def length(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class TrialRecord:
    """One prefix-matching trial: attempts made and wall-clock time spent.

    ``seed`` keys the stream of the trial's block (stream version 3: the
    trials of one prefix length share a stream in blocks of consecutive
    iterations, see :mod:`monkeytyper.simulate`); with the trial's place in
    its block it reproduces the trial. ``completed`` is False when the trial
    hit its attempt budget before matching; ``attempts`` then holds the
    count so far.
    """

    prefix_length: int
    attempts: int
    elapsed_seconds: float
    seed: int
    completed: bool = True

    def __post_init__(self):
        if self.prefix_length < 1:
            raise ValueError("prefix_length must be >= 1")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be >= 0")


# CSV schemas. ``--no-timing`` zeroes a measurement table's elapsed_seconds.
MEASUREMENT_CSV_HEADER = (
    "test", "prefix_len", "attempts", "elapsed_seconds", "seed", "completed"
)
PROJECTION_CSV_HEADER = ("prefix_len", "text_part", "attempts", "seconds", "hours", "region")


@dataclass(frozen=True)
class MeasurementTable:
    """A full experiment matrix (iterations x prefix lengths) plus column means.

    A budget-capped trial has not finished, so a column's mean is its total
    attempts (and total seconds) over its completed trials: the censored
    geometric estimate, equal to the plain mean when every trial completed.
    A column with no completed trial has no estimate and is rejected.
    """

    prefix_lengths: tuple[int, ...]
    trials: tuple[tuple[TrialRecord, ...], ...]  # trials[iteration][column]
    attempts_averages: tuple[float, ...]
    time_averages: tuple[float, ...]

    @classmethod
    def from_trials(
        cls,
        prefix_lengths: Sequence[int],
        rows: Sequence[Sequence[TrialRecord]],
    ) -> "MeasurementTable":
        prefix_lengths = tuple(prefix_lengths)
        if list(prefix_lengths) != sorted(set(prefix_lengths)):
            raise ValueError("prefix_lengths must be strictly increasing")
        if not rows:
            raise ValueError("at least one test iteration required")
        for row in rows:
            if len(row) != len(prefix_lengths):
                raise ValueError("every iteration must cover every prefix length")
            for rec, n in zip(row, prefix_lengths):
                if rec.prefix_length != n:
                    raise ValueError(
                        f"record for prefix {rec.prefix_length} in column {n}"
                    )
        columns = list(zip(*rows))
        completed = [sum(rec.completed for rec in column) for column in columns]
        for n, count in zip(prefix_lengths, completed):
            if count == 0:
                raise ValueError(
                    f"no trial of prefix length {n} completed within its attempt "
                    f"budget, so its mean attempts cannot be estimated"
                )
        attempts_avg = tuple(
            sum(rec.attempts for rec in column) / count
            for column, count in zip(columns, completed)
        )
        time_avg = tuple(
            sum(rec.elapsed_seconds for rec in column) / count
            for column, count in zip(columns, completed)
        )
        return cls(prefix_lengths, tuple(tuple(r) for r in rows), attempts_avg, time_avg)

    @property
    def iterations(self) -> int:
        return len(self.trials)

    def incomplete_cells(self) -> list[tuple[int, int]]:
        """(iteration, prefix_length) pairs whose trial hit its budget."""
        return [
            (i + 1, rec.prefix_length)
            for i, row in enumerate(self.trials)
            for rec in row
            if not rec.completed
        ]

    def to_csv(self, include_timing: bool = True) -> str:
        """Serialize as ``test,prefix_len,attempts,elapsed_seconds,seed,completed`` rows.

        Trial rows come first in (test, prefix) order, with ``completed``
        1 or 0, then one ``average`` row per prefix length, whose
        ``completed`` is the number of completed trials the mean divides by.
        With ``include_timing=False`` every elapsed value is written as 0 so
        repeated runs are byte-identical.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(MEASUREMENT_CSV_HEADER)
        for i, row in enumerate(self.trials, start=1):
            for rec in row:
                elapsed = repr(rec.elapsed_seconds) if include_timing else "0"
                writer.writerow(
                    [i, rec.prefix_length, rec.attempts, elapsed, rec.seed, int(rec.completed)]
                )
        for j, n in enumerate(self.prefix_lengths):
            elapsed = repr(self.time_averages[j]) if include_timing else "0"
            completed = sum(row[j].completed for row in self.trials)
            writer.writerow(
                ["average", n, repr(self.attempts_averages[j]), elapsed, "", completed]
            )
        return buf.getvalue()


def read_measurement_csv(text: str) -> tuple[list[int], list[float], list[float]]:
    """Extract (prefix_lengths, attempts_averages, time_averages) from CSV text.

    Reads the ``average`` rows, one per prefix length, that end every
    measurement CSV this package writes and the bundled published matrix;
    trial rows are skipped. A file without ``average`` rows is rejected.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("empty measurements file")
    required = {"test", "prefix_len", "attempts", "elapsed_seconds"}
    missing = required - set(reader.fieldnames)
    if missing:
        raise ValueError(f"measurements file lacks columns: {sorted(missing)}")
    averages = {
        int(row["prefix_len"]): (float(row["attempts"]), float(row["elapsed_seconds"]))
        for row in reader
        if row["test"] == "average"
    }
    if not averages:
        raise ValueError(
            "measurements file has no average rows (test=average, one per prefix length)"
        )
    lengths = sorted(averages)
    return lengths, [averages[n][0] for n in lengths], [averages[n][1] for n in lengths]


@dataclass(frozen=True)
class GrowthModel:
    """Measured base series plus the estimated per-character growth factors."""

    attempts_base: tuple[float, ...]
    times_base: tuple[float, ...]
    attempts_growth_factor: float
    time_growth_factor: float

    def __post_init__(self):
        if len(self.attempts_base) != len(self.times_base):
            raise ValueError("base series must have equal length")
        if self.attempts_growth_factor <= 0 or self.time_growth_factor <= 0:
            raise ValueError("growth factors must be positive")


Region = Literal["measured", "extrapolated"]


@dataclass(frozen=True)
class ProjectionRow:
    prefix_len: int
    text_part: str
    attempts: ScaledDecimal
    seconds: ScaledDecimal
    hours: ScaledDecimal
    region: Region


@dataclass(frozen=True)
class ProjectionTable:
    """Per-prefix estimates: measured rows echo the base, the rest extrapolate."""

    target: str
    rows: tuple[ProjectionRow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for i, row in enumerate(self.rows, start=1):
            if row.prefix_len != i or row.text_part != self.target[:i]:
                raise ValueError(f"row {i} is not the length-{i} prefix of the target")

    @property
    def final(self) -> ProjectionRow:
        return self.rows[-1]

    def to_csv(self, fmt=None) -> str:
        """The rows of :meth:`to_json_rows` as CSV under ``PROJECTION_CSV_HEADER``."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, PROJECTION_CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.to_json_rows(fmt))
        return buf.getvalue()

    def to_json_rows(self, fmt=None) -> list[dict]:
        """One dict per row; ``fmt`` maps a ScaledDecimal to its printed form.

        The default is the plain ``<mantissa>e<exponent>`` serialization.
        """
        fmt = fmt or str
        return [
            {
                "prefix_len": row.prefix_len,
                "text_part": row.text_part,
                "attempts": fmt(row.attempts),
                "seconds": fmt(row.seconds),
                "hours": fmt(row.hours),
                "region": row.region,
            }
            for row in self.rows
        ]
