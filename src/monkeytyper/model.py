"""Shared domain types: alphabets, targets, measured trials, growth models.

Everything here is an immutable value object; instances can be shared freely
between threads.
"""

from __future__ import annotations

import csv
import io
import operator
import string
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .scaled import ScaledDecimal


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
        return "".join(dict.fromkeys(c for c in text if c not in self._index))

    def encode(self, text: str) -> list[int]:
        """Map text to symbol indices. Raises ``ValueError`` naming the
        text and its unknown characters."""
        missing = self.missing_from(text)
        if missing:
            listed = ", ".join(map(repr, missing))
            raise ValueError(f"{text!r} contains characters not in the alphabet: {listed}")
        return [self._index[c] for c in text]

    def extended_with(self, chars: str) -> "Alphabet":
        """A new alphabet with any unknown ``chars`` appended, order preserved."""
        missing = self.missing_from(chars)
        return Alphabet(self.symbols + missing) if missing else self


#: The 52 ASCII letters: the alphabet the published closed-form math assumes.
LETTERS = Alphabet(string.ascii_letters)

#: The 52 letters plus space: the alphabet the published trial code drew from.
LETTERS_AND_SPACE = Alphabet(string.ascii_letters + " ")


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


#: Default per-trial attempt cap; keeps prefix lengths >= 6 from running
#: effectively forever while still being far above any measured mean here.
DEFAULT_ATTEMPT_BUDGET = 10**10


@dataclass(frozen=True)
class TrialRecord:
    """One prefix-matching trial: attempts made and wall-clock time spent.

    ``seed`` keys the stream of the trial's block (since stream version 3
    the trials of one prefix length share a stream in blocks of consecutive
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


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` and then ``rows`` as CSV, each line ended by ``\\n``: the one
    writer of every table the package emits. Floats are written as ``repr``
    writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class MeasurementTable:
    """A full experiment matrix (iterations x prefix lengths) plus column means.

    The matrix is held by column, one per prefix length: ``attempts[j]``,
    ``elapsed_seconds[j]``, ``seeds[j]`` and ``completed[j]`` list the trials
    of ``prefix_lengths[j]`` in iteration order. ``trials`` is the same
    matrix as rows of :class:`TrialRecord`, built on first access.

    A budget-capped trial has not finished, so a column's mean is its total
    attempts (and total seconds) over its completed trials: the censored
    geometric estimate, equal to the plain mean when every trial completed.
    A column with no completed trial has no estimate and is rejected.
    """

    prefix_lengths: tuple[int, ...]
    attempts: tuple[tuple[int, ...], ...]  # attempts[column][iteration]
    elapsed_seconds: tuple[tuple[float, ...], ...]
    seeds: tuple[tuple[int, ...], ...]
    completed: tuple[tuple[bool, ...], ...]
    attempts_averages: tuple[float, ...]
    time_averages: tuple[float, ...]

    @classmethod
    def from_trials(
        cls,
        prefix_lengths: Sequence[int],
        attempts: Sequence[Sequence[int]],
        elapsed_seconds: Sequence[Sequence[float]],
        seeds: Sequence[Sequence[int]],
        completed: Sequence[Sequence[bool]],
    ) -> "MeasurementTable":
        """Build a table from its columns, one per prefix length, each in
        iteration order."""
        prefix_lengths = tuple(prefix_lengths)
        if list(prefix_lengths) != sorted(set(prefix_lengths)):
            raise ValueError("prefix_lengths must be strictly increasing")
        if prefix_lengths and prefix_lengths[0] < 1:
            raise ValueError("prefix_length must be >= 1")
        columns = [tuple(map(tuple, c)) for c in (attempts, elapsed_seconds, seeds, completed)]
        iterations = len(columns[0][0]) if columns[0] else 0
        shape = [iterations] * len(prefix_lengths)
        if any(list(map(len, field)) != shape for field in columns):
            raise ValueError("every iteration must cover every prefix length")
        if iterations == 0:
            raise ValueError("at least one test iteration required")
        attempts, elapsed_seconds, seeds, completed = columns
        if min(map(min, attempts)) < 1:
            raise ValueError("attempts must be >= 1")
        if any(e < 0 for column in elapsed_seconds for e in column):
            raise ValueError("elapsed_seconds must be >= 0")
        counts = [sum(column) for column in completed]
        for n, count in zip(prefix_lengths, counts):
            if count == 0:
                raise ValueError(
                    f"no trial of prefix length {n} completed within its attempt "
                    f"budget, so its mean attempts cannot be estimated"
                )
        attempts_avg = tuple(sum(column) / count for column, count in zip(attempts, counts))
        time_avg = tuple(sum(column) / count for column, count in zip(elapsed_seconds, counts))
        return cls(
            prefix_lengths, attempts, elapsed_seconds, seeds, completed, attempts_avg, time_avg
        )

    @property
    def iterations(self) -> int:
        return len(self.attempts[0])

    @cached_property
    def trials(self) -> tuple[tuple[TrialRecord, ...], ...]:
        """The matrix as rows of records, ``trials[iteration][column]``."""
        columns = [
            [TrialRecord(n, *cell) for cell in zip(*fields)]
            for n, *fields in zip(
                self.prefix_lengths, self.attempts, self.elapsed_seconds, self.seeds,
                self.completed,
            )
        ]
        return tuple(zip(*columns))

    def incomplete_cells(self) -> list[tuple[int, int]]:
        """(iteration, prefix_length) pairs whose trial hit its budget."""
        return [
            (i + 1, n)
            for i in range(self.iterations)
            for n, column in zip(self.prefix_lengths, self.completed)
            if not column[i]
        ]

    def to_csv(self, include_timing: bool = True) -> str:
        """Serialize as ``test,prefix_len,attempts,elapsed_seconds,seed,completed`` rows.

        Trial rows come first in (test, prefix) order, with ``completed``
        1 or 0, then one ``average`` row per prefix length, whose
        ``completed`` is the number of completed trials the mean divides by.
        With ``include_timing=False`` every elapsed value is written as 0 so
        repeated runs are byte-identical.
        """
        trials = [
            [i + 1, n, self.attempts[j][i], self.elapsed_seconds[j][i] if include_timing else 0,
             self.seeds[j][i], int(self.completed[j][i])]
            for i in range(self.iterations)
            for j, n in enumerate(self.prefix_lengths)
        ]
        averages = [
            ["average", n, self.attempts_averages[j],
             self.time_averages[j] if include_timing else 0, "", sum(self.completed[j])]
            for j, n in enumerate(self.prefix_lengths)
        ]
        return csv_text(MEASUREMENT_CSV_HEADER, trials + averages)


def read_measurement_csv(text: str) -> tuple[list[int], list[float], list[float]]:
    """Extract (prefix_lengths, attempts_averages, time_averages) from CSV text.

    Reads the ``average`` rows, one per prefix length, that end every
    measurement CSV this package writes and the bundled published matrix;
    trial rows are skipped. A file without ``average`` rows, an ``average``
    row short of a field and two ``average`` rows for one prefix length are
    rejected.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("empty measurements file")
    required = {"test", "prefix_len", "attempts", "elapsed_seconds"}
    missing = required - set(reader.fieldnames)
    if missing:
        raise ValueError(f"measurements file lacks columns: {sorted(missing)}")
    averages: dict[int, tuple[float, float]] = {}
    for row in reader:
        if row["test"] != "average":
            continue
        short = sorted(name for name in required if row[name] is None)
        if short:
            raise ValueError(f"line {reader.line_num}: average row lacks fields: {short}")
        n = int(row["prefix_len"])
        if n in averages:
            raise ValueError(f"line {reader.line_num}: second average row for prefix length {n}")
        averages[n] = (float(row["attempts"]), float(row["elapsed_seconds"]))
    if not averages:
        raise ValueError(
            "measurements file has no average rows (test=average, one per prefix length)"
        )
    lengths = sorted(averages)
    return lengths, [averages[n][0] for n in lengths], [averages[n][1] for n in lengths]


@dataclass(frozen=True)
class GrowthModel:
    """Measured base series plus the estimated per-character growth factors.

    ``time_growth_factor`` is None when the base times have none (one of
    them is not positive); seconds are then not projected, and the times
    need not be positive.
    """

    attempts_base: tuple[float, ...]
    times_base: tuple[float, ...]
    attempts_growth_factor: float
    time_growth_factor: float | None

    def __post_init__(self):
        if len(self.attempts_base) != len(self.times_base):
            raise ValueError("base series must have equal length")
        if not self.attempts_base:
            raise ValueError("cannot project from an empty base series")
        factors = (self.attempts_growth_factor, self.time_growth_factor)
        if any(f is not None and f <= 0 for f in factors):
            raise ValueError("growth factors must be positive")
        timed = self.time_growth_factor is not None
        for v in (*self.attempts_base, *(self.times_base if timed else ())):
            if v <= 0:
                raise ValueError(f"base values must be positive, got {v}")


@dataclass(frozen=True)
class ProjectionRow:
    """One prefix's estimates; ``seconds`` and ``hours`` are None when the
    projection has no time growth factor."""

    prefix_len: int
    text_part: str
    attempts: ScaledDecimal
    seconds: ScaledDecimal | None
    hours: ScaledDecimal | None
    region: str  # "measured" or "extrapolated"


@dataclass(frozen=True)
class ProjectionTable:
    """Per-prefix estimates: measured rows echo the base, the rest extrapolate."""

    rows: tuple[ProjectionRow, ...]

    @property
    def final(self) -> ProjectionRow:
        return self.rows[-1]

    def to_csv(self, rows: list[dict]) -> str:
        """``rows``, :meth:`to_json_rows` output, as CSV under
        ``PROJECTION_CSV_HEADER``, None as an empty field: the rows are
        formatted once for both projection files."""
        fields = operator.itemgetter(*PROJECTION_CSV_HEADER)
        return csv_text(PROJECTION_CSV_HEADER, map(fields, rows))

    def to_json_rows(self, fmt) -> list[dict]:
        """One dict per row; ``fmt`` maps a ScaledDecimal to its printed form
        (``str`` for the plain ``<mantissa>e<exponent>``). Seconds and hours
        that were not projected stay None: ``null`` in JSON, an empty CSV
        field.
        """
        return [
            {
                "prefix_len": row.prefix_len,
                "text_part": row.text_part,
                "attempts": fmt(row.attempts),
                "seconds": None if row.seconds is None else fmt(row.seconds),
                "hours": None if row.hours is None else fmt(row.hours),
                "region": row.region,
            }
            for row in self.rows
        ]
