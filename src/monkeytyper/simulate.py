"""Prefix-matching trial loop: seeded candidate generation at desk scale.

A trial repeatedly generates fresh fixed-length candidate strings until one
equals the target prefix (restart semantics: no characters are reused between
candidates). Attempts are counted exactly, including the successful candidate.

Determinism contract (stream version 2)
---------------------------------------
Each candidate of length ``n`` over an alphabet of size ``A`` is one uniform
integer in ``[0, A^n)``, drawn as a bounded uint64 from a PCG64 stream keyed
by its seed alone (entropy ``(seed, 0)``); the candidate string is that
integer's ``n`` big-endian base-``A`` digits. It matches when the integer
equals the prefix's key ``sum(code_i * A^(n-1-i))``. Bounds up to ``2^32``
take numpy's buffered 32-bit path and larger ones its 64-bit path; on both,
the drawn sequence does not depend on how draws are partitioned into
batches, so the attempt count of a trial is a pure function of its seed, no
matter the internal batch size or how many workers run concurrently.
(Regression tests pin this partition invariance at a 32-bit and a 64-bit
bound.) A key must fit in a uint64, so ``A^n`` may be at most ``2^64``;
larger candidate spaces are rejected up front, since such a trial expects at
least ``1.8e19`` attempts and could never finish.

Stream version 1 drew ``n`` symbols per candidate; manifests written under
it reproduce only under version 1. ``STREAM_VERSION`` names the current
stream; every manifest of a command that simulates records it.
Wall-clock times are measured with a monotonic clock and are explicitly
outside the determinism guarantee.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import Alphabet, AlphabetMismatchError, MeasurementTable, TargetText, TrialRecord

_MIN_BATCH = 64
_MAX_BATCH = 1 << 16

#: Version of the candidate stream described in the module docstring.
STREAM_VERSION = 2

#: Default per-trial attempt cap; keeps prefix lengths >= 6 from running
#: effectively forever while still being far above any measured mean here.
DEFAULT_ATTEMPT_BUDGET = 10**10


@dataclass
class RngStream:
    """A deterministic source of bounded integers keyed by ``seed``.

    Identical seeds yield identical draw sequences.
    """

    seed: int
    _generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        # The fixed second entropy word keeps the streams of stream version 2.
        sequence = np.random.SeedSequence((self.seed, 0))
        self._generator = np.random.Generator(np.random.PCG64(sequence))

    def draw_codes(self, count: int, bound: int) -> np.ndarray:
        """Draw ``count`` uniform integers in ``[0, bound)``, ``bound <= 2^64``."""
        return self._generator.integers(0, bound, size=count, dtype=np.uint64)


def derive_trial_seed(seed: int, iteration: int, prefix_length: int) -> int:
    """Collapse (experiment seed, iteration, prefix length) into one 64-bit seed.

    The derived value alone reproduces the trial: feed it to
    ``RngStream(seed=derived)``. It is what lands in ``TrialRecord.seed``.
    """
    sequence = np.random.SeedSequence((seed, iteration, prefix_length))
    return int(sequence.generate_state(1, np.uint64)[0])


def _batch_rows(alphabet_size: int, prefix_length: int) -> int:
    # Scale the batch to the expected waiting time so short waits do not
    # over-draw; the drawn candidate sequence itself is batch-size invariant.
    expected = alphabet_size**prefix_length
    if expected >= _MAX_BATCH:
        return _MAX_BATCH
    return max(_MIN_BATCH, 2 * expected)


def _candidate_space(alphabet_size: int, length: int) -> int:
    """``alphabet_size ** length``, the number of distinct candidates.

    Raises ``ValueError`` above ``2^64``, where keys no longer fit in a
    uint64 and a trial could never finish.
    """
    space = alphabet_size**length
    if space > 2**64:
        raise ValueError(
            f"alphabet size {alphabet_size} to the power {length} exceeds 2^64 "
            f"candidates; no trial of that length can finish"
        )
    return space


def _key(codes: np.ndarray, alphabet_size: int) -> int:
    """The integer whose big-endian base-``alphabet_size`` digits are ``codes``."""
    key = 0
    for code in codes:
        key = key * alphabet_size + int(code)
    return key


def _draw_and_match(rng: RngStream, key: int, space: int, rows: int) -> int:
    """Draw ``rows`` candidates from ``[0, space)``; return the index of the
    first one equal to ``key``, or -1."""
    hits = np.flatnonzero(rng.draw_codes(rows, space) == np.uint64(key))
    return int(hits[0]) if hits.size else -1


def run_prefix_trial(
    target: TargetText,
    prefix_length: int,
    alphabet: Alphabet,
    rng: RngStream,
    budget: Optional[int] = DEFAULT_ATTEMPT_BUDGET,
) -> TrialRecord:
    """Generate fresh candidates until one equals the target prefix.

    Returns the exact number of candidates generated (the successful one
    included) and the wall-clock seconds the loop took. If ``budget``
    attempts pass without a match the record comes back with
    ``completed=False`` and the attempt count so far. Raises ``ValueError``
    when ``alphabet.size ** prefix_length`` exceeds ``2^64``.
    """
    if not 1 <= prefix_length <= target.length:
        raise ValueError(
            f"prefix_length {prefix_length} outside 1..{target.length}"
        )
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    prefix = target.text[:prefix_length]
    missing = alphabet.missing_from(prefix)
    if missing:
        raise AlphabetMismatchError(missing, context=f"target prefix {prefix!r}")

    space = _candidate_space(alphabet.size, prefix_length)
    key = _key(alphabet.encode(prefix), alphabet.size)
    batch = _batch_rows(alphabet.size, prefix_length)
    attempts = 0
    start = time.perf_counter()
    while True:
        rows = batch if budget is None else min(batch, budget - attempts)
        hit = _draw_and_match(rng, key, space, rows)
        completed = hit >= 0
        attempts += hit + 1 if completed else rows
        if completed or (budget is not None and attempts >= budget):
            elapsed = time.perf_counter() - start
            return TrialRecord(prefix_length, attempts, elapsed, rng.seed, completed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a measurement run needs, seed included."""

    target: TargetText
    alphabet: Alphabet
    max_prefix_length: int = 5
    iterations: int = 10
    seed: int = 0
    attempt_budget: Optional[int] = DEFAULT_ATTEMPT_BUDGET
    worker_count: int = 1
    auto_extend_alphabet: bool = False

    def __post_init__(self):
        if not 1 <= self.max_prefix_length <= self.target.length:
            raise ValueError(
                f"max_prefix_length {self.max_prefix_length} outside "
                f"1..{self.target.length}"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.attempt_budget is not None and self.attempt_budget < 1:
            raise ValueError("attempt_budget must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")

    def effective_alphabet(self) -> Alphabet:
        """The alphabet trials will draw from, auto-extended when opted in.

        Without the opt-in, a target prefix containing out-of-alphabet
        characters is a hard error; the trial could never succeed.
        """
        covered = self.target.text[: self.max_prefix_length]
        missing = self.alphabet.missing_from(covered)
        if not missing:
            return self.alphabet
        if self.auto_extend_alphabet:
            return self.alphabet.extended_with(covered)
        raise AlphabetMismatchError(missing, context=f"target prefix {covered!r}")


def run_experiment(config: ExperimentConfig) -> MeasurementTable:
    """Run the full iteration x prefix-length trial matrix.

    Every trial draws from its own stream derived from
    ``(seed, iteration, prefix_length)``, and results are assembled in
    canonical order, so the attempts matrix is identical for any
    ``worker_count`` and any scheduling of the trials. A longest prefix
    whose candidate space exceeds ``2^64`` is rejected before any trial.
    """
    alphabet = config.effective_alphabet()
    _candidate_space(alphabet.size, config.max_prefix_length)
    prefix_lengths = list(range(1, config.max_prefix_length + 1))
    tasks = [
        (iteration, n)
        for iteration in range(1, config.iterations + 1)
        for n in prefix_lengths
    ]

    def run_one(task: tuple[int, int]) -> tuple[tuple[int, int], TrialRecord]:
        iteration, n = task
        stream = RngStream(derive_trial_seed(config.seed, iteration, n))
        record = run_prefix_trial(
            config.target, n, alphabet, stream, config.attempt_budget
        )
        return task, record

    if config.worker_count == 1:
        results = dict(map(run_one, tasks))
    else:
        with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
            results = dict(pool.map(run_one, tasks))

    rows = [
        [results[(iteration, n)] for n in prefix_lengths]
        for iteration in range(1, config.iterations + 1)
    ]
    return MeasurementTable.from_trials(prefix_lengths, rows)


def measure_throughput(
    alphabet: Alphabet, length: int, duration_seconds: float = 0.25
) -> float:
    """Candidate generations per second for this alphabet and length.

    Generates and compares candidates against a fixed prefix, through the
    trial kernel's draw-and-match step, in whole batches until
    ``duration_seconds`` have passed (at least one batch), and returns
    count / elapsed. This is the preferred way to turn projected attempt
    counts into projected durations: it sidesteps the noisy per-trial wall
    clocks.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")

    space = _candidate_space(alphabet.size, length)
    key = _key(np.arange(length) % alphabet.size, alphabet.size)
    stream = RngStream(0)
    generated = 0
    start = time.perf_counter()
    while True:
        _draw_and_match(stream, key, space, _MAX_BATCH)
        generated += _MAX_BATCH
        elapsed = time.perf_counter() - start
        if elapsed >= duration_seconds:
            return generated / max(elapsed, 1e-9)
