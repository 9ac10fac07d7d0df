"""Prefix-matching trial loop: seeded candidate generation at desk scale.

A trial repeatedly generates fresh fixed-length candidate strings until one
equals the target prefix (restart semantics: no characters are reused between
candidates). Attempts are counted exactly, including the successful candidate.

Determinism contract (stream version 3)
---------------------------------------
Each candidate of length ``n`` over an alphabet of size ``A`` is one uniform
integer in ``[0, A^n)``, drawn as a bounded uint64 from a PCG64 stream keyed
by its seed alone (entropy ``(seed, 0)``); the candidate string is that
integer's ``n`` big-endian base-``A`` digits. It matches when the integer
equals the prefix's key ``sum(code_i * A^(n-1-i))``. Bounds up to ``2^32``
take numpy's buffered 32-bit path and larger ones its 64-bit path; on both,
the drawn sequence does not depend on how draws are partitioned into
batches, so no attempt count depends on the internal batch size. (Regression
tests pin this partition invariance at a 32-bit and a 64-bit bound.) A key
must fit in a uint64, so ``A^n`` may be at most ``2^64``; larger candidate
spaces are rejected up front, since such a trial expects at least ``1.8e19``
attempts and could never finish.

Blocks. The trials of prefix length ``n`` form blocks of
``K_n = max(1, 2^16 // A^n)`` consecutive iterations: ``1..K_n``,
``K_n+1..2*K_n`` and so on, the last block cut at the iteration count.
``K_n`` is part of the contract, not a setting.

* Seeds: a block draws from the one stream
  ``RngStream(derive_trial_seed(seed, i, n))``, where ``i`` is the block's
  first iteration. Every trial of the block records that seed.
* Gaps: the block's trials are the successive gaps between matches in that
  stream. A trial starts at the candidate after the previous trial's last
  one and ends at the first match. Candidates are i.i.d. uniform, so the
  gaps are i.i.d. geometric, the distribution restart semantics gives.
* Budget carry-over: a trial with a budget ends, incomplete, after
  ``budget`` candidates without a match, and the next trial starts right
  after them.
* Where ``K_n = 1`` (``A^n > 2^15``) a block is one trial on its own
  stream, exactly as in stream version 2.

Trial ``j`` (0-based) of a block is therefore the ``j + 1``-th gap of
``RngStream(record.seed)``, and the first trials of a block do not depend
on how many follow, so a run's attempts matrix is the leading rows of any
longer run's. Blocks do not depend on ``worker_count``, which only sets how
many blocks run at once: the matrix is the same for any worker count and
any scheduling. A trial's elapsed time is its share of its block's wall
time, in proportion to its attempts.

Stream version 2 gave every trial its own stream; version 1 drew ``n``
symbols per candidate. Manifests written under an earlier version reproduce
only under it. ``STREAM_VERSION`` names the current stream; every manifest
of a command that simulates records it. Wall-clock times are measured with a
monotonic clock and are explicitly outside the determinism guarantee.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import Alphabet, AlphabetMismatchError, MeasurementTable, TargetText, TrialRecord

_MIN_BATCH = 64
_MAX_BATCH = 1 << 16

#: Candidates a block spans at most, ``K_n * A^n <= 2^16`` (see the module
#: docstring); a part of the stream contract.
_BLOCK_CANDIDATES = 1 << 16

#: Version of the candidate stream described in the module docstring.
STREAM_VERSION = 3

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

    ``run_experiment`` calls it once per block, with the block's first
    iteration. The derived value alone reproduces the block: its trials are
    the successive gaps between matches in ``RngStream(seed=derived)``. It is
    what lands in the ``TrialRecord.seed`` of every trial of the block.
    """
    sequence = np.random.SeedSequence((seed, iteration, prefix_length))
    return int(sequence.generate_state(1, np.uint64)[0])


def _block_size(alphabet_size: int, prefix_length: int) -> int:
    """``K_n``, the number of consecutive iterations that share one stream."""
    return max(1, _BLOCK_CANDIDATES // alphabet_size**prefix_length)


def _batch_rows(space: int, trials: int) -> int:
    # About one standard deviation past the expected wait for ``trials``
    # matches, so a block mostly needs one draw and over-draws little; the
    # drawn candidate sequence itself is batch-size invariant.
    rows = (trials + math.isqrt(trials)) * space
    return min(_MAX_BATCH, max(_MIN_BATCH, rows))


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


def _prefix_key(target: TargetText, prefix_length: int, alphabet: Alphabet) -> tuple[int, int]:
    """Validate a prefix of ``target``; return its key and its candidate space."""
    if not 1 <= prefix_length <= target.length:
        raise ValueError(
            f"prefix_length {prefix_length} outside 1..{target.length}"
        )
    prefix = target.text[:prefix_length]
    missing = alphabet.missing_from(prefix)
    if missing:
        raise AlphabetMismatchError(missing, context=f"target prefix {prefix!r}")
    space = _candidate_space(alphabet.size, prefix_length)
    key = 0
    for code in alphabet.encode(prefix):
        key = key * alphabet.size + int(code)
    return key, space


def _matches(rng: RngStream, key: int, space: int, rows: int) -> np.ndarray:
    """Draw ``rows`` candidates from ``[0, space)``; return the indices of
    those equal to ``key``."""
    return (rng.draw_codes(rows, space) == np.uint64(key)).nonzero()[0]


def _run_block(
    prefix_length: int,
    key: int,
    space: int,
    rng: RngStream,
    trials: int,
    budget: Optional[int],
) -> list[TrialRecord]:
    """The first ``trials`` trials of the block drawn from ``rng``.

    They are the successive gaps between matches of ``key``, each cut short
    after ``budget`` candidates (see the module docstring).
    """
    limit = math.inf if budget is None else budget
    found: list[tuple[int, bool]] = []  # (attempts, completed) per trial
    start = drawn = 0  # stream positions: the open trial's first candidate, the next draw
    clock = time.perf_counter()
    while len(found) < trials:
        left = trials - len(found)
        rows = min(_batch_rows(space, left), start + left * limit - drawn)
        hits = _matches(rng, key, space, rows) + drawn
        drawn += rows
        # The batch end closes, incomplete, every trial whose budget it passed.
        for position in [*hits.tolist(), drawn]:
            while position - start >= limit and len(found) < trials:
                found.append((budget, False))
                start += budget
            if position == drawn or len(found) == trials:
                break
            found.append((position - start + 1, True))
            start = position + 1
    elapsed = time.perf_counter() - clock
    total = sum(attempts for attempts, _ in found)
    return [
        TrialRecord(prefix_length, attempts, elapsed * attempts / total, rng.seed, completed)
        for attempts, completed in found
    ]


def run_prefix_trial(
    target: TargetText,
    prefix_length: int,
    alphabet: Alphabet,
    rng: RngStream,
    budget: Optional[int] = DEFAULT_ATTEMPT_BUDGET,
) -> TrialRecord:
    """Generate fresh candidates until one equals the target prefix.

    This is the one-trial block of the kernel ``run_experiment`` runs: the
    first gap between matches in ``rng``. Returns the exact number of
    candidates generated (the successful one included) and the wall-clock
    seconds the loop took. If ``budget`` attempts pass without a match the
    record comes back with ``completed=False`` and the attempt count so far.
    Raises ``ValueError`` when ``alphabet.size ** prefix_length`` exceeds
    ``2^64``.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    key, space = _prefix_key(target, prefix_length, alphabet)
    return _run_block(prefix_length, key, space, rng, 1, budget)[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a measurement run needs, seed included.

    Trials draw from ``alphabet`` as given; ``Alphabet.extended_with`` builds
    one that covers the target.
    """

    target: TargetText
    alphabet: Alphabet
    max_prefix_length: int = 5
    iterations: int = 10
    seed: int = 0
    attempt_budget: Optional[int] = DEFAULT_ATTEMPT_BUDGET
    worker_count: int = 1

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


def run_experiment(config: ExperimentConfig) -> MeasurementTable:
    """Run the full iteration x prefix-length trial matrix.

    The trials of each prefix length run in blocks of consecutive
    iterations that share one stream (see the module docstring); blocks,
    not trials, are scheduled on ``worker_count`` threads. Blocks do not
    depend on the worker count, and results are assembled in canonical
    order, so the attempts matrix is identical for any ``worker_count`` and
    any scheduling. Every prefix is validated before any trial: one with a
    character outside ``config.alphabet``, or whose candidate space exceeds
    ``2^64``, is rejected.
    """
    prefix_lengths = range(1, config.max_prefix_length + 1)
    keys = {n: _prefix_key(config.target, n, config.alphabet) for n in prefix_lengths}
    blocks = [
        (n, first, min(size, config.iterations + 1 - first))
        for n in prefix_lengths
        for size in [_block_size(config.alphabet.size, n)]
        for first in range(1, config.iterations + 1, size)
    ]

    def run_block(block: tuple[int, int, int]) -> list[TrialRecord]:
        n, first, trials = block
        stream = RngStream(derive_trial_seed(config.seed, first, n))
        return _run_block(n, *keys[n], stream, trials, config.attempt_budget)

    if config.worker_count == 1:
        results = list(map(run_block, blocks))
    else:
        with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
            results = list(pool.map(run_block, blocks))

    columns: dict[int, list[TrialRecord]] = {n: [] for n in prefix_lengths}
    for (n, _, _), records in zip(blocks, results):
        columns[n].extend(records)
    return MeasurementTable.from_trials(prefix_lengths, list(zip(*columns.values())))


def measure_throughput(
    alphabet: Alphabet, length: int, duration_seconds: float = 0.25
) -> float:
    """Candidate generations per second for this alphabet and length.

    Draws candidates and compares them with key 0 through the trial
    kernel's draw-and-match step, in whole batches until
    ``duration_seconds`` have passed (at least one batch), and returns
    count / elapsed. Any key costs the same: one uniform draw and one
    compare per candidate. This is the preferred way to turn projected
    attempt counts into projected durations: it sidesteps the noisy
    per-trial wall clocks.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")

    space = _candidate_space(alphabet.size, length)
    stream = RngStream(0)
    generated = 0
    start = time.perf_counter()
    while True:
        _matches(stream, 0, space, _MAX_BATCH)
        generated += _MAX_BATCH
        elapsed = time.perf_counter() - start
        if elapsed >= duration_seconds:
            return generated / max(elapsed, 1e-9)
