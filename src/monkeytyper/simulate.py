"""Prefix-matching trial loop: seeded candidate generation at desk scale.

A trial repeatedly generates fresh fixed-length candidate strings until one
equals the target prefix (restart semantics: no characters are reused between
candidates). Attempts are counted exactly, including the successful candidate.

Determinism contract (stream version 4)
---------------------------------------
Each candidate of length ``n`` over an alphabet of size ``A`` is one uniform
integer in ``[0, A^n)``, drawn from a PCG64 stream keyed by its seed alone
(entropy ``(seed, 0)``); the candidate string is that integer's ``n``
big-endian base-``A`` digits. It matches when the integer equals the
prefix's key ``sum(code_i * A^(n-1-i))``. A key must fit in a uint64, so
``A^n`` may be at most ``2^64``; larger candidate spaces are rejected up
front, since such a trial expects at least ``1.8e19`` attempts and could
never finish.

Lanes. Up to ``2^32`` a candidate is one lane of the stream's raw 64-bit
words, ``W`` bits wide, low lane first: ``W`` is the width of
``np.min_scalar_type(A^n - 1)``, 8, 16 or 32 bits, the narrowest dtype
numpy's bounded draw of ``[0, A^n)`` uses. A lane ``w`` maps to
``(w * A^n) >> W`` by Lemire's multiply-shift, and is rejected, drawing the
next lane, when ``w * A^n mod 2^W`` falls below ``(2^W - A^n) mod A^n``.
The candidates are those of one ``Generator.integers(0, A^n, dtype=...)``
call at that dtype; the tests compare the two at every width and on every
boundary case. Spaces above ``2^32`` draw whole words, as numpy's 64-bit
bounded draw does. On both paths the kernel reads whole words only, so no
attempt count depends on how the draws are cut into batches.

Matching. Up to ``2^32`` the kernel does not build the integers. A
candidate equals the key exactly when its accepted lane lies in the key's
interval ``[ceil(key * 2^W / A^n), ceil((key + 1) * 2^W / A^n))``, so the
kernel tests raw lanes against that interval and counts the rejected ones,
whole arrays at a time.

Blocks. The trials of prefix length ``n`` form blocks of
``K_n = max(1, 2^20 // A^n)`` consecutive iterations: ``1..K_n``,
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
* Where ``K_n = 1`` (``A^n > 2^19``) a block is one trial on its own
  stream. Its lanes are 32 or 64 bits wide there, so those cells draw
  exactly as in stream versions 2 and 3.

Trial ``j`` (0-based) of a block is therefore the ``j + 1``-th gap of
``RngStream(record.seed)``, and the first trials of a block do not depend
on how many follow, so a run's attempts matrix is the leading rows of any
longer run's. Blocks do not depend on ``worker_count``, which only caps how
many blocks run at once: the matrix is the same for any worker count and
any scheduling. A trial's elapsed time is its share of its block's wall
time, in proportion to its attempts.

Stream version 3 had blocks of ``max(1, 2^16 // A^n)`` iterations and
32-bit lanes at every space up to ``2^32``; version 2 gave every trial its
own stream; version 1 drew ``n`` symbols per candidate. Manifests written
under an earlier version reproduce only under it. ``STREAM_VERSION`` names
the current stream; every manifest of a command that simulates records it.
Wall-clock times are measured with a monotonic clock and are explicitly
outside the determinism guarantee.

Results are columns. A block comes back as plain lists, its trials'
attempts and completed flags, plus its wall time; ``run_experiment``
appends them to one column per prefix length and builds the
:class:`~monkeytyper.model.MeasurementTable` from those columns. No
:class:`~monkeytyper.model.TrialRecord` is built on the way: the table's
``trials`` view builds the rows on first access, and ``run_prefix_trial``
returns the one record of its one-trial block.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DEFAULT_ATTEMPT_BUDGET, NO_COMPLETED_TRIAL, Alphabet, MeasurementTable, TargetText, TrialRecord
)

# Raw 64-bit words per batch at most, as many candidates as they hold lanes;
# below it a batch draws its open trials' mean need, A^n each. Its 128 KiB
# keep malloc on the same heap pages; at twice the size they were faulted in
# afresh per batch, at half the speed.
_MAX_WORDS = 1 << 14

#: Candidates a block spans at most, ``K_n * A^n <= 2^20`` (see the module
#: docstring); a part of the stream contract.
_BLOCK_CANDIDATES = 1 << 20

#: Version of the candidate stream described in the module docstring.
STREAM_VERSION = 4


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


def _lane_bits(space: int) -> int:
    """``W``, the bits of one candidate: numpy's narrowest bounded draw of ``[0, space)``."""
    return 8 * np.min_scalar_type(space - 1).itemsize


def _prefix_key(target: TargetText, prefix_length: int, alphabet: Alphabet) -> tuple[int, int]:
    """Validate a prefix of ``target``; return its key and its candidate space.

    The space ``A^n`` may be at most ``2^64``: above it keys no longer fit
    in a uint64 and a trial could never finish.
    """
    if not 1 <= prefix_length <= target.length:
        raise ValueError(
            f"prefix_length {prefix_length} outside 1..{target.length}"
        )
    codes = alphabet.encode(target.text[:prefix_length])
    space = alphabet.size**prefix_length
    if space > 2**64:
        raise ValueError(
            f"alphabet size {alphabet.size} to the power {prefix_length} exceeds 2^64 "
            f"candidates; no trial of that length can finish"
        )
    key = 0
    for code in codes:
        key = key * alphabet.size + code
    return key, space


def _matches(
    rng: RngStream, key: int, space: int, bits: int, rows: int
) -> tuple[np.ndarray, int]:
    """Draw about ``rows`` candidates from ``[0, space)`` as ``bits``-wide
    lanes; return the indices of those equal to ``key`` and the number of
    candidates drawn.

    Up to ``2^32`` this matches the lanes of ``ceil(rows * bits / 64)`` raw
    64-bit words against the key's interval (see the module docstring).
    Only the interval's first lane can be rejected, so the start moves up by
    one when it is; a hit's position drops by the rejected lanes before it.
    Space 1 reads no word (every candidate is 0); 64-bit lanes draw through
    :meth:`RngStream.draw_codes`.
    """
    if bits == 64:
        return (rng.draw_codes(rows, space) == np.uint64(key)).nonzero()[0], rows
    if space == 1:
        return np.arange(rows), rows
    raw = rng._generator.bit_generator.random_raw(-(-rows * bits // 64))
    dtype = np.dtype(f"<u{bits // 8}")
    lanes = raw.astype("<u8", copy=False).view(dtype)  # low lane first on any host
    lo, hi = (-(-(k << bits) // space) for k in (key, key + 1))
    threshold = ((1 << bits) - space) % space
    if lo * space - (key << bits) < threshold:
        lo += 1
    # One scratch array and one mask, reused by the rejection test.
    scratch = np.subtract(lanes, dtype.type(lo))
    mask = np.less(scratch, dtype.type(hi - lo))
    hits = np.flatnonzero(mask)
    if not threshold:  # a power of two: no lane is rejected
        return hits, lanes.size
    np.multiply(lanes, dtype.type(space), out=scratch)
    np.less(scratch, dtype.type(threshold), out=mask)
    if not hits.size:
        return hits, lanes.size - np.count_nonzero(mask)
    rejected = np.flatnonzero(mask)
    return hits - rejected.searchsorted(hits), lanes.size - rejected.size


def _run_block(
    key: int,
    space: int,
    rng: RngStream,
    trials: int,
    budget: int | None,
) -> tuple[list[int], list[bool], float]:
    """The first ``trials`` trials of the block drawn from ``rng``.

    They are the successive gaps between matches of ``key``, each cut short
    after ``budget`` candidates (see the module docstring). Returns plain
    lists, the attempts and the completed flag of each trial in order, and
    the block's wall-clock seconds; callers build records or table columns
    from them.
    """
    limit = math.inf if budget is None else budget
    bits = _lane_bits(space)
    attempts: list[int] = []
    completed: list[bool] = []
    start = drawn = 0  # stream positions: the open trial's first candidate, the next draw
    clock = time.perf_counter()
    while len(attempts) < trials:
        left = trials - len(attempts)
        rows = min(_MAX_WORDS * 64 // bits, left * space, start + left * limit - drawn)
        hits, count = _matches(rng, key, space, bits, rows)
        hits += drawn
        drawn += count
        # The batch end closes, incomplete, every trial whose budget it passed.
        for position in [*hits.tolist(), drawn]:
            while position - start >= limit and len(attempts) < trials:
                attempts.append(budget)
                completed.append(False)
                start += budget
            if position == drawn or len(attempts) == trials:
                break
            attempts.append(position - start + 1)
            completed.append(True)
            start = position + 1
    return attempts, completed, time.perf_counter() - clock


def run_prefix_trial(
    target: TargetText,
    prefix_length: int,
    alphabet: Alphabet,
    rng: RngStream,
    budget: int | None = DEFAULT_ATTEMPT_BUDGET,
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
    (attempts,), (completed,), elapsed = _run_block(key, space, rng, 1, budget)
    return TrialRecord(prefix_length, attempts, elapsed, rng.seed, completed)


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
    attempt_budget: int | None = DEFAULT_ATTEMPT_BUDGET
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
    not trials, are scheduled on ``worker_count`` threads, but on no more
    threads than there are blocks or CPUs. Blocks do not depend on the
    worker count, and results are assembled in canonical order, so the
    attempts matrix is identical for any ``worker_count`` and any
    scheduling. Every prefix is validated before any trial: one with a
    character outside ``config.alphabet``, or whose candidate space exceeds
    ``2^64``, is rejected. A column with no completed trial fails the run as
    soon as its last block returns; a pool cancels the blocks not yet started.
    """
    prefix_lengths = range(1, config.max_prefix_length + 1)
    keys = {n: _prefix_key(config.target, n, config.alphabet) for n in prefix_lengths}
    blocks = [
        (n, first, min(size, config.iterations + 1 - first))
        for n in prefix_lengths
        for size in [_block_size(config.alphabet.size, n)]
        for first in range(1, config.iterations + 1, size)
    ]

    def run_block(block: tuple[int, int, int]) -> tuple[int, list[int], list[bool], float]:
        n, first, trials = block
        stream = RngStream(derive_trial_seed(config.seed, first, n))
        return (stream.seed, *_run_block(*keys[n], stream, trials, config.attempt_budget))

    workers = min(config.worker_count, len(blocks), os.cpu_count() or 1)
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # a serial run never loads it
        pool = ThreadPoolExecutor(max_workers=workers)

    # One list per prefix length and field, in iteration order.
    columns = {n: ([], [], [], []) for n in prefix_lengths}
    try:
        results = (pool.map if pool else map)(run_block, blocks)  # yields in block order
        for (n, first, trials), (seed, attempts, completed, seconds) in zip(blocks, results):
            column_attempts, column_elapsed, column_seeds, column_completed = columns[n]
            total = sum(attempts)
            column_attempts += attempts
            column_elapsed += [seconds * a / total for a in attempts]
            column_seeds += [seed] * len(attempts)
            column_completed += completed
            if first + trials > config.iterations and not any(column_completed):
                raise ValueError(NO_COMPLETED_TRIAL.format(n))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return MeasurementTable.from_trials(prefix_lengths, *zip(*columns.values()))
