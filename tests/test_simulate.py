import dataclasses
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from monkeytyper import (
    LETTERS_AND_SPACE,
    Alphabet,
    AlphabetMismatchError,
    ExperimentConfig,
    RngStream,
    TargetText,
    derive_trial_seed,
    measure_throughput,
    run_experiment,
    run_prefix_trial,
)
from monkeytyper import simulate
from monkeytyper.simulate import _block_size, _prefix_key, _run_block

AB = Alphabet("ab")


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42).draw_codes(256, 53)
        b = RngStream(42).draw_codes(256, 53)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(42).draw_codes(256, 53)
        b = RngStream(43).draw_codes(256, 53)
        assert not np.array_equal(a, b)

    def test_uniformity_chi_square(self):
        # 10^6 draws bounded by the 53-symbol alphabet; the statistic is
        # computed directly and compared to the chi-square critical value at
        # significance 0.001 with 52 degrees of freedom
        stream = RngStream(123)
        counts = Counter()
        draws = 1_000_000
        for _ in range(draws // 500):
            counts.update(stream.draw_codes(500, 53).tolist())
        assert sum(counts.values()) == draws
        assert len(counts) == 53
        expected = draws / 53
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        assert statistic < stats.chi2.ppf(0.999, df=52)

    def test_draws_are_partition_invariant(self):
        # the whole determinism story rests on this: how draws are batched
        # must not change the drawn sequence
        whole = RngStream(9).draw_codes(1200, 53)
        split_stream = RngStream(9)
        split = np.concatenate(
            [split_stream.draw_codes(k, 53) for k in (1, 7, 92, 1100)]
        )
        assert np.array_equal(whole, split)

    @pytest.mark.parametrize("bound", [53**4, 53**6], ids=["32-bit", "64-bit"])
    def test_candidate_draws_are_partition_invariant(self, bound):
        # numpy draws bounds up to 2^32 from half-words, larger ones from
        # whole words; odd split sizes leave a half-word over between calls
        whole = RngStream(9).draw_codes(1200, bound)
        split_stream = RngStream(9)
        split = np.concatenate(
            [split_stream.draw_codes(k, bound) for k in (1, 7, 93, 1099)]
        )
        assert np.array_equal(whole, split)

    def test_decoded_candidate_digits_are_uniform(self):
        # 10^5 candidates of length 4 over 53 symbols, drawn as the trial
        # kernel draws them; each digit position against the chi-square
        # critical value at significance 0.001 with 52 degrees of freedom
        draws = 100_000
        codes = RngStream(123).draw_codes(draws, 53**4)
        expected = draws / 53
        for position in range(4):
            digits = codes // 53 ** (3 - position) % 53
            counts = np.bincount(digits.astype(np.int64), minlength=53)
            statistic = ((counts - expected) ** 2 / expected).sum()
            assert statistic < stats.chi2.ppf(0.999, df=52), position

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)


def test_derive_trial_seed_is_stable_and_distinct():
    assert derive_trial_seed(42, 1, 2) == derive_trial_seed(42, 1, 2)
    seeds = {derive_trial_seed(42, it, n) for it in range(1, 11) for n in range(1, 6)}
    assert len(seeds) == 50


class TestRunPrefixTrial:
    def test_single_symbol_alphabet_needs_exactly_one_attempt(self):
        rec = run_prefix_trial(TargetText("aaaa"), 3, Alphabet("a"), RngStream(1))
        assert rec.attempts == 1  # the successful candidate counts, nothing else
        assert rec.completed and rec.elapsed_seconds >= 0

    def test_deterministic_given_stream_key(self):
        first = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=None)
        again = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=None)
        assert first.attempts == again.attempts == 4

    def test_out_of_alphabet_prefix_rejected_before_generation(self):
        with pytest.raises(AlphabetMismatchError, match="','"):
            run_prefix_trial(TargetText("To be, or"), 7, LETTERS_AND_SPACE, RngStream(1))

    def test_prefix_length_bounds(self):
        with pytest.raises(ValueError):
            run_prefix_trial(TargetText("ab"), 3, AB, RngStream(1))
        with pytest.raises(ValueError):
            run_prefix_trial(TargetText("ab"), 0, AB, RngStream(1))

    def test_budget_exhaustion_is_reported_not_raised(self):
        # seed 0 needs 4 attempts unconstrained, so a budget of 2 must stop it
        rec = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=2)
        assert rec.completed is False
        assert rec.attempts == 2

    def test_candidate_space_is_capped_at_2_to_the_64(self):
        # 2^64 candidates still fit a uint64 key; 2^65 cannot
        rec = run_prefix_trial(TargetText("a" * 64), 64, AB, RngStream(1), budget=5)
        assert (rec.attempts, rec.completed) == (5, False)
        with pytest.raises(ValueError, match=r"alphabet size 2 .* 65 exceeds 2\^64"):
            run_prefix_trial(TargetText("a" * 65), 65, AB, RngStream(1), budget=5)

    def test_budget_does_not_change_the_found_attempt_count(self):
        free = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=None)
        capped = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=10**6)
        assert free.attempts == capped.attempts

    def test_geometric_mean_two_symbols(self):
        # E[attempts] = 2 for a length-1 prefix over two symbols
        stream = RngStream(2024)
        mean = statistics.mean(
            run_prefix_trial(TargetText("a"), 1, AB, stream).attempts
            for _ in range(10_000)
        )
        assert 1.9 <= mean <= 2.1

    @pytest.mark.parametrize(
        "size,n,trials,seed",
        [(2, 3, 1000, 11), (10, 2, 1000, 12), (53, 1, 1000, 13)],
    )
    def test_sample_mean_tracks_geometric_expectation(self, size, n, trials, seed):
        alphabet = Alphabet(LETTERS_AND_SPACE.symbols[:size])
        target = TargetText(alphabet.symbols[0] * n)
        stream = RngStream(seed)
        mean = statistics.mean(
            run_prefix_trial(target, n, alphabet, stream).attempts
            for _ in range(trials)
        )
        expectation = size**n
        assert abs(mean - expectation) <= 3 * expectation / trials**0.5


def decode_then_compare_trial(target, n, alphabet, rng, budget):
    """Reference trial: decode every drawn integer into its n big-endian
    base-A digits in plain Python and compare the string with the prefix.
    The kernel must agree with it draw for draw. It draws in batches of its
    own size: the drawn sequence does not depend on the partition."""
    prefix = target.text[:n]
    size = alphabet.size
    batch = 4096
    attempts = 0
    while True:
        rows = batch if budget is None else min(batch, budget - attempts)
        for row, value in enumerate(rng.draw_codes(rows, size**n)):
            value = int(value)
            digits = []
            for _ in range(n):
                value, digit = divmod(value, size)
                digits.append(digit)
            if alphabet.decode(reversed(digits)) == prefix:
                return attempts + row + 1, True, rng.seed
        attempts += rows
        if budget is not None and attempts >= budget:
            return attempts, False, rng.seed


class TestIntegerCandidateMatch:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(1, 6),
        n=st.integers(1, 7),
        seed=st.integers(0, 2**64 - 1),
        budget=st.one_of(
            st.none(), st.sampled_from([1, 63, 64, 65]), st.integers(1, 10**6)
        ),
    )
    def test_agrees_with_decode_then_compare(self, data, size, n, seed, budget):
        alphabet = Alphabet("abcdef"[:size])
        text = data.draw(st.text(alphabet=alphabet.symbols, min_size=n, max_size=n))
        target = TargetText(text)
        rec = run_prefix_trial(target, n, alphabet, RngStream(seed), budget)
        expected = decode_then_compare_trial(target, n, alphabet, RngStream(seed), budget)
        assert (rec.attempts, rec.completed, rec.seed) == expected

    def test_first_draw_off_in_the_last_digit_is_rejected(self):
        # the stream's first integer decodes to the target in every digit but
        # the last (the least significant): a kernel that ignores that digit
        # accepts it, and one that reverses the digit order disagrees with
        # the reference on the attempt count
        alphabet = Alphabet("abc")
        first = int(RngStream(3).draw_codes(1, 3**4)[0])
        digits = [first // 3**k % 3 for k in (3, 2, 1, 0)]
        digits[3] = (digits[3] + 1) % 3
        target = TargetText(alphabet.decode(digits))
        rec = run_prefix_trial(target, 4, alphabet, RngStream(3), budget=None)
        expected = decode_then_compare_trial(target, 4, alphabet, RngStream(3), None)
        assert rec.attempts > 1
        assert (rec.attempts, rec.completed, rec.seed) == expected


def reference_block(prefix, alphabet, seed, trials, budget):
    """Reference block: cut one long draw_codes array of RngStream(seed)
    into trials, taking one candidate at a time. A candidate matches when
    its n big-endian base-A digits, decoded in plain Python, spell the
    prefix; a trial ends at a match, or incomplete after ``budget``
    candidates, and the next trial starts at the following candidate."""
    n, size = len(prefix), alphabet.size

    def spelled(value):
        digits = []
        for _ in range(n):
            value, digit = divmod(value, size)
            digits.append(digit)
        return alphabet.decode(reversed(digits))

    matching = {value for value in range(size**n) if spelled(value) == prefix}
    # a sum of geometric waits runs past 40 times its mean with odds far
    # below 1e-12, and a budget bounds every trial
    length = 40 * trials * size**n + 1000
    if budget is not None:
        length = min(length, trials * budget)
    found, attempts = [], 0
    for value in RngStream(seed).draw_codes(length, size**n):
        attempts += 1
        if int(value) in matching:
            found.append((attempts, True))
            attempts = 0
        elif attempts == budget:
            found.append((attempts, False))
            attempts = 0
        if len(found) == trials:
            return found
    raise AssertionError("reference stream too short")


class TestBlockKernel:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(1, 6),
        n=st.integers(1, 4),
        trials=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
        budget=st.one_of(
            st.none(), st.just(1), st.integers(2, 8), st.integers(1, 10**6)
        ),
    )
    def test_agrees_with_one_candidate_at_a_time(self, data, size, n, trials, seed, budget):
        alphabet = Alphabet("abcdef"[:size])
        text = data.draw(st.text(alphabet=alphabet.symbols, min_size=n, max_size=n))
        key, space = _prefix_key(TargetText(text), n, alphabet)
        records = _run_block(n, key, space, RngStream(seed), trials, budget)
        assert [(rec.attempts, rec.completed) for rec in records] == reference_block(
            text, alphabet, seed, trials, budget
        )
        assert {(rec.prefix_length, rec.seed) for rec in records} == {(n, seed)}

    def test_elapsed_is_the_block_time_shared_by_attempts(self):
        key, space = _prefix_key(TargetText("ab"), 2, AB)
        records = _run_block(2, key, space, RngStream(4), 40, None)
        rates = [rec.elapsed_seconds / rec.attempts for rec in records]
        assert max(rates) - min(rates) <= 1e-9 * max(rates)

    def test_block_size_is_part_of_the_stream_contract(self):
        # K_n = max(1, 2^16 // A^n)
        assert _block_size(53, 1) == 1236
        assert _block_size(53, 2) == 23
        assert _block_size(53, 3) == 1
        assert (_block_size(2, 15), _block_size(2, 16)) == (2, 1)
        assert _block_size(1, 4) == 2**16


class TestRunExperiment:
    def config(self, **overrides):
        defaults = dict(
            target=TargetText("ab"),
            alphabet=AB,
            max_prefix_length=2,
            iterations=3,
            seed=5,
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_single_cell(self):
        cfg = ExperimentConfig(
            target=TargetText("a"), alphabet=Alphabet("a"), max_prefix_length=1, iterations=1
        )
        table = run_experiment(cfg)
        assert table.trials[0][0].attempts == 1
        assert table.attempts_averages == (1.0,)

    def test_shape_matches_config(self):
        table = run_experiment(self.config())
        assert len(table.trials) == 3
        assert table.prefix_lengths == (1, 2)
        assert len(table.attempts_averages) == 2

    def test_same_seed_same_attempts_matrix(self):
        first = run_experiment(self.config())
        again = run_experiment(self.config())
        assert [
            [rec.attempts for rec in row] for row in first.trials
        ] == [[rec.attempts for rec in row] for row in again.trials]

    def test_worker_count_does_not_change_results(self):
        serial = run_experiment(self.config(iterations=8))
        threaded = run_experiment(self.config(iterations=8, worker_count=4))
        assert [
            [(rec.attempts, rec.seed) for rec in row] for row in serial.trials
        ] == [[(rec.attempts, rec.seed) for rec in row] for row in threaded.trials]

    def test_blocks_are_independent_of_workers_and_of_the_iteration_count(self):
        # K_2 = 23 over 53 symbols: 60 iterations make blocks at 1, 24, 47
        config = ExperimentConfig(
            target=TargetText("To"), alphabet=LETTERS_AND_SPACE,
            max_prefix_length=2, iterations=60, seed=8,
        )
        cells = lambda table: [  # noqa: E731
            [(rec.attempts, rec.seed, rec.completed) for rec in row] for row in table.trials
        ]
        serial = cells(run_experiment(config))
        assert serial == cells(run_experiment(dataclasses.replace(config, worker_count=3)))
        assert serial[:30] == cells(run_experiment(dataclasses.replace(config, iterations=30)))
        firsts = [1] * 23 + [24] * 23 + [47] * 14
        assert [row[1][1] for row in serial] == [
            derive_trial_seed(8, first, 2) for first in firsts
        ]
        assert {row[0][1] for row in serial} == {derive_trial_seed(8, 1, 1)}

    def test_single_trial_blocks_keep_stream_version_2(self):
        # K_3 = 1 over 53 symbols: every prefix-3 cell is the version-2 trial
        # of its own derived seed, with the attempts the version-2 code gave
        config = ExperimentConfig(
            target=TargetText("To be"), alphabet=LETTERS_AND_SPACE,
            max_prefix_length=3, iterations=10, seed=42,
        )
        column = [row[2] for row in run_experiment(config).trials]
        assert [rec.attempts for rec in column] == [
            251360, 296949, 18075, 301164, 34185, 80185, 161458, 19804, 364546, 298909
        ]
        for i, rec in enumerate(column, start=1):
            stream = RngStream(derive_trial_seed(42, i, 3))
            alone = run_prefix_trial(config.target, 3, LETTERS_AND_SPACE, stream)
            assert (rec.attempts, rec.seed) == (alone.attempts, stream.seed)

    def test_out_of_alphabet_target_is_an_error_by_default(self):
        cfg = self.config(target=TargetText("a,"), alphabet=Alphabet("a"))
        with pytest.raises(AlphabetMismatchError, match="','"):
            run_experiment(cfg)

    def test_budget_exhaustion_flags_cells_and_keeps_partials(self):
        # one candidate per trial: the prefix-2 block draws 2, 1, 2 (key 1)
        table = run_experiment(self.config(attempt_budget=1))
        assert table.incomplete_cells() == [(1, 2), (3, 2)]
        for iteration, n in table.incomplete_cells():
            assert table.trials[iteration - 1][n - 1].attempts == 1
        # the censored cells count in the total, not in the divisor
        assert table.attempts_averages == (1.0, 3.0)

    def test_candidate_space_above_2_to_the_64_fails_before_any_trial(
        self, monkeypatch
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial started")

        monkeypatch.setattr(simulate, "_run_block", no_trial)
        cfg = self.config(
            target=TargetText("a" * 65), max_prefix_length=65, attempt_budget=1
        )
        with pytest.raises(ValueError, match=r"2\^64"):
            run_experiment(cfg)

    def test_trial_seed_alone_reproduces_a_cell(self):
        # iteration 2 is the second trial of its block: the second gap
        # between matches of "ab" in the block's stream
        table = run_experiment(self.config())
        rec = table.trials[1][1]
        replay = reference_block("ab", AB, rec.seed, 2, None)[1]
        assert replay == (rec.attempts, True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.config(max_prefix_length=3)  # longer than the target
        with pytest.raises(ValueError):
            self.config(iterations=0)
        with pytest.raises(ValueError):
            self.config(seed=-1)
        with pytest.raises(ValueError):
            self.config(worker_count=0)
        with pytest.raises(ValueError):
            self.config(attempt_budget=0)

    def test_column_means_nondecreasing_within_noise(self):
        cfg = ExperimentConfig(
            target=TargetText("abca"),
            alphabet=Alphabet("abc"),
            max_prefix_length=4,
            iterations=400,
            seed=3,
        )
        table = run_experiment(cfg)
        for j in range(3):
            expected = (3 ** (j + 1), 3 ** (j + 2))
            noise = 3 * (expected[0] ** 2 + expected[1] ** 2) ** 0.5 / 400**0.5
            assert (
                table.attempts_averages[j + 1]
                >= table.attempts_averages[j] - noise
            )


class TestMeasureThroughput:
    def test_rate_is_strictly_positive(self):
        assert measure_throughput(AB, 2, duration_seconds=0.02) > 0

    def test_draws_one_integer_per_candidate(self, monkeypatch):
        # a candidate of length 5 is one draw in [0, 53^5), so the cost per
        # candidate no longer grows with its length
        draws = []
        draw_codes = RngStream.draw_codes

        def recorded(rng, count, bound):
            draws.append((count, bound))
            return draw_codes(rng, count, bound)

        monkeypatch.setattr(RngStream, "draw_codes", recorded)
        rate = measure_throughput(LETTERS_AND_SPACE, 5, duration_seconds=0.01)
        assert draws and rate > 0
        assert {bound for _, bound in draws} == {53**5}

    def test_candidate_space_above_2_to_the_64_is_rejected(self):
        measure_throughput(AB, 64, duration_seconds=0.01)
        with pytest.raises(ValueError, match=r"2\^64"):
            measure_throughput(AB, 65, duration_seconds=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_throughput(AB, 0, duration_seconds=0.01)
        with pytest.raises(ValueError):
            measure_throughput(AB, 1, duration_seconds=0.0)
