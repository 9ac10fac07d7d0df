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
    generate_candidate,
    measure_throughput,
    run_experiment,
    run_prefix_trial,
)
from monkeytyper.simulate import _batch_rows

AB = Alphabet("ab")


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42, 7).draw_codes(256, 53)
        b = RngStream(42, 7).draw_codes(256, 53)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).draw_codes(256, 53)
        b = RngStream(42, 1).draw_codes(256, 53)
        assert not np.array_equal(a, b)

    def test_draws_are_partition_invariant(self):
        # the whole determinism story rests on this: how draws are batched
        # must not change the drawn sequence
        whole = RngStream(9, 3).draw_codes(1200, 53)
        split_stream = RngStream(9, 3)
        split = np.concatenate(
            [split_stream.draw_codes(k, 53) for k in (1, 7, 92, 1100)]
        )
        assert np.array_equal(whole, split)

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        with pytest.raises(ValueError):
            RngStream(1, -1)


def test_derive_trial_seed_is_stable_and_distinct():
    assert derive_trial_seed(42, 1, 2) == derive_trial_seed(42, 1, 2)
    seeds = {derive_trial_seed(42, it, n) for it in range(1, 11) for n in range(1, 6)}
    assert len(seeds) == 50


class TestGenerateCandidate:
    def test_zero_length(self):
        assert generate_candidate(AB, 0, RngStream(1)) == ""

    def test_single_symbol_alphabet_forces_output(self):
        assert generate_candidate(Alphabet("a"), 4, RngStream(1)) == "aaaa"

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            generate_candidate(AB, -1, RngStream(1))

    def test_advances_stream_state(self):
        stream = RngStream(5)
        first = generate_candidate(AB, 16, stream)
        second = generate_candidate(AB, 16, stream)
        assert first != second

    def test_uniformity_chi_square(self):
        # 10^6 symbol draws against the 53-symbol alphabet; the statistic is
        # computed directly and compared to the chi-square critical value at
        # significance 0.001 with 52 degrees of freedom
        stream = RngStream(123)
        counts = Counter()
        draws = 1_000_000
        for _ in range(draws // 500):
            counts.update(generate_candidate(LETTERS_AND_SPACE, 500, stream))
        assert sum(counts.values()) == draws
        assert len(counts) == 53
        expected = draws / 53
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        assert statistic < stats.chi2.ppf(0.999, df=52)


class TestRunPrefixTrial:
    def test_single_symbol_alphabet_needs_exactly_one_attempt(self):
        rec = run_prefix_trial(TargetText("aaaa"), 3, Alphabet("a"), RngStream(1))
        assert rec.attempts == 1  # the successful candidate counts, nothing else
        assert rec.completed and rec.elapsed_seconds >= 0

    def test_deterministic_given_stream_key(self):
        first = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=None)
        again = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=None)
        assert first.attempts == again.attempts == 5

    def test_out_of_alphabet_prefix_rejected_before_generation(self):
        with pytest.raises(AlphabetMismatchError, match="','"):
            run_prefix_trial(TargetText("To be, or"), 7, LETTERS_AND_SPACE, RngStream(1))

    def test_prefix_length_bounds(self):
        with pytest.raises(ValueError):
            run_prefix_trial(TargetText("ab"), 3, AB, RngStream(1))
        with pytest.raises(ValueError):
            run_prefix_trial(TargetText("ab"), 0, AB, RngStream(1))

    def test_budget_exhaustion_is_reported_not_raised(self):
        # seed 0 needs 5 attempts unconstrained, so a budget of 2 must stop it
        rec = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=2)
        assert rec.completed is False
        assert rec.attempts == 2

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


def full_row_trial(target, n, alphabet, rng, budget):
    """The full-row match every candidate once went through: the reference
    the filter-first kernel must agree with, draw for draw."""
    prefix = alphabet.encode(target.text[:n])
    batch = _batch_rows(alphabet.size, n)
    attempts = 0
    while True:
        rows = batch if budget is None else min(batch, budget - attempts)
        codes = rng.draw_codes(rows * n, alphabet.size)
        hits = np.flatnonzero(np.all(codes.reshape(rows, n) == prefix, axis=1))
        if hits.size:
            return attempts + int(hits[0]) + 1, True, rng.seed
        attempts += rows
        if budget is not None and attempts >= budget:
            return attempts, False, rng.seed


class TestFilterFirstMatch:
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
    def test_agrees_with_full_row_match(self, data, size, n, seed, budget):
        alphabet = Alphabet("abcdef"[:size])
        text = data.draw(st.text(alphabet=alphabet.symbols, min_size=n, max_size=n))
        target = TargetText(text)
        rec = run_prefix_trial(target, n, alphabet, RngStream(seed), budget)
        expected = full_row_trial(target, n, alphabet, RngStream(seed), budget)
        assert (rec.attempts, rec.completed, rec.seed) == expected

    def test_candidate_matching_all_but_the_last_column_is_rejected(self):
        # the first candidate of the stream agrees with the target on every
        # column except the last, so it survives the column-0 filter and must
        # fail the survivor check
        alphabet = Alphabet("abc")
        first = RngStream(3).draw_codes(4, alphabet.size)
        last = (int(first[3]) + 1) % alphabet.size
        target = TargetText(alphabet.decode([*first[:3], last]))
        rec = run_prefix_trial(target, 4, alphabet, RngStream(3), budget=None)
        expected = full_row_trial(target, 4, alphabet, RngStream(3), None)
        assert rec.attempts > 1
        assert (rec.attempts, rec.completed, rec.seed) == expected


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
        assert table.iterations == 3
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

    def test_out_of_alphabet_target_is_an_error_by_default(self):
        cfg = self.config(target=TargetText("a,"), alphabet=Alphabet("a"))
        with pytest.raises(AlphabetMismatchError, match="','"):
            run_experiment(cfg)

    def test_opt_in_alphabet_extension(self):
        cfg = self.config(
            target=TargetText("a,"),
            alphabet=Alphabet("a"),
            auto_extend_alphabet=True,
            iterations=1,
        )
        assert cfg.effective_alphabet().symbols == "a,"
        table = run_experiment(cfg)
        assert table.prefix_lengths == (1, 2)

    def test_budget_exhaustion_flags_cells_and_keeps_partials(self):
        table = run_experiment(self.config(attempt_budget=1))
        assert table.incomplete_cells() == [(1, 2), (3, 2)]
        for iteration, n in table.incomplete_cells():
            assert table.trials[iteration - 1][n - 1].attempts == 1

    def test_trial_seed_alone_reproduces_a_cell(self):
        table = run_experiment(self.config())
        rec = table.trials[1][1]
        replay = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(rec.seed))
        assert replay.attempts == rec.attempts

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

    def test_fixed_workload_mode(self):
        rate = measure_throughput(AB, 2, workload=50_000)
        assert rate > 0

    def test_longer_candidates_are_slower(self):
        fast = max(
            measure_throughput(LETTERS_AND_SPACE, 1, duration_seconds=0.05, seed=s)
            for s in range(3)
        )
        slow = max(
            measure_throughput(LETTERS_AND_SPACE, 5, duration_seconds=0.05, seed=s)
            for s in range(3)
        )
        assert slow < fast

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_throughput(AB, 0, duration_seconds=0.01)
        with pytest.raises(ValueError):
            measure_throughput(AB, 1, duration_seconds=0.0)
        with pytest.raises(ValueError):
            measure_throughput(AB, 1, workload=0)
