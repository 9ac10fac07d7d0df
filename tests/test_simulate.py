import dataclasses
import itertools
import math
import statistics
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode
from monkeytyper import LETTERS_AND_SPACE, Alphabet, TargetText
from monkeytyper import simulate
from monkeytyper.simulate import (
    ExperimentConfig,
    RngStream,
    _block_size,
    _lane_bits,
    _prefix_key,
    _run_block,
    derive_trial_seed,
    run_experiment,
    run_prefix_trial,
)

AB = Alphabet("ab")

#: The chi-square critical value at significance 0.001 with 52 degrees of
#: freedom, ``scipy.stats.chi2.ppf(0.999, df=52)`` under scipy 1.17.1.
CHI2_999_DF52 = 89.27215083430448


def bounded_draw(seed, count, space):
    """The candidate stream of ``RngStream(seed)``: one numpy bounded draw
    of ``count`` integers in ``[0, space)`` at the narrowest dtype that
    holds them (stream version 4)."""
    generator = RngStream(seed)._generator
    return generator.integers(0, space, size=count, dtype=np.min_scalar_type(space - 1))


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
        assert statistic < CHI2_999_DF52

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
            assert statistic < CHI2_999_DF52, position

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
        first = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(1), budget=None)
        again = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(1), budget=None)
        assert first.attempts == again.attempts == 4

    def test_out_of_alphabet_prefix_rejected_before_generation(self):
        with pytest.raises(ValueError, match="','"):
            run_prefix_trial(TargetText("To be, or"), 7, LETTERS_AND_SPACE, RngStream(1))

    def test_prefix_length_bounds(self):
        with pytest.raises(ValueError):
            run_prefix_trial(TargetText("ab"), 3, AB, RngStream(1))
        with pytest.raises(ValueError):
            run_prefix_trial(TargetText("ab"), 0, AB, RngStream(1))

    @pytest.mark.parametrize("n", [0, 3])
    def test_prefix_length_outside_the_target_names_the_range(self, n):
        # TrialRecord rejects prefix length 0 too, but only after a trial ran
        with pytest.raises(ValueError, match=rf"prefix_length {n} outside 1\.\.2"):
            run_prefix_trial(TargetText("ab"), n, AB, RngStream(1))

    def test_alphabet_error_names_the_prefix_it_checked(self):
        message = "'To be,' contains characters not in the alphabet: ','"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_prefix_trial(TargetText("To be, or"), 6, LETTERS_AND_SPACE, RngStream(1))

    def test_budget_must_be_positive(self):
        # the trial's own check, before TrialRecord's attempts check
        with pytest.raises(ValueError, match="budget must be >= 1"):
            run_prefix_trial(TargetText("ab"), 2, AB, RngStream(0), budget=0)

    def test_budget_exhaustion_is_reported_not_raised(self):
        # seed 1 needs 4 attempts unconstrained, so a budget of 2 must stop it
        rec = run_prefix_trial(TargetText("ab"), 2, AB, RngStream(1), budget=2)
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


def decode_then_compare_trial(target, n, alphabet, seed, budget):
    """Reference trial: decode every candidate of one ``bounded_draw`` of
    ``seed`` into its n big-endian base-A digits, by n numpy ``divmod``
    passes over the whole draw, and compare each decoded string with the
    prefix. The kernel must agree with it draw for draw. A draw too short to
    end the trial is made again from the stream's start, four times as
    long."""
    prefix = target.text[:n]
    size = alphabet.size
    symbols = np.array(list(alphabet.symbols))
    length = 4 * size**n + 64
    while True:
        if budget is not None:
            length = min(length, budget)
        values = bounded_draw(seed, length, size**n)
        digits = np.empty((length, n), dtype=np.uint8)
        for k in reversed(range(n)):  # least significant first, into the last column
            values, digits[:, k] = np.divmod(values, size)
        # each row's n one-character strings, read as one n-character string
        decoded = symbols[digits].view(f"<U{n}")[:, 0]
        hits = np.flatnonzero(decoded == prefix)
        if hits.size:
            return int(hits[0]) + 1, True, seed
        if length == budget:
            return budget, False, seed
        length *= 4


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
        expected = decode_then_compare_trial(target, n, alphabet, seed, budget)
        assert (rec.attempts, rec.completed, rec.seed) == expected

    def test_first_draw_off_in_the_last_digit_is_rejected(self):
        # the stream's first integer decodes to the target in every digit but
        # the last (the least significant): a kernel that ignores that digit
        # accepts it, and one that reverses the digit order disagrees with
        # the reference on the attempt count
        alphabet = Alphabet("abc")
        first = int(bounded_draw(3, 1, 3**4)[0])
        digits = [first // 3**k % 3 for k in (3, 2, 1, 0)]
        digits[3] = (digits[3] + 1) % 3
        target = TargetText(decode(alphabet, digits))
        rec = run_prefix_trial(target, 4, alphabet, RngStream(3), budget=None)
        expected = decode_then_compare_trial(target, 4, alphabet, 3, None)
        assert rec.attempts > 1
        assert (rec.attempts, rec.completed, rec.seed) == expected


def cut_into_trials(codes, matching, trials, budget):
    """Cut a candidate sequence into trials, one candidate at a time: a
    trial ends at a candidate in ``matching``, or incomplete after
    ``budget`` candidates, and the next trial starts at the following
    candidate. Returns the (attempts, completed) pairs of the trials that
    end within ``codes``, at most ``trials`` of them."""
    found, attempts = [], 0
    for value in codes:
        attempts += 1
        if value in matching:
            found.append((attempts, True))
            attempts = 0
        elif attempts == budget:
            found.append((attempts, False))
            attempts = 0
        if len(found) == trials:
            break
    return found


def reference_block(prefix, alphabet, seed, trials, budget):
    """Reference block: cut one long ``bounded_draw`` of ``seed`` into
    trials. A candidate matches when its n big-endian base-A digits,
    decoded in plain Python, spell the prefix."""
    n, size = len(prefix), alphabet.size

    def spelled(value):
        digits = []
        for _ in range(n):
            value, digit = divmod(value, size)
            digits.append(digit)
        return decode(alphabet, reversed(digits))

    matching = {value for value in range(size**n) if spelled(value) == prefix}
    # a sum of geometric waits runs past 40 times its mean with odds far
    # below 1e-12, and a budget bounds every trial
    length = 40 * trials * size**n + 1000
    if budget is not None:
        length = min(length, trials * budget)
    found = cut_into_trials(bounded_draw(seed, length, size**n).tolist(), matching, trials, budget)
    assert len(found) == trials, "reference stream too short"
    return found


# Spaces the word kernel covers, from one symbol to the 2^32 bound numpy
# still draws from 32-bit lanes; 2^31 + 11 rejects nearly half of all lanes.
WORD_SPACES = [1, 2, 3, 53, 2809, 53**4, 2**31 + 11, 2**32 - 1, 2**32]
# Batch sizes in candidates: odd ones end inside a raw 64-bit word.
WORD_BATCHES = (1, 7, 1000, 4096, 333)


def word_kernel_hits(seed, key, space, batches=WORD_BATCHES):
    """The hit positions and the candidate count of ``_matches`` over
    several batches of ``RngStream(seed)``."""
    stream, bits = RngStream(seed), _lane_bits(space)
    found, drawn = [], 0
    for rows in batches:
        hits, count = simulate._matches(stream, key, space, bits, rows)
        assert 0 <= count < rows + 64 // bits  # the lanes of whole words
        assert all(0 <= h < count for h in hits.tolist())
        found += (hits + drawn).tolist()
        drawn += count
    return found, drawn


def bounded_draw_hits(seed, key, space, count):
    """The oracle: positions where numpy's bounded draw gives ``key``."""
    return np.flatnonzero(bounded_draw(seed, count, space) == key).tolist()


class TestWordKernel:
    """``_matches`` reads raw PCG64 words against the key's Lemire interval;
    it must find exactly the candidates one narrowest-dtype numpy draw makes
    equal to the key."""

    @pytest.mark.parametrize("seed", [42, 2**64 - 5])
    @pytest.mark.parametrize("space", WORD_SPACES)
    def test_agrees_with_the_bounded_draw(self, space, seed):
        for key in sorted({0, 1 % space, space // 2, space - 1}):
            found, drawn = word_kernel_hits(seed, key, space)
            assert found == bounded_draw_hits(seed, key, space, drawn), key

    @pytest.mark.parametrize("space", WORD_SPACES)
    def test_candidate_counts_are_exact(self, space):
        # a key planted at the last candidate of each batch is found there
        # only if every batch counted its candidates exactly; rare-hit
        # spaces would hide an off-by-one from the other keys
        _, drawn = word_kernel_hits(7, 0, space)
        codes = bounded_draw(7, drawn, space)
        stream, position = RngStream(7), 0
        for rows in WORD_BATCHES:
            position += simulate._matches(stream, 0, space, _lane_bits(space), rows)[1]
            if not position:  # every lane so far rejected
                continue
            key = int(codes[position - 1])
            found, _ = word_kernel_hits(7, key, space)
            assert position - 1 in found
            assert found == bounded_draw_hits(7, key, space, drawn)

    def test_rejected_interval_start_is_not_a_hit(self):
        # at each lane width W nearly half of all lanes are rejected at these
        # spaces; the stream's first rejected lane w is the interval start
        # of key (w * space) >> W, which a kernel that did not move the
        # start up would count as a hit
        seed = 42
        for space in (129, 2**15 + 11, 2**31 + 11):  # 8, 16 and 32 bits
            bits = _lane_bits(space)
            threshold = ((1 << bits) - space) % space
            # the lanes of the first 8 raw words, all inside the first batches read
            raw = RngStream(seed)._generator.bit_generator.random_raw(8)
            lanes = raw.astype("<u8").view(f"<u{bits // 8}").tolist()
            word = next(w for w in lanes if w * space % 2**bits < threshold)
            key = word * space >> bits
            assert -(-(key << bits) // space) == word  # the case occurs: the start is rejected
            found, drawn = word_kernel_hits(seed, key, space)
            assert found == bounded_draw_hits(seed, key, space, drawn), space

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_draws_one_integer_per_candidate(self, length):
        # a candidate of any length is one W-bit lane of the stream, so the
        # cost per candidate does not grow with its length: a batch of
        # ``rows`` candidates reads ``rows * W / 64`` raw 64-bit words and
        # yields all but its rejected lanes, a share
        # ((2^W - A^n) mod A^n) / 2^W of them (17% at 53 symbols in 8 bits)
        space = LETTERS_AND_SPACE.size**length
        bits = _lane_bits(space)
        kept = 1 - ((1 << bits) - space) % space / 2**bits
        stream, shadow = RngStream(length), np.random.PCG64()
        for rows in (2**14, 2**15, 2**15):
            shadow.state = stream._generator.bit_generator.state
            _, count = simulate._matches(stream, 0, space, bits, rows)
            shadow.random_raw(rows * bits // 64)
            assert shadow.state == stream._generator.bit_generator.state
            assert abs(count / rows - kept) < 0.02

    def test_space_one_consumes_no_word(self):
        # numpy's bounded draw of [0, 1) reads nothing from the stream
        stream = RngStream(3)
        hits, count = simulate._matches(stream, 0, 1, 8, 100)
        assert count == 100 and hits.tolist() == list(range(100))
        untouched = RngStream(3)._generator.bit_generator.state
        assert stream._generator.bit_generator.state == untouched

    def test_spaces_above_2_to_the_32_use_the_bounded_draw(self, monkeypatch):
        draws = []
        draw_codes = RngStream.draw_codes

        def recorded(rng, count, bound):
            draws.append((count, bound))
            return draw_codes(rng, count, bound)

        monkeypatch.setattr(RngStream, "draw_codes", recorded)
        simulate._matches(RngStream(1), 0, 2**32, 32, 100)
        assert draws == []
        _, count = simulate._matches(RngStream(1), 5, 2**32 + 1, 64, 100)
        assert draws == [(100, 2**32 + 1)] and count == 100


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
        attempts, completed, _ = _run_block(key, space, RngStream(seed), trials, budget)
        assert list(zip(attempts, completed)) == reference_block(
            text, alphabet, seed, trials, budget
        )

    def test_elapsed_is_the_block_time_shared_by_attempts(self):
        config = ExperimentConfig(
            target=TargetText("ab"), alphabet=AB, max_prefix_length=2, iterations=40, seed=4
        )
        table = run_experiment(config)
        # K_n >= 2^18 over two symbols: each column is one block
        for attempts, elapsed, seeds in zip(table.attempts, table.elapsed_seconds, table.seeds):
            assert len(set(seeds)) == 1
            rates = [e / a for a, e in zip(attempts, elapsed)]
            assert max(rates) - min(rates) <= 1e-9 * max(rates)

    @pytest.mark.parametrize(
        "symbols,text,trials,budget",
        [
            ("ab", "a", 1, None),  # one trial over two symbols: 2 candidates
            ("ab", "aba", 7, None),
            ("ab", "abb", 9, 3),  # the budget room binds
            (LETTERS_AND_SPACE.symbols, "To", 30, None),  # the 2^16-lane cap binds
            (LETTERS_AND_SPACE.symbols, "To be ", 2, 1000),  # 53^6 > 2^32: the bounded draw
        ],
        ids=["one-trial", "seven-trials", "budget-room", "cap", "64-bit"],
    )
    def test_batch_is_the_open_trials_expected_need(
        self, monkeypatch, symbols, text, trials, budget
    ):
        # every batch asks for min(the lanes of 2^14 words, left * A^n,
        # budget room): the open trials' mean need, so a block over-draws
        # little at any size
        alphabet = Alphabet(symbols)
        key, space = _prefix_key(TargetText(text), len(text), alphabet)
        batches = []  # (candidates asked, candidates drawn)
        matches = simulate._matches

        def spy(rng, key, space, bits, rows):
            hits, count = matches(rng, key, space, bits, rows)
            batches.append((rows, count))
            return hits, count

        monkeypatch.setattr(simulate, "_matches", spy)
        attempts, _, _ = _run_block(key, space, RngStream(11), trials, budget)
        ends = [0, *itertools.accumulate(attempts)]  # trial j spans ends[j]..ends[j+1]-1
        limit = math.inf if budget is None else budget
        cap = 2**14 * 64 // _lane_bits(space)
        assert batches[0][0] == min(cap, trials * space, trials * limit)
        drawn = 0
        for rows, count in batches:
            closed = sum(end <= drawn for end in ends[1:])
            left = trials - closed
            assert 1 <= rows <= min(left * space, ends[closed] + left * limit - drawn)
            drawn += count

    def test_block_size_is_part_of_the_stream_contract(self):
        # K_n = max(1, 2^20 // A^n)
        assert _block_size(53, 1) == 19784
        assert _block_size(53, 2) == 373
        assert _block_size(53, 3) == 7
        assert _block_size(53, 4) == 1
        assert (_block_size(2, 19), _block_size(2, 20)) == (2, 1)
        assert _block_size(1, 4) == 2**20


# The edges of every lane width numpy's bounded draw picks: 8 bits up to 256,
# 16 up to 2^16, 32 up to 2^32.
LANE_SPACES = [2, 53, 255, 256, 257, 2809, 65535, 65536, 65537, 148877, 2**32 - 5, 2**32]
LANE_BITS = [8, 8, 8, 8, 16, 16, 16, 16, 32, 32, 32, 32]


class TestLaneWidths:
    """Each candidate is one lane as wide as numpy's narrowest bounded draw
    of its space; ``_matches`` and ``_run_block`` must agree with one
    ``Generator.integers`` call at that dtype at every width's edges."""

    def test_lane_width_is_part_of_the_stream_contract(self):
        assert [_lane_bits(space) for space in LANE_SPACES] == LANE_BITS
        assert (_lane_bits(1), _lane_bits(2**32 + 1), _lane_bits(2**64)) == (8, 64, 64)

    @pytest.mark.parametrize("space", LANE_SPACES)
    def test_match_counts_agree_with_one_narrow_draw(self, space):
        # keys at both ends and in the middle, and one planted at a known
        # candidate so that even 2^32 spaces have a hit to place
        planted = int(bounded_draw(3, 3000, space)[2999])
        for key in sorted({0, space // 2, space - 1, planted}):
            found, drawn = word_kernel_hits(3, key, space)
            assert drawn >= 3000
            assert found == bounded_draw_hits(3, key, space, drawn), key

    @pytest.mark.parametrize("budget", [None, 1, 5, 700])
    @pytest.mark.parametrize("space", LANE_SPACES)
    def test_block_gaps_agree_with_one_narrow_draw(self, monkeypatch, space, budget):
        # the key is the value of candidate 1500, so every width ends a
        # trial within the draw; with a budget, trials also end cut short
        # and carry over. Batches of 1 and 3 raw words cut the stream at
        # other places than the default cap and must not move a gap.
        codes = bounded_draw(5, 6000, space).tolist()
        key = codes[1500]
        expected = cut_into_trials(codes, {key}, 40, budget)
        gaps = []
        for words in (simulate._MAX_WORDS, 1, 3):
            monkeypatch.setattr(simulate, "_MAX_WORDS", words)
            attempts, completed, _ = _run_block(key, space, RngStream(5), len(expected), budget)
            gaps.append(list(zip(attempts, completed)))
        assert gaps == [expected] * 3


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

    @pytest.mark.parametrize(
        "workers, cpus, pool",
        [(2, 8, 2), (3, 8, 3), (5000, 8, 4), (5000, 3, 3), (5000, 1, None), (5000, None, None)],
    )
    def test_thread_pool_is_bounded_by_the_blocks_and_the_cpus(
        self, monkeypatch, workers, cpus, pool
    ):
        # 800 iterations of "To" make 4 blocks (one of n = 1, three of
        # n = 2); the stub pool records its size and maps in this thread, so
        # no huge worker count ever starts a thread
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        config = ExperimentConfig(
            target=TargetText("To"), alphabet=LETTERS_AND_SPACE,
            max_prefix_length=2, iterations=800, seed=8,
        )
        serial = run_experiment(config)
        assert sizes == []
        table = run_experiment(dataclasses.replace(config, worker_count=workers))
        assert sizes == ([] if pool is None else [pool])
        assert (table.attempts, table.seeds) == (serial.attempts, serial.seeds)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_empty_column_fails_before_a_longer_column_runs(self, monkeypatch, workers):
        # at budget 1 and seed 1 none of the ten prefix-1 trials draws 'T';
        # the 13 blocks of columns 2..4 must not run once column 1 is known
        # to be empty, though a pool may have started one per worker by then
        spaces, run_block = [], simulate._run_block

        def spy(key, space, rng, trials, budget):
            spaces.append(space)
            if space > 53:
                time.sleep(0.1)  # holds the pool's threads while the run fails
            return run_block(key, space, rng, trials, budget)

        monkeypatch.setattr(simulate, "_run_block", spy)
        config = ExperimentConfig(
            target=TargetText("To be"), alphabet=LETTERS_AND_SPACE, max_prefix_length=4,
            iterations=10, seed=1, attempt_budget=1, worker_count=workers,
        )
        with pytest.raises(ValueError, match="no trial of prefix length 1 completed"):
            run_experiment(config)
        assert spaces.count(53) == 1
        assert len(spaces) - 1 <= (0 if workers == 1 else workers)

    def test_blocks_are_independent_of_workers_and_of_the_iteration_count(self):
        # K_2 = 373 over 53 symbols: 800 iterations make blocks at 1, 374, 747
        config = ExperimentConfig(
            target=TargetText("To"), alphabet=LETTERS_AND_SPACE,
            max_prefix_length=2, iterations=800, seed=8,
        )
        cells = lambda table: [  # noqa: E731
            [(rec.attempts, rec.seed, rec.completed) for rec in row] for row in table.trials
        ]
        serial = cells(run_experiment(config))
        assert serial == cells(run_experiment(dataclasses.replace(config, worker_count=3)))
        assert serial[:400] == cells(run_experiment(dataclasses.replace(config, iterations=400)))
        firsts = [1] * 373 + [374] * 373 + [747] * 54
        assert [row[1][1] for row in serial] == [
            derive_trial_seed(8, first, 2) for first in firsts
        ]
        assert {row[0][1] for row in serial} == {derive_trial_seed(8, 1, 1)}

    def test_single_trial_blocks_keep_stream_version_2(self):
        # K_4 = 1 over 53 symbols: every prefix-4 cell is the version-2 trial
        # of its own derived seed, with the attempts the version-2 and
        # version-3 code gave
        config = ExperimentConfig(
            target=TargetText("To be"), alphabet=LETTERS_AND_SPACE,
            max_prefix_length=4, iterations=10, seed=42,
        )
        column = [row[3] for row in run_experiment(config).trials]
        assert [rec.attempts for rec in column] == [
            1265735, 8125274, 4192802, 2579951, 1581556,
            1731512, 5094136, 17203872, 4420557, 1810487,
        ]
        for i, rec in enumerate(column, start=1):
            stream = RngStream(derive_trial_seed(42, i, 4))
            alone = run_prefix_trial(config.target, 4, LETTERS_AND_SPACE, stream)
            assert (rec.attempts, rec.seed) == (alone.attempts, stream.seed)

    def test_out_of_alphabet_target_is_an_error_by_default(self):
        cfg = self.config(target=TargetText("a,"), alphabet=Alphabet("a"))
        with pytest.raises(ValueError, match="','"):
            run_experiment(cfg)

    def test_budget_exhaustion_flags_cells_and_keeps_partials(self):
        # one candidate per trial: the prefix-2 block draws 2, 1, 2 (key 1)
        table = run_experiment(self.config(attempt_budget=1, seed=96))
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
