"""Counter-based synthetic cohorts: determinism, tallies, and statistics."""

import concurrent.futures
import itertools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from screencurve import (
    AbsentEstimateError,
    ParameterError,
    ScreeningTest,
    empirical_ppv_curve,
    ppv,
    simulate_cohort,
)
from screencurve import cohort as cohort_module
from screencurve.cohort import _mix_in_place

from _oracles import MC_PPV_9575_AT_034, cohort_counts, seed_for_output, splitmix64_next

ANCHOR = ScreeningTest(0.95, 0.75)


def stream_output(seed, k):
    """value(k) of the counter stream, mixed by the kernel's own finalizer."""
    words = np.array([(seed + k * 0x9E3779B97F4A7C15) % 2**64], dtype=np.uint64)
    _mix_in_place(words, np.empty_like(words))
    return int(words[0])


class TestGeneratorCore:
    def test_published_reference_vector(self):
        # First three outputs of the standard splitmix64 stream seeded with 0.
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [stream_output(0, k) for k in (1, 2, 3)] == expected

    def test_counter_form_matches_sequential_form(self):
        # value(k) must equal the k-th output of the sequential generator,
        # recomputed here in pure Python.
        mask = (1 << 64) - 1

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        seed = 0x123456789ABCDEF0
        for k in (1, 2, 5, 1000):
            expected = mix((seed + k * 0x9E3779B97F4A7C15) & mask)
            assert stream_output(seed, k) == expected


def counts(result):
    return (result.true_pos, result.false_pos, result.true_neg, result.false_neg)


#: Probabilities at which a draw's comparison is easiest to get wrong: the
#: ends, 0.5 (where p * 2^53 is an integer, so "<" and "<=" differ) and the
#: extreme floats next to the ends.
EDGES = [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53]

#: Specificities whose false-positive rate 1 - b lands on each edge that a
#: specificity can reach (1 - b is never 5e-324).
EDGE_SPECIFICITIES = [1.0, 0.0, 0.5, 2.0**-53, 1.0 - 2.0**-53]

#: Raw words on either side of every edge's cutoff: the draw (word >> 11) *
#: 2^-53 is 0 for the first two, 2^-53 at 2048, 1/2 - 2^-53 and 1/2 at
#: 2^63 - 1 and 2^63, 1 - 2^-52 and 1 - 2^-53 at the last three.
EDGE_WORDS = [0, 2047, 2048, 2**63 - 1, 2**63, 2**64 - 2049, 2**64 - 2048, 2**64 - 1]


class TestFinalizer:
    """``_mix64`` against the oracle's sequential splitmix64 step."""

    def test_mix64_is_the_oracle_finalizer_on_edge_words(self):
        # splitmix64_next adds the golden gamma to its state, then mixes.
        for word in EDGE_WORDS:
            state = (word - 0x9E3779B97F4A7C15) % 2**64
            assert cohort_module._mix64(word) == splitmix64_next(state)[1], word

    @pytest.mark.parametrize("lanes", [1, 7, 2 * cohort_module._SWAR_CHUNK])
    def test_mix64_mixes_each_128_bit_lane_on_its_own(self, lanes):
        # Words in the low halves of 128-bit lanes, as _tally_swar packs them,
        # with all-ones and other edge words among them: mixed together under
        # the lanes' mask, each lane holds its own word's mix and nothing above.
        rng = random.Random(lanes)
        words = [rng.choice(EDGE_WORDS) if rng.random() < 0.25 else rng.getrandbits(64)
                 for _ in range(lanes)]
        packed = int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")
        low = int.from_bytes(((1 << 64) - 1).to_bytes(16, "little") * lanes, "little")
        mixed = cohort_module._mix64(packed, low).to_bytes(16 * lanes, "little")
        got = [int.from_bytes(mixed[16 * k : 16 * k + 16], "little") for k in range(lanes)]
        assert got == [cohort_module._mix64(w) for w in words]


class TestGoldenCounts:
    """Exact counts against the pure-Python splitmix64 oracle in _oracles."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_draws_on_every_cutoff_edge(self, n):
        # Seeds chosen so that subject 0's disease draw (output 1) or test
        # draw (output 2) is an edge word, each also given as a negative and
        # as a >= 2^64 seed, plus two arbitrary seeds.
        seeds = [-1, (1 << 64) + 12345]
        for word, output in itertools.product(EDGE_WORDS, (1, 2)):
            seed = seed_for_output(word, output)
            seeds += [seed, seed - (1 << 64), seed + (1 << 64)]
        for phi, a, b in itertools.product(EDGES, EDGES, EDGE_SPECIFICITIES):
            test = ScreeningTest(a, b)
            for seed in seeds:
                got = counts(simulate_cohort(test, phi, n, seed))
                assert got == cohort_counts(a, b, phi, n, seed), (phi, a, b, seed)

    @pytest.mark.parametrize("n", [65535, 65536, 65537])
    def test_either_side_of_a_chunk_boundary(self, monkeypatch, n):
        # One subject short of, exactly at and one past the end of the first
        # block: first at the module's own block size, then with blocks of
        # 2^16 subjects, which end at 65536.  The last subject's disease
        # draw sits on the 0.5 edge: just inside it for one seed, just
        # outside for the other.
        from screencurve import cohort as mod

        def check(n):
            inside = seed_for_output(2**63 - 1, 2 * n - 1) - (1 << 64)
            outside = seed_for_output(2**63, 2 * n - 1) + (1 << 64)
            cases = [
                (0.95, 0.75, 0.34, -(1 << 63) + 17),
                (1.0 - 2.0**-53, 2.0**-53, 0.5, inside),
                (0.5, 0.5, 0.5, outside),
            ]
            for a, b, phi, seed in cases:
                got = counts(simulate_cohort(ScreeningTest(a, b), phi, n, seed))
                assert got == cohort_counts(a, b, phi, n, seed), (n, a, b, phi, seed)

        check(mod._CHUNK + n - 65536)
        monkeypatch.setattr(mod, "_CHUNK", 1 << 16)
        check(n)

    @pytest.mark.parametrize(
        "a, b, phi, n, seed, expected",
        [
            (0.95, 0.75, 0.34, (1 << 20) - 1, -7, (339404, 173040, 518585, 17546)),
            (0.5, 1.0 - 2.0**-53, 0.5, (1 << 20) + 1, (1 << 64) + 99,
             (262636, 0, 524356, 261585)),
            (0.8, 0.9, 0.02, 1_000_003, 2024, (15978, 97457, 882619, 3949)),
        ],
    )
    def test_frozen_large_cohorts(self, a, b, phi, n, seed, expected):
        # Frozen from the library and checked once against cohort_counts
        # (a few seconds each in pure Python, too slow to repeat here).
        assert counts(simulate_cohort(ScreeningTest(a, b), phi, n, seed)) == expected


class TestGoldenCountsOnTheSwarKernel(TestGoldenCounts):
    """The same counts from the kernel a process without numpy runs.

    This process has numpy loaded, so ``_tally`` would take the numpy kernel;
    here ``simulate_cohort`` calls the SWAR kernel itself.  The block
    boundaries the inherited tests cross, at 2^15 and 2^16 subjects, are
    boundaries of the SWAR kernel's blocks too.
    """

    @pytest.fixture(autouse=True)
    def swar_kernel(self, monkeypatch):
        assert (1 << 15) % cohort_module._SWAR_CHUNK == 0
        monkeypatch.setattr(cohort_module, "_tally", cohort_module._tally_swar)


#: Cutoffs for the kernels themselves: every edge word, both ends of the
#: range [0, 2^64] and any word in between.
CUTOFFS = st.one_of(st.sampled_from([*EDGE_WORDS, 1 << 64]), st.integers(0, 1 << 64))

#: First subjects a little either side of a block boundary of either kernel.
FIRST_SUBJECTS = st.builds(
    lambda edge, offset: max(0, edge + offset),
    st.sampled_from([0, cohort_module._SWAR_CHUNK, 3 * cohort_module._SWAR_CHUNK,
                     cohort_module._CHUNK]),
    st.integers(-40, 40),
)

#: The cutoffs ``simulate_cohort`` builds for ANCHOR at prevalence 0.34.
ANCHOR_CUTOFFS = tuple(map(cohort_module._cutoff, (0.34, 0.95, 0.25)))


class TestSwarKernel:
    """The numpy-free kernel against the numpy one, called directly."""

    @given(
        seed=st.integers(0, (1 << 64) - 1),
        cutoffs=st.tuples(CUTOFFS, CUTOFFS, CUTOFFS),
        lo=FIRST_SUBJECTS,
        size=st.integers(0, 2 * cohort_module._SWAR_CHUNK + 100),
        split=st.floats(0.0, 1.0),
    )
    def test_both_kernels_count_alike_however_the_range_is_split(
        self, seed, cutoffs, lo, size, split
    ):
        hi, mid = lo + size, lo + round(split * size)
        swar = cohort_module._tally_swar(seed, cutoffs, lo, hi)
        assert swar == cohort_module._tally_numpy(seed, cutoffs, lo, hi)
        parts = [cohort_module._tally_swar(seed, cutoffs, *r) for r in ((lo, mid), (mid, hi))]
        assert tuple(map(sum, zip(*parts))) == swar

    def test_two_threads_get_the_same_counts(self):
        # The lane constants are built once and shared, read-only; the
        # threads race to build them first.
        n = 3 * cohort_module._SWAR_CHUNK + 5
        calls = [
            [(seed, ANCHOR_CUTOFFS, 0, n) for seed in range(4)],
            [(seed, (1 << 63, 2048, 1 << 64), 11, n + 11) for seed in range(4, 8)],
        ]
        expected = [[cohort_module._tally_swar(*call) for call in batch] for batch in calls]
        start = threading.Barrier(2, timeout=60)

        def run(batch):
            start.wait()
            return [cohort_module._tally_swar(*call) for call in batch]

        interval = sys.getswitchinterval()
        cohort_module._lanes.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(run, calls, timeout=60)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_memory_within_the_budget_is_bounded(self):
        # A block's ints are 64 KiB each whatever n is; the warm-up call
        # builds the cached lane constants.
        cohort_module._tally_swar(1, ANCHOR_CUTOFFS, 0, 10)
        tracemalloc.start()
        try:
            cohort_module._tally_swar(2, ANCHOR_CUTOFFS, 0, cohort_module._SWAR_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def address(array):
    return array.__array_interface__["data"][0]


class TestBufferPlacement:
    """The kernel's buffers sit apart from each other modulo 4096 bytes."""

    @pytest.mark.parametrize("size", [1, 7, 2000, 1 << 15, 1 << 20])
    def test_buffers_are_disjoint_at_distinct_page_offsets(self, size):
        from screencurve import cohort as mod

        buffers = mod._buffers(size)
        assert [(b.dtype, b.size) for b in buffers] == [
            (np.uint64, size),
            (np.uint64, 2 * size),
            (np.uint64, 2 * size),
            (np.bool_, size),
            (np.bool_, size),
        ]
        spans = sorted((address(b), address(b) + b.nbytes) for b in buffers)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert all(address(b) % 64 == 0 for b in buffers)
        offsets = sorted(address(b) % 4096 for b in buffers)
        # Distinct, and at least a cache line apart around the 4096 circle.
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        gaps.append(offsets[0] + 4096 - offsets[-1])
        assert min(gaps) >= 64
        # The steps are the counter offsets 2j * golden (mod 2^64).
        stride = np.uint64(2 * 0x9E3779B97F4A7C15 % 2**64)
        assert np.array_equal(buffers[0], np.arange(size, dtype=np.uint64) * stride)

    def test_counts_past_one_full_block_match_the_oracle(self):
        # 2^20 + 3 subjects: 32 full blocks of 2^15, then a block of three.
        n, seed = (1 << 20) + 3, (1 << 63) + 5
        got = counts(simulate_cohort(ScreeningTest(0.6, 0.85), 0.1, n, seed))
        assert got == cohort_counts(0.6, 0.85, 0.1, n, seed)

    def test_calls_of_changing_sizes_in_one_process_match_the_oracle(self):
        # Each call leaves its counters in the buffers; the next, smaller or
        # larger, must count only its own subjects.
        assert "numpy" in sys.modules
        calls = [(2000, 0.95, 0.75, 0.34), (7, 0.6, 0.85, 0.5), ((1 << 15) + 1, 0.5, 0.5, 0.1),
                 (2000, 0.8, 0.9, 0.02), (1, 1.0, 0.0, 0.5)]
        for seed, (n, a, b, phi) in enumerate(calls):
            got = counts(simulate_cohort(ScreeningTest(a, b), phi, n, seed))
            assert got == cohort_counts(a, b, phi, n, seed), (n, a, b, phi)

    def test_a_call_that_finds_the_kept_block_busy_makes_its_own(self):
        # As a call on another thread, or a re-entered one, would find it.
        simulate_cohort(ANCHOR, 0.34, 2000, 1)
        held = cohort_module._kept.pop(cohort_module._CHUNK)
        try:
            for n in (2000, (1 << 15) + 1):
                got = counts(simulate_cohort(ANCHOR, 0.34, n, n))
                assert got == cohort_counts(0.95, 0.75, 0.34, n, n)
        finally:
            cohort_module._kept[cohort_module._CHUNK] = held

    def test_a_call_interrupted_mid_count_leaves_later_calls_exact(self, monkeypatch):
        # The interrupted call may keep its block or lose it; either way the
        # next calls count only their own subjects.
        mixes = itertools.count()

        def fail_on_the_second_block(words, scratch):
            if next(mixes) == 1:
                raise RuntimeError("interrupted")
            _mix_in_place(words, scratch)

        monkeypatch.setattr(cohort_module, "_mix_in_place", fail_on_the_second_block)
        with pytest.raises(RuntimeError, match="interrupted"):
            simulate_cohort(ANCHOR, 0.34, (1 << 15) + 3, 3)
        monkeypatch.undo()
        for n in (2000, (1 << 15) + 1):
            got = counts(simulate_cohort(ANCHOR, 0.34, n, n))
            assert got == cohort_counts(0.95, 0.75, 0.34, n, n)

    def test_a_small_call_reuses_the_kept_block(self):
        simulate_cohort(ANCHOR, 0.34, 2000, 1)
        tracemalloc.start()
        try:
            simulate_cohort(ANCHOR, 0.34, 2000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


class TestSimulateCohort:
    def test_determinism_pin(self):
        # Regression pin frozen from the first run; correctness of the
        # statistics is asserted separately by the bound tests below.
        result = simulate_cohort(ANCHOR, 0.34, 10_000, 42)
        assert (result.true_pos, result.false_pos, result.true_neg, result.false_neg) == (
            3233,
            1610,
            4966,
            191,
        )

    def test_reproducible_and_seed_sensitive(self):
        one = simulate_cohort(ANCHOR, 0.34, 5_000, 7)
        two = simulate_cohort(ANCHOR, 0.34, 5_000, 7)
        other = simulate_cohort(ANCHOR, 0.34, 5_000, 8)
        assert (one.true_pos, one.false_pos, one.true_neg, one.false_neg) == (
            two.true_pos,
            two.false_pos,
            two.true_neg,
            two.false_neg,
        )
        assert (one.true_pos, one.false_pos) != (other.true_pos, other.false_pos)

    def test_seed_normalization_wraps_modulo_2_64(self):
        wrapped = simulate_cohort(ANCHOR, 0.34, 1_000, (1 << 64) + 5)
        plain = simulate_cohort(ANCHOR, 0.34, 1_000, 5)
        negative = simulate_cohort(ANCHOR, 0.34, 1_000, -1)
        top = simulate_cohort(ANCHOR, 0.34, 1_000, (1 << 64) - 1)
        assert wrapped.true_pos == plain.true_pos
        assert negative.true_pos == top.true_pos

    def test_tallies_are_consistent(self):
        result = simulate_cohort(ANCHOR, 0.34, 20_000, 3)
        total = result.true_pos + result.false_pos + result.true_neg + result.false_neg
        assert total == result.n == 20_000
        positives = result.true_pos + result.false_pos
        assert result.empirical_ppv == pytest.approx(result.true_pos / positives)
        diseased = result.true_pos + result.false_neg
        healthy = result.false_pos + result.true_neg
        sens_hat = result.true_pos / diseased
        fpr_hat = result.false_pos / healthy
        assert result.empirical_lr_plus == pytest.approx(sens_hat / fpr_hat)

    def test_statistical_agreement_with_exact_values(self):
        n = 200_000
        result = simulate_cohort(ANCHOR, 0.34, n, 11)
        positives = result.true_pos + result.false_pos
        se = math.sqrt(MC_PPV_9575_AT_034 * (1.0 - MC_PPV_9575_AT_034) / positives)
        assert abs(result.empirical_ppv - MC_PPV_9575_AT_034) <= 4.0 * se
        prev_hat = (result.true_pos + result.false_neg) / n
        prev_se = math.sqrt(0.34 * 0.66 / n)
        assert abs(prev_hat - 0.34) <= 4.0 * prev_se
        assert result.empirical_lr_plus == pytest.approx(3.8, rel=0.05)

    @pytest.mark.parametrize(
        "chunk, parts", [(1_000, 1), (1_000, 2), (1_000, 3), (7, 3), (4_096, 2)]
    )
    def test_chunking_is_invisible(self, monkeypatch, chunk, parts):
        # Counter-mode output must not depend on internal block boundaries
        # or on how the subjects are cut into contiguous ranges.
        from screencurve import cohort as mod

        n = 4_096
        big = simulate_cohort(ANCHOR, 0.41, n, 99)
        monkeypatch.setattr(mod, "_CHUNK", chunk)
        assert counts(simulate_cohort(ANCHOR, 0.41, n, 99)) == counts(big)
        cutoffs = (mod._cutoff(0.41), mod._cutoff(0.95), mod._cutoff(1.0 - 0.75))
        bounds = [n * k // parts for k in range(parts + 1)]
        tallies = [mod._tally(99, cutoffs, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        diseased, true_pos, false_pos = map(sum, zip(*tallies))
        assert (true_pos, false_pos, diseased - true_pos) == (
            big.true_pos,
            big.false_pos,
            big.false_neg,
        )

    def test_memory_per_call_is_bounded(self):
        # A call allocates its blocks' buffers once, whatever n is; numpy
        # reports its data buffers to tracemalloc.  The warm-up call builds
        # the kept block, so this bound holds with or without it.
        simulate_cohort(ANCHOR, 0.34, 3_000_000, 1)
        tracemalloc.start()
        try:
            simulate_cohort(ANCHOR, 0.34, 3_000_000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_concurrent_calls_give_the_same_counts(self):
        # numpy lets go of the interpreter lock inside each pass, so the
        # passes of two threads' calls interleave; each call must still work
        # in buffers of its own.
        from screencurve import cohort as mod

        n = 3 * mod._CHUNK + 5
        calls = [
            [(ANCHOR, 0.34, n, seed) for seed in range(4)],
            [(ScreeningTest(0.6, 0.85), 0.1, n + 11, seed) for seed in range(4, 8)],
        ]
        expected = [[counts(simulate_cohort(*call)) for call in batch] for batch in calls]
        start = threading.Barrier(2)

        def run(batch):
            start.wait()
            return [counts(simulate_cohort(*call)) for call in batch]

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, calls)) == expected

    def test_threads_contending_for_the_kept_block_give_the_same_counts(self):
        # More threads than cores, switching as often as the interpreter
        # lets them: at most one call at a time may use the kept block, and
        # every other call counts in a block of its own.
        from screencurve import cohort as mod

        sizes = [1, 7, 2000, mod._CHUNK + 3]
        calls = [[(ANCHOR, 0.34, n, 10 * k + j) for j, n in enumerate(sizes * 2)]
                 for k in range(4)]
        expected = [[counts(simulate_cohort(*call)) for call in batch] for batch in calls]
        start = threading.Barrier(len(calls), timeout=60)

        def run(batch):
            start.wait()
            return [counts(simulate_cohort(*call)) for call in batch]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(calls)) as pool:
                assert list(pool.map(run, calls, timeout=60)) == expected
        finally:
            sys.setswitchinterval(interval)
        assert mod._CHUNK in mod._kept

    def test_absent_estimates_with_reasons(self):
        # A test that never fires yields no positives, hence no PPV estimate.
        silent = simulate_cohort(ScreeningTest(0.0, 1.0), 0.5, 1_000, 1)
        assert silent.true_pos + silent.false_pos == 0
        assert silent.empirical_ppv is None
        assert "positive" in silent.ppv_reason
        with pytest.raises(AbsentEstimateError):
            silent.require_ppv()
        # Without any diseased subjects there is no sensitivity estimate.
        healthy_only = simulate_cohort(ANCHOR, 0.0, 1_000, 1)
        assert healthy_only.empirical_lr_plus is None
        with pytest.raises(AbsentEstimateError):
            healthy_only.require_lr_plus()
        # Without any healthy subjects there is no false-positive estimate.
        diseased_only = simulate_cohort(ANCHOR, 1.0, 1_000, 1)
        assert diseased_only.empirical_lr_plus is None
        assert diseased_only.empirical_ppv == pytest.approx(1.0)

    def test_present_estimates_are_returned(self):
        result = simulate_cohort(ANCHOR, 0.34, 1_000, 1)
        estimates = (result.empirical_ppv, result.empirical_lr_plus)
        assert None not in estimates
        assert (result.require_ppv(), result.require_lr_plus()) == estimates

    @pytest.mark.parametrize(
        "sens, spec, phi, ppv_reason, lr_reason",
        [
            # One missing count each: the reason names it.
            (0.95, 0.75, 0.0, None, "no diseased subjects were drawn"),
            (0.95, 0.75, 1.0, None, "no healthy subjects were drawn"),
            (0.95, 1.0, 0.5, None, "no false positives: empirical LR+ is unbounded"),
            (0.0, 0.75, 0.5, None, "no true positives: empirical LR+ collapses to 0"),
            # Several at once: diseased, healthy, false positives, true positives.
            (0.0, 1.0, 0.5, "no subject tested positive in 1000 draws",
             "no false positives: empirical LR+ is unbounded"),
            (0.0, 1.0, 0.0, "no subject tested positive in 1000 draws",
             "no diseased subjects were drawn"),
            (0.0, 1.0, 1.0, "no subject tested positive in 1000 draws",
             "no healthy subjects were drawn"),
            (0.0, 0.75, 1.0, "no subject tested positive in 1000 draws",
             "no healthy subjects were drawn"),
        ],
    )
    def test_absent_estimate_reasons_are_pinned(self, sens, spec, phi, ppv_reason, lr_reason):
        result = simulate_cohort(ScreeningTest(sens, spec), phi, 1_000, 1)
        assert (result.ppv_reason, result.lr_reason) == (ppv_reason, lr_reason)
        assert (result.empirical_ppv is None) == (ppv_reason is not None)
        assert result.empirical_lr_plus is None

    @pytest.mark.parametrize("bad_n", [0, -5, 2.5, True])
    def test_count_validation(self, bad_n):
        with pytest.raises(ParameterError):
            simulate_cohort(ANCHOR, 0.5, bad_n, 0)

    def test_prevalence_validation(self):
        with pytest.raises(ParameterError):
            simulate_cohort(ANCHOR, 1.5, 100, 0)

    def test_seed_type_validation(self):
        with pytest.raises(ParameterError):
            simulate_cohort(ANCHOR, 0.5, 100, 1.5)
        with pytest.raises(ParameterError):
            simulate_cohort(ANCHOR, 0.5, 100, True)


class TestEmpiricalCurve:
    def test_shape_and_determinism(self):
        phis = [0.1, 0.34, 0.9]
        one = empirical_ppv_curve(ANCHOR, phis, 10_000, 5)
        two = empirical_ppv_curve(ANCHOR, phis, 10_000, 5)
        assert [p.phi for p in one] == phis
        assert [(p.phi, p.ppv) for p in one] == [(p.phi, p.ppv) for p in two]
        # Point k's seed is output k + 1 of the master seed's stream.
        assert [p.cohort.seed for p in one] == [
            0x63033B0CA389C35A,
            0xC097314D939736F8,
            0x3B92D3F0106BC147,
        ]

    def test_points_track_the_exact_curve(self):
        phis = [0.2, 0.5, 0.8]
        points = empirical_ppv_curve(ANCHOR, phis, 50_000, 12)
        for point in points:
            exact = ppv(ANCHOR, point.phi)
            cohort = point.cohort
            positives = cohort.true_pos + cohort.false_pos
            se = math.sqrt(exact * (1.0 - exact) / positives)
            assert abs(point.ppv - exact) <= 4.0 * se

    def test_present_point_requires(self):
        point = empirical_ppv_curve(ANCHOR, [0.5], 1_000, 1)[0]
        assert point.ppv is not None
        assert point.require() == point.ppv

    def test_absent_point_requires(self):
        points = empirical_ppv_curve(ScreeningTest(0.0, 1.0), [0.5], 100, 1)
        assert points[0].ppv is None
        with pytest.raises(AbsentEstimateError):
            points[0].require()

    @pytest.mark.parametrize("phis", [0.5, None, 3])
    def test_a_non_iterable_grid_is_refused_by_name(self, phis):
        with pytest.raises(ParameterError) as info:
            empirical_ppv_curve(ANCHOR, phis, 10, 1)
        assert str(info.value) == f"phis must be an iterable of probabilities, got {phis!r}"

    def test_sub_seeds_differ_between_points(self):
        points = empirical_ppv_curve(ANCHOR, [0.5, 0.5], 2_000, 9)
        # Same prevalence twice: distinct derived seeds make the two
        # estimates statistically independent, so identical tallies would
        # signal a wiring bug.
        first, second = points[0].cohort, points[1].cohort
        assert (
            first.true_pos,
            first.false_pos,
            first.true_neg,
            first.false_neg,
        ) != (second.true_pos, second.false_pos, second.true_neg, second.false_neg)
