import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccover import covering
from arccover._accum import segmented_gauss_legendre
from arccover._philox import uniforms
from arccover.covering import (
    Arc,
    GapSet,
    _check_run_args,
    _first_cover,
    _miss_words,
    _subtract,
    _arc_pieces,
    _uncovered_measure,
    apply_arc,
    coverage_probability,
    first_cover_given,
    first_cover_index,
    gap_measure_samples,
    pair_uncovered_exact,
    pair_uncovered_mc,
)
from arccover.integrals import product_integral
from arccover.sequences import LengthSequence, generate

from conftest import uncovered_fraction_grid


def assert_structure(state: GapSet):
    prev_end = 0.0
    recomputed = 0.0
    for start, end in state.gaps:
        assert 0.0 <= start < end <= 1.0
        assert start >= prev_end
        prev_end = end
        recomputed += end - start
    assert state.total_gap == pytest.approx(recomputed, abs=1e-12)


class TestArc:
    def test_half_open_convention(self):
        # dyadic endpoints keep the mod-1 arithmetic exact
        arc = Arc(0.875, 0.25)
        assert arc.covers(0.875)        # start included
        assert arc.covers(0.0625)       # wraps past zero
        assert not arc.covers(0.125)    # end excluded
        assert not arc.covers(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="center"):
            Arc(1.0, 0.5)
        with pytest.raises(ValueError, match="length"):
            Arc(0.5, 1.0)


class TestApplyArc:
    def test_single_subtraction(self):
        state = apply_arc(GapSet.full_circle(), Arc(0.0, 0.4))
        assert state.gaps == ((0.4, 1.0),)
        assert state.total_gap == pytest.approx(0.6, abs=1e-15)

    def test_partial_overlap(self):
        state = GapSet(gaps=((0.4, 1.0),), total_gap=0.6)
        state = apply_arc(state, Arc(0.3, 0.4))
        assert state.gaps == ((0.7, 1.0),)
        assert state.total_gap == pytest.approx(0.3, abs=1e-15)

    def test_wrapping_arc_completes_cover(self):
        state = GapSet(gaps=((0.7, 1.0),), total_gap=0.3)
        state = apply_arc(state, Arc(0.6, 0.5))
        assert state.gaps == ()
        assert state.total_gap == 0.0
        assert state.covered

    def test_gap_split(self):
        state = apply_arc(GapSet.full_circle(), Arc(0.375, 0.25))
        assert state.gaps == ((0.0, 0.375), (0.625, 1.0))
        assert state.total_gap == 0.75

    def test_idempotent(self):
        state = apply_arc(GapSet.full_circle(), Arc(0.3, 0.25))
        once = apply_arc(state, Arc(0.6, 0.3))
        twice = apply_arc(once, Arc(0.6, 0.3))
        assert once.gaps == twice.gaps
        assert once.total_gap == twice.total_gap

    def test_structural_invariants_random_ops(self):
        # fresh circle every 200 arcs; tiny arcs keep many gaps alive
        rng = np.random.default_rng(60)
        ops = 0
        while ops < 100_000:
            state = GapSet.full_circle()
            for _ in range(200):
                arc = Arc(float(rng.random()), float(rng.uniform(0.001, 0.01)))
                state = apply_arc(state, arc)
                assert_structure(state)
                ops += 1

    def test_gapset_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            GapSet(gaps=((0.0, 0.5), (0.4, 0.8)), total_gap=0.9)
        with pytest.raises(ValueError, match="half-open"):
            GapSet(gaps=((0.5, 0.5),), total_gap=0.0)


class TestFirstCover:
    def test_explicit_three_arc_cover(self):
        arcs = [Arc(0.0, 0.4), Arc(0.3, 0.4), Arc(0.6, 0.5)]
        assert first_cover_given(arcs) == 3

    def test_single_arc_never_covers(self):
        assert first_cover_given([Arc(0.2, 0.999)]) is None

    def test_early_stop(self):
        arcs = [Arc(0.0, 0.6), Arc(0.5, 0.6), Arc(0.1, 0.2)]
        assert first_cover_given(arcs) == 2

    def test_index_deterministic(self):
        seq = LengthSequence.harmonic(c=2, cap=0.99)
        a = first_cover_index(seq, 17, 500)
        b = first_cover_index(seq, 17, 500)
        assert a == b
        assert a is not None

    def test_index_prefix_consistent(self):
        seq = LengthSequence.harmonic(c=2, cap=0.99)
        full = first_cover_index(seq, 17, 500)
        assert first_cover_index(seq, 17, full) == full
        if full > 1:
            assert first_cover_index(seq, 17, full - 1) is None

    def test_single_toss(self):
        assert first_cover_index(LengthSequence.constant(0.9), 3, 1) is None


class TestCoverageProbability:
    def test_one_arc_never_covers(self):
        result = coverage_probability(LengthSequence.constant(0.9), 1, 50, 5)
        assert result.p_hat == 0.0
        assert result.covered_count == 0

    def test_two_arcs_match_grid_oracle(self):
        # P(two arcs of length 0.6 cover) = 0.2: grid over the second
        # center with the first at 0 (rotation invariance)
        l = 0.6
        d = (np.arange(400_000) + 0.5) / 400_000
        oracle = float(((d <= l) & (d >= 1 - l)).mean())
        assert oracle == pytest.approx(0.2, abs=1e-5)

        result = coverage_probability(LengthSequence.constant(0.6), 2, 20_000, 99)
        assert abs(result.p_hat - oracle) < 3.0 * result.std_err

    def test_degenerate_single_rep(self):
        result = coverage_probability(LengthSequence.constant(0.6), 2, 1, 12)
        assert result.p_hat in (0.0, 1.0)
        assert result.std_err == 0.0

    def test_deterministic(self):
        seq = LengthSequence.harmonic(c=1.5, cap=0.99)
        first = coverage_probability(seq, 100, 200, 2024)
        again = coverage_probability(seq, 100, 200, 2024)
        assert first == again

    def test_invariants_of_result(self):
        result = coverage_probability(LengthSequence.constant(0.6), 3, 400, 777)
        assert result.p_hat == result.covered_count / result.replications
        assert result.std_err == pytest.approx(
            math.sqrt(result.p_hat * (1 - result.p_hat) / result.replications), abs=1e-15
        )


class TestPairUncovered:
    def test_single_arc_exact(self):
        assert pair_uncovered_exact([0.2], 0.5) == pytest.approx(0.6, abs=1e-15)
        oracle = uncovered_fraction_grid([0.2], [0.0, 0.5])
        assert oracle == pytest.approx(0.6, abs=1e-5)

    def test_product_of_single_arc_values(self):
        assert pair_uncovered_exact([0.2, 0.1], 0.15) == pytest.approx(0.65 * 0.8, rel=1e-14)

    def test_coincident_limit(self):
        lengths = [0.2, 0.1]
        tiny = pair_uncovered_exact(lengths, 1e-12)
        assert tiny == pytest.approx((1 - 0.2) * (1 - 0.1), rel=1e-9)

    def test_validity_window(self):
        with pytest.raises(ValueError, match="1 - max"):
            pair_uncovered_exact([0.2], 0.85)
        with pytest.raises(ValueError, match="1 - max"):
            pair_uncovered_exact([0.2], 0.0)

    def test_empty_lengths(self):
        assert pair_uncovered_exact([], 0.3) == 1.0
        result = pair_uncovered_mc([], 0.3, 50, 4)
        assert result.p_hat == 1.0

    def test_mc_matches_exact(self):
        lengths = [0.2, 0.1, 0.05]
        exact = pair_uncovered_exact(lengths, 0.15)
        result = pair_uncovered_mc(lengths, 0.15, 10**5, 5000)
        assert abs(result.p_hat - exact) < 3.0 * result.std_err

    def test_mc_single_rep(self):
        result = pair_uncovered_mc([0.2], 0.5, 1, 9)
        assert result.p_hat in (0.0, 1.0)

    def test_mc_deterministic(self):
        a = pair_uncovered_mc([0.2, 0.1], 0.15, 5000, 33)
        b = pair_uncovered_mc([0.2, 0.1], 0.15, 5000, 33)
        assert a == b


def float_misses(centers, lengths, t):
    """The float predicate pair_uncovered_mc applied to every centre before it
    decided on raw words: (x - u) mod 1 >= l for x = 0 and x = t."""
    to_t = t - centers
    np.add(to_t, 1.0, out=to_t, where=to_t < 0.0)
    return (to_t >= lengths) & (centers > 0.0) & (1.0 - centers >= lengths)


def float_pair_count(lengths, t, reps, seed) -> int:
    """Replications whose arcs all miss 0 and t, decided on ``Generator.random`` centres."""
    lengths = np.asarray(lengths, dtype=np.float64)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    return int(np.count_nonzero(float_misses(rng.random((reps, lengths.size)), lengths, t).all(axis=1)))


def below(x: float, ulps: int) -> float:
    for _ in range(ulps):
        x = float(np.nextafter(x, 0.0))
    return x


def pair_cases(kind: str, count: int, seed: int):
    """(lengths, t) pairs inside the validity window t < 1 - max(lengths)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        if kind == "t-below-lengths":
            t = rng.uniform(1e-3, 0.3)
            lengths = [rng.uniform(t, 1.0 - t) for _ in range(n)]
        elif kind == "t-above-lengths":
            t = rng.uniform(0.05, 0.6)
            lengths = [rng.uniform(1e-3, min(t, 1.0 - t)) for _ in range(n)]
        elif kind == "lengths-near-1-t":
            t = rng.uniform(0.01, 0.9)
            lengths = [below(1.0 - t, rng.randint(1, 4)) for _ in range(n)]
            lengths[0] = rng.uniform(1e-3, 1.0 - t)
        elif kind == "adversarial":
            # Range ends where rounding could move them: l a few grid steps
            # below t and both its float neighbours, subnormal l, t on the
            # 2**-53 grid, and t the last float below 1 - max(l).
            t = rng.choice([rng.uniform(1e-3, 0.45), rng.randint(1, 2**52) * 2.0**-53])
            lengths = [rng.choice([5e-324, 1e-310]) if rng.random() < 0.2
                       else float(np.nextafter(t - rng.randint(0, 3) * 2.0**-53, rng.choice([0.0, t, 1.0])))
                       for _ in range(n)]
            if rng.random() < 0.3:
                t = below(1.0 - max(lengths), 1)
        else:  # tiny-t
            t = rng.choice([5e-324, 2.0**-60, 2.0**-53, 3 * 2.0**-54, 1e-17, 1e-12])
            lengths = [rng.uniform(1e-3, 0.999) for _ in range(n)]
        lengths = [l if 0.0 < l and t < 1.0 - l else rng.uniform(1e-3, 0.5 * (1.0 - t)) for l in lengths]
        yield lengths, t


PAIR_KINDS = ("t-below-lengths", "t-above-lengths", "lengths-near-1-t", "tiny-t", "adversarial")


class TestPairRawWords:
    @pytest.mark.parametrize("kind", PAIR_KINDS)
    def test_counts_equal_the_float_predicate(self, kind):
        # 5 kinds x 60 cases, each with its own seed and replication count.
        for i, (lengths, t) in enumerate(pair_cases(kind, 60, seed=PAIR_KINDS.index(kind))):
            reps = 1 + (37 * i) % 400
            result = pair_uncovered_mc(lengths, t, reps, seed=1000 + i)
            assert result.covered_count == float_pair_count(lengths, t, reps, 1000 + i), (lengths, t)

    def test_chunk_boundaries_keep_the_row_order(self, monkeypatch):
        lengths, t = [0.2, 0.1, 0.05], 0.15
        for reps in (4999, 5000, 5001):
            assert pair_uncovered_mc(lengths, t, reps, 3).covered_count == float_pair_count(lengths, t, reps, 3)
        # Two rows a chunk, and a last chunk of one row.
        monkeypatch.setattr(covering, "_PAIR_CHUNK", 7)
        assert pair_uncovered_mc(lengths, t, 101, 3).covered_count == float_pair_count(lengths, t, 101, 3)
        # More arcs than the chunk holds: one row a chunk.
        lengths = generate(LengthSequence.harmonic(c=0.3, cap=0.99), 40)
        t = 0.0873
        assert pair_uncovered_mc(lengths, t, 57, 8).covered_count == float_pair_count(lengths, t, 57, 8)

    def test_no_arcs_draw_nothing(self, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("no arc, no draw")

        monkeypatch.setattr(np.random, "Philox", no_stream)
        result = pair_uncovered_mc([], 0.3, 77, 4)
        assert result.covered_count == 77 and result.n_arcs == 0

    def test_thresholds_agree_with_the_float_predicate_at_every_edge(self):
        # Each range's first and last k and the k either side of them, at
        # both ends of the word span that shifts to each k: the word ranges
        # must decide as the float predicate does on k * 2**-53.
        rng = random.Random(99)
        cases = [case for kind in PAIR_KINDS for case in pair_cases(kind, 25, seed=50 + len(kind))]
        cases += [([rng.uniform(1e-3, below(1.0 - t, 2)) for _ in range(10)], t)
                  for t in (rng.uniform(1e-6, 0.95) for _ in range(400))]
        cases += [([0.25, 0.5, below(0.75, 1), 2.0**-53], 0.25), ([0.5, 0.125], 2.0**-53 * 3)]
        probed = 0
        for lengths, t in cases:
            lengths = np.asarray(lengths)
            starts, widths = _miss_words(lengths, t)
            first = np.broadcast_to(starts >> np.uint64(11), widths.shape).astype(np.int64)
            last = first + (widths >> np.uint64(11)).astype(np.int64) - 1
            ks = np.concatenate((first - 1, first, first + 1, last - 1, last, last + 1))
            ks = np.clip(ks, 0, 2**53 - 1).astype(np.uint64)
            for low_bits in (0, 2**11 - 1):
                words = (ks << np.uint64(11)) | np.uint64(low_bits)
                raw = (words[None] - starts[:, None, :] < widths[:, None, :]).any(axis=0)
                centers = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
                np.testing.assert_array_equal(raw, float_misses(centers, lengths, t))
                probed += words.size
            # Every range that is not empty ends on a miss, followed by a hit
            # unless the next k starts the other range.
            hit_after = ~float_misses((last + 1) * 2.0**-53, lengths, t)
            assert np.all(float_misses(last[widths > 0] * 2.0**-53, lengths[np.nonzero(widths > 0)[1]], t))
            assert np.all(hit_after[0] | (last[0] + 1 == first[1]))
        assert probed > 100_000


class TestGapMeasure:
    def test_mean_matches_expectation_small(self):
        # short sequence keeps gap events common, so the law is testable cheaply
        seq = LengthSequence.explicit([0.3, 0.2, 0.1, 0.1, 0.05])
        lengths = np.array([0.3, 0.2, 0.1, 0.1, 0.05])
        target = float(np.exp(np.log1p(-lengths).sum()))
        samples = gap_measure_samples(seq, 5, 4000, 21)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - target) < 4.0 * se

    def test_deterministic(self):
        seq = LengthSequence.constant(0.2)
        a = gap_measure_samples(seq, 10, 100, 3)
        b = gap_measure_samples(seq, 10, 100, 3)
        np.testing.assert_array_equal(a, b)


def numpy_stream(seed: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,))))


def gap_list_after(centers, lengths) -> list[tuple[float, float]]:
    gaps = [(0.0, 1.0)]
    for u, l in zip(centers, lengths):
        for a, b in _arc_pieces(u, l):
            _subtract(gaps, a, b)
    return gaps


unit_centers = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
unit_lengths = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
random_arcs = st.lists(st.tuples(unit_centers, unit_lengths), min_size=1, max_size=30)
# Sixteenths: pieces that end exactly where another starts.
dyadic_arcs = st.lists(st.tuples(st.integers(0, 15).map(lambda i: i / 16),
                                 st.integers(1, 15).map(lambda j: j / 16)), min_size=1, max_size=20)


@st.composite
def arcs_ending_at_one(draw):
    """Arcs whose u + l lands on, or one rounding step either side of, 1.0."""
    arcs = []
    for _ in range(draw(st.integers(1, 12))):
        u = draw(st.floats(min_value=1e-3, max_value=1.0, exclude_max=True))
        l = np.nextafter(1.0 - u, draw(st.sampled_from([0.0, 1.0]))) if draw(st.booleans()) else 1.0 - u
        if 0.0 < l < 1.0:
            arcs.append((u, float(l)))
    arcs += draw(st.lists(st.tuples(unit_centers, unit_lengths), max_size=6))
    return arcs or [(0.5, 0.5)]


def sorted_measure(centers: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The measure of each row of arcs, from its separately sorted starts and ends."""
    return _uncovered_measure(np.sort(centers, axis=1), np.sort(centers + lengths, axis=1))


def argsort_measure(centers: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The earlier form of the measure: each row's arcs sorted by start, then
    the running maximum of their ends, with the same terms summed in the
    same order."""
    order = np.argsort(centers, axis=1)
    starts = np.take_along_axis(centers, order, axis=1)
    reach = np.maximum.accumulate(lengths[order] + starts, axis=1)
    reach0 = np.maximum(reach[:, -1] - 1.0, 0.0)
    reach = np.maximum(reach, reach0[:, None])
    terms = np.maximum(starts[:, 1:] - reach[:, :-1], 0.0)
    gaps = np.maximum(starts[:, 0] - reach0, 0.0)
    gaps += terms.sum(axis=1)
    gaps += np.maximum(1.0 - reach[:, -1], 0.0)
    return gaps


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSortAndSweep:
    @given(st.one_of(random_arcs, dyadic_arcs, arcs_ending_at_one()))
    @settings(max_examples=600, deadline=None)
    def test_flag_and_measure_match_gap_list(self, arcs):
        centers, lengths = (np.array(v) for v in zip(*arcs))
        measures = sorted_measure(centers[None, :], lengths)
        assert_same_bits(measures, argsort_measure(centers[None, :], lengths))
        measure = measures[0]
        covered = _first_cover(lengths.tolist(), centers.tolist()) is not None
        assert (measure == 0.0) == covered
        gaps = gap_list_after(centers.tolist(), lengths.tolist())
        assert measure == pytest.approx(math.fsum(b - a for a, b in gaps), abs=1e-16 * (len(gaps) + 1))

    def test_prefix_early_exit_matches_full_sweep(self):
        # c = 0.7, n = 3000: replications first cover within 64 arcs, within
        # 256, later, and never, and 120 replications make two batches.
        seq, n, reps, seed = LengthSequence.harmonic(c=0.7, cap=0.99), 3000, 120, 5
        full = sorted_measure(uniforms(seed, np.arange(reps), 0, n), generate(seq, n))
        result = coverage_probability(seq, n, reps, seed)
        assert result.covered_count == np.count_nonzero(full == 0.0)
        assert 0 < result.covered_count < reps
        np.testing.assert_array_equal(gap_measure_samples(seq, n, reps, seed), full)

    @pytest.mark.parametrize("budget", [3000 * 25, 3000 * 120, 3000 * 7 + 1])
    def test_reused_buffers_match_whole_array_oracle(self, budget, monkeypatch):
        # 25 rows a chunk: four full chunks and a short one of 20; 120 rows:
        # one chunk; 7 rows: 17 full chunks and one of 1.  Replications that
        # cover within a prefix move the rest up their chunk's buffers.
        seq, n, reps, seed = LengthSequence.harmonic(c=0.7, cap=0.99), 3000, 120, 5
        lengths = generate(seq, n)
        full = sorted_measure(uniforms(seed, np.arange(reps), 0, n), lengths)
        monkeypatch.setattr(covering, "_SWEEP_BUDGET", budget)
        np.testing.assert_array_equal(gap_measure_samples(seq, n, reps, seed), full)
        assert coverage_probability(seq, n, reps, seed).covered_count == np.count_nonzero(full == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 64, 1000])
    def test_same_bits_as_argsort_reference(self, m):
        rng = np.random.default_rng(m)
        centers, lengths = rng.random((30, m)), rng.uniform(0.0, min(0.99, 12.0 / m), m)
        want = argsort_measure(centers, lengths)
        assert_same_bits(sorted_measure(centers, lengths), want)
        assert m < 64 or 0 < np.count_nonzero(want == 0.0) < want.size

    @pytest.mark.parametrize("m", [1, 3, 8, 40])
    def test_same_bits_as_argsort_reference_on_grid_arcs(self, m):
        # Centres k/64 and lengths j/64: starts tie, ends tie, ends meet
        # starts and 1.0 exactly, and the argsort order among ties is free.
        rng = np.random.default_rng(64 + m)
        centers = rng.integers(0, 64, (2000, m)) / 64
        lengths = rng.integers(1, min(64, 512 // m), m) / 64
        want = argsort_measure(centers, lengths)
        assert_same_bits(sorted_measure(centers, lengths), want)
        assert m == 1 or 0 < np.count_nonzero(want == 0.0) < want.size

    def test_peak_memory_of_the_sweep(self):
        # Two buffers of _SWEEP_BUDGET doubles, and the measure's terms.
        seq, limit = LengthSequence.harmonic(c=0.5), 3 * covering._SWEEP_BUDGET * 8 + 2**20
        gap_measure_samples(seq, 200, 2, 9)  # loads numpy.random outside the trace
        tracemalloc.start()
        try:
            gap_measure_samples(seq, 5000, 200, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

    def test_matches_gap_list_on_numpy_streams(self):
        seq, n, reps, seed = LengthSequence.harmonic(c=0.7, cap=0.99), 400, 80, 2**33 + 1
        lengths = generate(seq, n).tolist()
        streams = [numpy_stream(seed, r).random(n).tolist() for r in range(reps)]
        covered = sum(_first_cover(lengths, centers) is not None for centers in streams)
        assert coverage_probability(seq, n, reps, seed).covered_count == covered
        totals = [math.fsum(b - a for a, b in gap_list_after(centers, lengths)) for centers in streams]
        np.testing.assert_allclose(gap_measure_samples(seq, n, reps, seed), totals, rtol=0, atol=1e-14)
        assert first_cover_index(seq, seed, n) == _first_cover(lengths, streams[0])


class TestSeedValidation:
    @pytest.mark.parametrize("call", [
        lambda: coverage_probability(LengthSequence.constant(0.5), 3, 5, -1),
        lambda: gap_measure_samples(LengthSequence.constant(0.5), 3, 5, -1),
        lambda: first_cover_index(LengthSequence.constant(0.5), -2, 3),
        lambda: pair_uncovered_mc([0.2], 0.3, 5, -3),
    ], ids=["coverage", "gap-measure", "first-cover", "pair"])
    def test_negative_seed_names_seed(self, call):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            call()


class TestReplicationLimit:
    @pytest.mark.parametrize("call", [coverage_probability, gap_measure_samples], ids=["coverage", "gap-measure"])
    @pytest.mark.parametrize("reps", [0, 2**32 + 1, 5 * 10**9])
    def test_rejects_before_any_draw(self, call, reps, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before rejecting reps")

        monkeypatch.setattr(covering, "uniforms", no_draw)
        with pytest.raises(ValueError, match="reps"):
            call(LengthSequence.constant(0.3), 12, reps, 1)

    def test_every_spawn_key_below_2_32_is_allowed(self):
        assert _check_run_args(12, 2**32, 5) == 5


def stevens(n: int, a: float) -> Fraction:
    """The chance that n arcs of length a, placed uniformly, cover the circle, exactly.

    Stevens (1939): sum over k of (-1)**k * C(n, k) * (1 - k*a)_+**(n-1),
    for the float a itself; its alternating sum cancels, hence fractions.
    """
    a = Fraction(a)
    return sum((-1) ** k * math.comb(n, k) * (1 - k * a) ** (n - 1) for k in range(n + 1) if k * a < 1)


class TestOracles:
    """The Monte Carlo and the product integral against exact values and the second-moment chain."""

    REPS = 20_000

    def test_stevens_formula(self):
        assert stevens(2, 0.6) == Fraction(0.6) * 2 - 1
        assert stevens(5, 0.1) == 0 and stevens(1, 0.9) == 0

    @pytest.mark.parametrize("n", [3, 6, 12, 30, 100])
    def test_coverage_matches_stevens(self, n):
        for i, a in enumerate((0.05, 0.2, 0.3, 0.45, 0.7)):
            p = stevens(n, a)
            covered = coverage_probability(LengthSequence.constant(a), n, self.REPS, 100 * n + i).covered_count
            variance = float(p * (1 - p))
            if variance == 0.0:
                assert covered == p * self.REPS, a
            else:
                z = float(Fraction(covered, self.REPS) - p) / math.sqrt(variance / self.REPS)
                assert abs(z) < 4.0, (a, float(p), z)

    @pytest.mark.parametrize("c", [0.4, 0.8])
    def test_second_moment_through_product_integral(self, c):
        # E[U**2] is the chance that two uniform points both stay uncovered:
        # 2 * integral over d in [0, 1/2] of prod (1 - l - min(l, d)), which is
        # 2 * prod (1 - l)**2 * I_n(1/2) for lengths below 1/2.
        seq, n = LengthSequence.harmonic(c=c, cap=0.45), 10
        lengths = generate(seq, n)
        moment = 2.0 * float(np.prod((1.0 - lengths) ** 2)) * product_integral(lengths, 0.5).value
        # Acceptance 9's target: the exact pair probability, a polynomial of
        # degree <= n between lengths, by an exact Gauss-Legendre rule.
        nodes, weights = segmented_gauss_legendre(np.unique(np.concatenate(([0.0, 0.5], lengths))), n // 2 + 1)
        target = 2.0 * math.fsum(w * pair_uncovered_exact(lengths, d) for d, w in zip(nodes, weights))
        assert moment == pytest.approx(target, rel=1e-14)
        squares = gap_measure_samples(seq, n, self.REPS, 2025) ** 2
        se = float(squares.std(ddof=1)) / math.sqrt(self.REPS)
        assert abs(float(squares.mean()) - moment) < 4.0 * se

    @pytest.mark.parametrize("c", [0.5, 0.8, 1.0, 1.5])
    def test_paley_zygmund_bounds_the_chance_to_stay_uncovered(self, c):
        # P(U > 0) >= E[U]**2 / E[U**2] = 1 / (2 * I_n(1/2)).
        seq, n = LengthSequence.harmonic(c=c, cap=0.45), 100
        bound = 1.0 / (2.0 * product_integral(generate(seq, n), 0.5).value)
        uncovered = 1.0 - coverage_probability(seq, n, self.REPS, 31).covered_count / self.REPS
        se = math.sqrt(uncovered * (1.0 - uncovered) / self.REPS)
        assert 0.0 < bound < 1.0
        assert uncovered >= bound - 3.0 * se, (bound, uncovered)
