import math

import numpy as np
import pytest

from arccover.covering import (
    Arc,
    GapSet,
    apply_arc,
    coverage_probability,
    first_cover_given,
    first_cover_index,
    gap_measure_samples,
    pair_uncovered_exact,
    pair_uncovered_mc,
)
from arccover.sequences import LengthSequence

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
