import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arccover import _accum, integrals
from arccover._accum import (
    MAX_NODES,
    compensated_cumsum,
    exact_parts,
    gauss_legendre,
    log_sum_exp,
    product_rule,
    segmented_gauss_legendre,
)
from arccover.cli import main
from arccover.integrals import (
    chebyshev_lower_bound,
    criterion_partial_sums,
    divergence_table,
    pair_factor_eval,
    pair_factor_integral,
    product_integral,
    shepp_lower_bound,
)
from arccover.sequences import LengthSequence, generate

from conftest import (
    built_gauss_legendre,
    growth,
    growth_derivatives,
    midpoint_riemann,
    mp_log_product_integral,
    paper_growth,
)


def random_instance(rng, n_max=8, eps_below_half=False):
    """A valid (lengths, eps) pair with lengths nonincreasing in (0, 1)."""
    n = int(rng.integers(1, n_max + 1))
    l1 = float(rng.uniform(0.05, 0.9))
    lengths = np.sort(rng.uniform(0.01, l1, n))[::-1]
    hi = 1.0 - lengths[0]
    if eps_below_half:
        hi = min(hi, 0.5)
    eps = float(rng.uniform(0.2, 0.98) * hi)
    return lengths, eps


def uncut_log_value(lengths, eps: float, order: int) -> float:
    """log I_n by the built ``order``-point rule on each breakpoint segment, uncut: exact for order >= (n+1)/2."""
    log_integrand = integrals._LogIntegrand(lengths, eps)
    x, w = segmented_gauss_legendre(log_integrand.breakpoints, built_gauss_legendre(order))
    return log_sum_exp(log_integrand(x), w)


class TestPairFactorEval:
    def test_at_zero(self):
        assert pair_factor_eval(0.2, 0.0) == pytest.approx(1.25, rel=1e-15)
        assert pair_factor_eval(0.5, 0.0) == 2.0  # dyadic: exact

    def test_flat_region(self):
        assert pair_factor_eval(0.2, 0.3) == pytest.approx(0.9375, abs=1e-15)

    def test_linear_region(self):
        assert pair_factor_eval(0.2, 0.1) == pytest.approx(1.09375, abs=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            pair_factor_eval(0.5, 0.6)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            pair_factor_eval(1.0, 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            pair_factor_eval(0.2, -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            pair_factor_eval(0.2, math.nan)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            pair_factor_eval(math.nan, 0.1)

    @given(st.floats(min_value=0.01, max_value=0.45), st.data())
    @settings(max_examples=200)
    def test_nonincreasing_in_t(self, l, data):
        t1 = data.draw(st.floats(min_value=0.0, max_value=0.5))
        t2 = data.draw(st.floats(min_value=0.0, max_value=0.5))
        lo, hi = sorted((t1, t2))
        assert pair_factor_eval(l, lo) >= pair_factor_eval(l, hi)

    def test_positivity_floor_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lengths, eps = random_instance(rng)
            floor = (1.0 - lengths[0] - eps)
            for t in rng.uniform(0.0, eps, 20):
                for l in lengths:
                    assert pair_factor_eval(l, t) >= floor / (1.0 - l) ** 2 - 1e-15
                    assert pair_factor_eval(l, t) > 0.0


class TestPairFactorIntegral:
    def test_small_arc_branch(self):
        assert pair_factor_integral(0.2, 0.3) == pytest.approx(0.3125, abs=1e-15)

    def test_large_arc_branch(self):
        # integral of (0.6 - t)/0.36 over [0, 0.3] by hand
        assert pair_factor_integral(0.4, 0.3) == pytest.approx(0.375, abs=1e-15)

    def test_vanishing_arc_limit(self):
        assert pair_factor_integral(1e-9, 0.3) == pytest.approx(0.3, abs=1e-6)

    def test_branches_agree_at_seam(self):
        assert pair_factor_integral(0.3, 0.3) == pytest.approx(
            pair_factor_integral(0.3, 0.3 + 1e-12), abs=1e-10
        )

    def test_positivity_violation(self):
        with pytest.raises(ValueError, match="nonpositive"):
            pair_factor_integral(0.5, 0.6)
        with pytest.raises(ValueError, match="nonpositive"):
            pair_factor_integral(0.7, 0.31)

    def test_domain(self):
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="positive"):
                pair_factor_integral(0.2, eps)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            pair_factor_integral(math.nan, 0.3)

    def test_exact_against_fractions_both_branches(self):
        # Every float is a dyadic rational, so each branch has an exact
        # value.  This formula is also the certificate head's.  The worst
        # of this sample is 6.11 ulps (l < eps; 3.49 for l >= eps).
        rng = np.random.default_rng(3132)
        worst = 0.0
        for _ in range(10_000):
            eps = float(rng.uniform(0.01, 0.49))
            for l in (float(rng.uniform(0.0, eps)), float(rng.uniform(eps, 1.0 - eps))):
                fl, fe = Fraction(l), Fraction(eps)
                if l < eps:
                    exact = (fl * fl / 2 + fe - 2 * fe * fl) / (1 - fl) ** 2
                else:
                    exact = (fe * (1 - fl) - fe * fe / 2) / (1 - fl) ** 2
                err = abs(Fraction(pair_factor_integral(l, eps)) - exact)
                worst = max(worst, float(err) / math.ulp(float(exact)))
        assert worst <= 6.5, worst

    def test_against_midpoint_oracle_both_branches(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            l = float(rng.uniform(0.01, 0.45))
            for eps in (float(rng.uniform(l, min(0.9, 1 - l - 0.01))),  # l < eps
                        float(rng.uniform(0.01, l))):                   # l >= eps
                oracle = midpoint_riemann(
                    lambda t: (1 - l - np.minimum(l, t)) / (1 - l) ** 2, 0.0, eps
                )
                assert pair_factor_integral(l, eps) == pytest.approx(oracle, abs=1e-8)


def mp_gauss_legendre(mpmath, order: int, dps: int = 50):
    """Nonnegative Gauss-Legendre nodes (largest first) and weights, at ``dps`` digits.

    Plain Newton on the three-term recurrence from the classical
    cos(pi*(i - 1/4)/(n + 1/2)) guesses, iterated to 10**(5 - dps); the
    middle node of an odd order is exactly 0.
    """
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (5 - dps)
        nodes, weights = [], []
        for i in range(1, order // 2 + order % 2 + 1):
            if 2 * i == order + 1:
                x = mpmath.mpf(0)
            else:
                x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (order + mpmath.mpf(1) / 2))
            for _ in range(100):
                prev, cur = mpmath.mpf(1), x
                for k in range(1, order):
                    prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
                deriv = order * (prev - x * cur) / (1 - x * x)
                step = cur / deriv
                x -= step
                if abs(step) < tol:
                    break
            else:
                raise AssertionError(f"mpmath Newton did not converge at order {order}")
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * deriv * deriv))
        return nodes, weights


class TestGaussLegendre:
    # Every order the CLI goldens use (1, 2, 3, 5, 6, 12) lies in 1..64;
    # 251 is the order the degree-exact oracle builds at n = 500.
    @pytest.mark.parametrize("order", list(range(1, 65)) + [101, 201, 251])
    def test_correctly_rounded_against_mpmath(self, order):
        mpmath = pytest.importorskip("mpmath")
        x, w = built_gauss_legendre(order)
        ref_x, ref_w = mp_gauss_legendre(mpmath, order)
        # float(mpf) rounds to nearest, so equality means correctly rounded
        assert x[::-1][:len(ref_x)].tolist() == [float(v) for v in ref_x]
        assert w[::-1][:len(ref_w)].tolist() == [float(v) for v in ref_w]

    @pytest.mark.parametrize("order", [1, 2, 5, 13, 64, 101, 1001])
    def test_symmetry_and_weight_sum(self, order):
        x, w = built_gauss_legendre(order)
        assert x.shape == w.shape == (order,)
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert abs(math.fsum(w.tolist()) - 2.0) <= 4 * np.spacing(2.0)

    def test_tabled_rules_are_the_built_rules(self):
        # Needs no mpmath: the table holds the decimal builder's bits.
        assert sorted(_accum._GL_RULES) == list(range(1, MAX_NODES + 1))
        for order in range(1, MAX_NODES + 1):
            tabled = gauss_legendre(order)
            assert tabled is _accum._GL_RULES[order]
            for a, b in zip(tabled, built_gauss_legendre(order)):
                assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()

    def test_contract(self):
        for order in (1, 7, MAX_NODES):
            x, w = gauss_legendre(order)
            assert gauss_legendre(order)[0] is x and gauss_legendre(order)[1] is w
            assert not x.flags.writeable and not w.flags.writeable
        for order in (0, -1, MAX_NODES + 1):
            with pytest.raises(ValueError, match="order must be in 1..12"):
                gauss_legendre(order)


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        # scipy.special.logsumexp is the reference this helper replaced;
        # the documents depend on every bit, so equality is exact.
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(9)
        for trial in range(2000):
            size = int(rng.integers(1, 300))
            log_terms = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size)
            if trial % 3 == 0:  # ties at the maximum
                log_terms[rng.integers(0, size, 3)] = log_terms.max()
            weights = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.uniform(-5, 2)
            assert log_sum_exp(log_terms, weights) == float(special.logsumexp(log_terms, b=weights))


class TestCompensatedCumsum:
    @pytest.mark.parametrize("n", [10, 10**3, 10**5])
    def test_correctly_rounded_against_exact_prefix(self, n):
        values = generate(LengthSequence.harmonic(c=2, cap=0.99), n)
        prefix = compensated_cumsum(values)
        sampled = set(np.linspace(0, n - 1, 500).astype(int).tolist())
        exact = Fraction(0)
        for i, v in enumerate(values.tolist()):
            exact += Fraction(v)
            if i in sampled:
                assert prefix[i] == float(exact), i

    @staticmethod
    def two_sum_prefix(values):
        # Sum2 step by step: s = fl(s + x), with Knuth's TwoSum error added
        # to a running float64 correction.
        values = [float(v) for v in values]
        s, c, out = values[0], 0.0, [values[0]]
        for x in values[1:]:
            t = s + x
            bv = t - s
            c += (s - (t - bv)) + (x - bv)
            s = t
            out.append(s + c)
        return np.array(out)

    @pytest.mark.parametrize("sign", ["mixed", "negative"])
    def test_bit_identical_to_stepwise_two_sum(self, sign):
        # The flat-factor prefix of product_integral sums negative terms
        # only; mixed signs make the plain cumsum cancel.
        rng = np.random.default_rng(3)
        values = rng.standard_normal(5000) * 10.0 ** rng.uniform(-8, 8, 5000)
        if sign == "negative":
            values = -np.abs(values)
        np.testing.assert_array_equal(compensated_cumsum(values), self.two_sum_prefix(values))

    def test_blocks_and_in_place_keep_the_bits(self):
        # 40000 terms run as three blocks, which must carry both running sums.
        rng = np.random.default_rng(13)
        values = rng.standard_normal(40000) * 10.0 ** rng.uniform(-8, 8, 40000)
        expected = self.two_sum_prefix(values)
        np.testing.assert_array_equal(compensated_cumsum(values), expected)
        same = values.copy()
        assert compensated_cumsum(same, out=same) is same
        np.testing.assert_array_equal(same, expected)

    def test_each_line_matches_the_one_dimensional_call(self):
        # Rows of mixed scales and signs, summed as columns of the transpose
        # (a strided view and a contiguous copy), and the (n + 1, centres,
        # coefficients) layout of the power-sum prefixes.
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((7, 3000)) * 10.0 ** rng.uniform(-8, 8, (7, 3000))
        by_view = compensated_cumsum(rows.T)
        by_copy = compensated_cumsum(np.ascontiguousarray(rows.T))
        for i, row in enumerate(rows):
            one = compensated_cumsum(row)
            np.testing.assert_array_equal(by_view[:, i], one)
            np.testing.assert_array_equal(by_copy[:, i], one)
        cube = rng.standard_normal((1001, 5, 17))  # 85 lines in 8 blocks
        prefixes = compensated_cumsum(cube)
        for i in range(5):
            for p in range(17):
                np.testing.assert_array_equal(prefixes[:, i, p], compensated_cumsum(cube[:, i, p]))

    def test_cumsum_adds_in_sequence(self):
        # Sum2 takes the error of p[i-1] + x[i], so np.cumsum must add in
        # that order: summed in sequence each tiny term is lost against 1,
        # while a pairwise sum would keep them.
        values = [1.0] + [2.0**-53] * 1000
        assert np.cumsum(values)[-1] == 1.0
        assert compensated_cumsum(values)[-1] == 1.0 + 1000 * 2.0**-53


def fsum_outcome(values):
    """math.fsum of ``values``, or the type of what it raised; nan as a string, so == compares it."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(total) else total


# Finite floats of every binade, subnormals included, with 53-bit mantissas.
WIDE_FLOATS = st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1), st.integers(-1126, 970))


class TestExactParts:
    """fsum of exact_parts is fsum of the terms, compared with ==."""

    @staticmethod
    def check(values) -> list[float]:
        x = np.array(values, dtype=np.float64)
        (parts,) = exact_parts(x)
        assert fsum_outcome(parts) == fsum_outcome(x.tolist())
        return parts

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
    def test_any_finite_floats(self, values):
        self.check(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WIDE_FLOATS, max_size=60))
    def test_any_exponent_span(self, values):
        self.check(values)

    @pytest.mark.parametrize("values", [
        [1.0, 2.0**-53],  # a tie at the 54th bit, to even: 1
        [1.0 + 2.0**-52, 2.0**-53],  # to even: up
        [1.0, 2.0**-53, 2.0**-200],  # just above the tie
        [1.0, 2.0**-53, -2.0**-200],  # just below it
        [1.0] + [2.0**-63] * 1024,  # a tie made of many terms
        [1.0 + 2.0**-52] + [2.0**-63] * 1024,
        [-1.0] + [-2.0**-63] * 1023 + [-2.0**-64, -2.0**-64],
    ], ids=["even", "odd", "above", "below", "many-even", "many-odd", "many-negative"])
    def test_ties_at_the_54th_bit(self, values):
        self.check(values)

    @pytest.mark.parametrize("values", [
        [1e16, 1.0, -1e16],
        [1e300, 1.0, -1e300, 1e-300],
        [2.0**60, 3.0, -2.0**60, 2.0**-60, -(2.0**-60)],
        [0.1] * 10 + [-1.0],
        [5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308],
    ], ids=["1e16", "1e300", "2**60", "tenths", "subnormal"])
    def test_heavy_cancellation(self, values):
        self.check(values)

    @pytest.mark.parametrize("n", [5, 6, 13, 14, 29, 30, 61, 62, 125, 126, 1021, 1022])
    def test_as_many_terms_as_sigma_allows(self, n):
        # Same-sign terms just under a power of two, each an odd multiple of
        # its grid: their sum reaches up to (2**k - 2) * 2**e, where only a
        # sigma of 2**(e+k) keeps every partial sum exact.
        self.check(np.full(n, -(1.0 - 2.0**-51)))
        self.check(np.full(n, 1.0 - 2.0**-52) * np.where(np.arange(n) % 3, 1.0, 1.0 - 2.0**-51))

    @pytest.mark.parametrize("step", [25, 60, 200])
    def test_remainder_after_the_last_pass_joins_the_parts(self, step):
        # 2**0 ... 2**-1074: four passes cannot take so wide a span.
        values = [2.0**-e for e in range(0, 1075, step)] + [5e-324]
        parts = self.check(values)
        assert len(parts) > 4
        self.check([-v for v in values] + [1.0])

    @pytest.mark.parametrize("values", [
        [1.7976931348623157e308],
        [1.7976931348623157e308, 1.7976931348623157e308],
        [1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308],
        [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
        [2.0**1021, 2.0**1021],  # sigma would overflow: the terms go to fsum
        [2.0**1021 - 2.0**968, 2.0**1021 - 2.0**968],  # the largest sigma, 2**1023
        [-(2.0**1021 - 2.0**968), -(2.0**1021 - 2.0**968)],
        [2.0**1020, 2.0**1020, 2.0**1020, -1.0],
    ], ids=["max", "max-max", "max-max-minus", "max-minus-max", "2**1021", "below-2**1021",
            "below-minus-2**1021", "three-2**1020"])
    def test_near_the_largest_float(self, values):
        self.check(values)

    @pytest.mark.parametrize("values", [
        [1.0, math.inf], [-math.inf, 1e308, 1e308], [math.nan, 1.0], [math.inf, -math.inf],
        [1.0, math.inf, math.nan], [],
    ], ids=["inf", "minus-inf", "nan", "inf-minus-inf", "inf-nan", "empty"])
    def test_non_finite_and_empty(self, values):
        self.check(values)

    def test_empty_parts_sum_to_zero(self):
        assert exact_parts(np.empty(0)) == [[]]
        assert exact_parts(np.zeros(5)) == [[]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(WIDE_FLOATS | st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308]),
                             max_size=20), max_size=8))
    def test_each_segment(self, segments):
        values = np.array([v for segment in segments for v in segment], dtype=np.float64)
        parts = exact_parts(values, [len(segment) for segment in segments])
        assert len(parts) == len(segments)
        for segment, segment_parts in zip(segments, parts):
            assert fsum_outcome(segment_parts) == fsum_outcome(segment)

    def test_empty_segments(self):
        values = np.array([0.1, 0.2, 0.3, 1e16, 1.0, -1e16])
        parts = exact_parts(values, [0, 3, 0, 0, 3, 0])
        assert [fsum_outcome(p) for p in parts] == [0.0, math.fsum([0.1, 0.2, 0.3]), 0.0, 0.0, 1.0, 0.0]
        assert exact_parts(np.empty(0), [0, 0]) == [[], []]


class TestProductIntegral:
    def test_single_factor_reduces(self):
        result = product_integral([0.2], 0.3)
        assert result.value == pytest.approx(0.3125, abs=1e-13)
        assert result.segment_count == 2

    def test_two_equal_factors(self):
        # analytic piecewise value: int_0^0.2 (0.8-t)^2/0.4096 + 0.1 * 0.9375^2
        expected = (0.8**3 - 0.6**3) / 3 / 0.4096 + 0.1 * 0.9375**2
        result = product_integral([0.2, 0.2], 0.3)
        assert result.value == pytest.approx(expected, rel=1e-13)
        oracle = midpoint_riemann(
            lambda t: ((0.8 - np.minimum(0.2, t)) / 0.64) ** 2, 0.0, 0.3
        )
        assert result.value == pytest.approx(oracle, abs=1e-8)

    def test_empty_product(self):
        result = product_integral([], 0.3)
        assert result.value == 0.3
        assert result.log_value == math.log(0.3)

    def test_log_value_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lengths, eps = random_instance(rng)
            result = product_integral(lengths, eps)
            assert result.log_value == pytest.approx(math.log(result.value), abs=1e-12)

    def test_lengths_one_ulp_apart_keep_their_segment(self):
        # Two lengths one ulp apart bound a segment of its own, so every
        # segment is a single polynomial; nothing is merged.
        mpmath = pytest.importorskip("mpmath")
        hi = 0.2
        lo = float(np.nextafter(hi, 0.0))
        lengths, eps = [0.3, hi, lo, 0.1], 0.25
        result = product_integral(lengths, eps)
        assert result.segment_count == 4  # {0, 0.1, lo, hi, 0.25}
        assert abs(result.log_value - mp_log_product_integral(mpmath, lengths, eps)) <= 1e-13

    def test_segment_breakpoints(self):
        # distinct lengths below eps each open a segment; ties collapse
        result = product_integral([0.25, 0.2, 0.1, 0.1], 0.3)
        assert result.segment_count == 4  # {0, 0.1, 0.2, 0.25, 0.3}
        assert result.nodes_per_segment == 3  # ceil(5/2)

    def test_against_midpoint_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            lengths, eps = random_instance(rng)
            result = product_integral(lengths, eps)
            arr = np.asarray(lengths)

            def integrand(t):
                factors = (1 - arr - np.minimum(arr, t[:, None])) / (1 - arr) ** 2
                return factors.prod(axis=1)

            oracle = midpoint_riemann(integrand, 0.0, eps)
            assert result.value == pytest.approx(oracle, rel=1e-6)

    def test_node_doubling_is_noise(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lengths, eps = random_instance(rng)
            base = product_integral(lengths, eps)
            doubled = uncut_log_value(lengths, eps, 2 * base.nodes_per_segment)
            assert math.exp(doubled) == pytest.approx(base.value, rel=1e-12)

    def test_window_enforced(self):
        with pytest.raises(ValueError, match="1 - l1"):
            product_integral([0.4], 0.6)
        with pytest.raises(ValueError, match="nonincreasing"):
            product_integral([0.1, 0.2], 0.05)

    def test_deterministic(self):
        a = product_integral([0.3, 0.2, 0.1], 0.4)
        b = product_integral([0.3, 0.2, 0.1], 0.4)
        assert a == b

    def test_overflow_keeps_log_value(self):
        # l >= eps makes every factor (1 - l - t)/(1 - l)**2 on the whole
        # window, so I_n = ((1-l)**(n+1) - (1-l-eps)**(n+1)) / ((n+1)(1-l)**(2n)),
        # about exp(889): value overflows, log_value must not.
        mpmath = pytest.importorskip("mpmath")
        l, eps, n = 0.45, 0.05, 1500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = product_integral([l] * n, eps)
        assert result.value == math.inf
        with mpmath.workdps(40):
            a, b = 1 - mpmath.mpf(l), 1 - mpmath.mpf(l) - mpmath.mpf(eps)
            oracle = float(mpmath.log((a ** (n + 1) - b ** (n + 1)) / ((n + 1) * a ** (2 * n))))
        assert abs(result.log_value - oracle) <= 1e-11

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("eps", [1e-16, 1e-15, 2e-15])
    def test_window_below_merge_tolerance(self, eps, n):
        # A window far narrower than every length (down to 1e-16) is the
        # one segment [0, eps].  Every factor is linear there (l >= eps), so
        # I_n = (1-l)**(n+1) * (1 - (1 - eps/(1-l))**(n+1)) / ((n+1)(1-l)**(2n)).
        l = 0.1
        result = product_integral([l] * n, eps)
        a = 1.0 - l
        expected = -math.expm1((n + 1) * math.log1p(-eps / a)) * a ** (n + 1) / ((n + 1) * a ** (2 * n))
        assert result.segment_count == 1
        assert result.value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("l, eps", [(0.98, 0.019), (0.95, 0.045)])
    def test_roots_near_window_keep_roundoff(self, l, eps):
        # Roots 1 - l - eps = 0.001 / 0.005 past the window: the integrand
        # falls by exp(600) / exp(460) across it, so pieces sized by the
        # degree alone (d*h <= 1) would leave errors near 1e-5 / 1e-10.
        # Closed form as in test_overflow_keeps_log_value.
        mpmath = pytest.importorskip("mpmath")
        n = 200
        result = product_integral([l] * n, eps)
        with mpmath.workdps(40):
            a, b = 1 - mpmath.mpf(l), 1 - mpmath.mpf(l) - mpmath.mpf(eps)
            oracle = float(mpmath.log((a ** (n + 1) - b ** (n + 1)) / ((n + 1) * a ** (2 * n))))
        assert abs(result.log_value - oracle) <= 1e-12

    @pytest.mark.parametrize("seq, n", [
        (LengthSequence.harmonic(c=1, cap=0.49), 300),
        (LengthSequence.inverse_sqrt(c=1, cap=0.49), 200),
    ], ids=["harmonic-300", "inverse-sqrt-200"])
    def test_long_products_match_mpmath(self, seq, n):
        # Above degree 23 the capped rule is no longer exact on a segment;
        # its pieces must still reproduce the 40-digit integral.
        mpmath = pytest.importorskip("mpmath")
        lengths = generate(seq, n)
        oracle = mp_log_product_integral(mpmath, lengths, 0.25)
        assert abs(product_integral(lengths, 0.25).log_value - oracle) <= 1e-13

    @pytest.mark.parametrize("n", [50, 200, 500])
    @pytest.mark.parametrize("seq", [
        LengthSequence.constant(0.3),
        LengthSequence.harmonic(c=1, cap=0.49),
        LengthSequence.inverse_sqrt(c=1, cap=0.49),
        LengthSequence.power_decay(c=1, alpha=0.75, cap=0.49),
    ], ids=["constant", "harmonic", "inverse-sqrt", "power-decay"])
    def test_capped_rule_matches_degree_exact_rule(self, seq, n):
        # ceil((n+1)/2) nodes integrate every segment exactly in one piece.
        lengths = generate(seq, n)
        exact = uncut_log_value(lengths, 0.25, math.ceil((n + 1) / 2))
        assert abs(product_integral(lengths, 0.25).log_value - exact) <= 1e-12

    def test_flat_factor_above_half_stays_finite(self):
        # log1p(-(l/(1 - l))**2) is NaN for l >= 1/2; a length at or above
        # eps is never flat on the window, so that term must not be formed.
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = product_integral([0.6, 0.1], 0.3)
        assert math.isfinite(result.log_value)
        assert abs(result.log_value - mp_log_product_integral(mpmath, [0.6, 0.1], 0.3)) <= 1e-14

    def test_point_count_is_linear_in_n(self):
        # Structural guard against cubic work: O(n) quadrature points
        # (the degree-exact rule used 985 pieces of 501 nodes here).
        n = 1000
        result = product_integral(generate(LengthSequence.inverse_sqrt(c=1, cap=0.49), n), 0.25)
        assert result.nodes_per_segment == 12
        assert result.segment_count * result.nodes_per_segment <= 16 * n

    def test_no_rule_above_the_cap(self, rule_orders):
        product_integral(generate(LengthSequence.inverse_sqrt(c=1, cap=0.49), 2000), 0.25)
        assert rule_orders and max(rule_orders) <= MAX_NODES


def mp_bracket(mpmath, lengths, eps: float) -> tuple[float, float]:
    """eps * prod f(eps) and eps * prod f(0), in 40-digit mpmath rounded to floats.

    Every factor f_l(t) = (1 - l - min(l, t)) / (1 - l)**2 is nonincreasing,
    so the product integral over [0, eps] lies between the two.
    """
    with mpmath.workdps(40):
        ls, e = [mpmath.mpf(float(v)) for v in lengths], mpmath.mpf(eps)
        lo = e * mpmath.fprod((1 - v - min(v, e)) / (1 - v) ** 2 for v in ls)
        hi = e * mpmath.fprod(1 / (1 - v) for v in ls)
        return float(lo), float(hi)


def within_bracket(value: float, lo: float, hi: float, ulps: int = 4) -> bool:
    return math.isfinite(value) and lo - ulps * math.ulp(lo) <= value <= hi + ulps * math.ulp(hi)


class TestMonotoneBracket:
    # The README sequence, and those the benchmark integrates.
    CASES = [
        *((LengthSequence.inverse_sqrt(c=1, cap=0.49), n, 0.25) for n in (10, 100, 1000, 10**4)),
        *((LengthSequence.harmonic(c=1.0, cap=0.49), n, 0.25) for n in (300, 600)),
        *((seq, n, eps)
          for seq in (LengthSequence.constant(0.3), LengthSequence.harmonic(c=1.0, cap=0.49),
                      LengthSequence.inverse_sqrt(c=1.0, cap=0.49),
                      LengthSequence.power_decay(c=1.0, alpha=0.75, cap=0.49))
          for n in (5, 20, 50) for eps in (0.1, 0.2, 0.4)),
    ]

    @pytest.mark.parametrize("seq, n, eps", CASES)
    def test_product_integral_lies_in_its_bracket(self, seq, n, eps):
        mpmath = pytest.importorskip("mpmath")
        lengths = generate(seq, n)
        assert within_bracket(product_integral(lengths, eps).value, *mp_bracket(mpmath, lengths, eps))

    # log_sum_exp shifts by the largest log-term and ignores its weight, a
    # node weight of a segment about c wide: the sum comes out 17 ulps low
    # for c = 1e-17 and 1e-300, and inf for c = 1e-320.
    @pytest.mark.xfail(strict=True, reason="log_sum_exp ignores the weight of the term it shifts by")
    @pytest.mark.parametrize("c", [1e-17, 1e-300, 1e-320])
    def test_tiny_lengths_stay_in_the_bracket(self, c):
        mpmath = pytest.importorskip("mpmath")
        lengths, eps = [c, c / 2, c / 3], 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = product_integral(lengths, eps).value
        assert within_bracket(value, *mp_bracket(mpmath, lengths, eps))

    # The bracket as a property over any window.  Its example is the
    # c = 1e-320 case above, so it fails on every run until the fix.  A
    # tiny eps fails it too: value is exp(log_value), off by up to
    # |log_value| * 2**-53 relative, wider than the bracket once eps is
    # below about 1e-13 (product_integral([0.25], 1e-16) is 240 ulps low).
    @pytest.mark.xfail(strict=True, reason="log_sum_exp ignores the weight of the term it shifts by")
    @given(st.lists(st.floats(min_value=5e-324, max_value=1.0, exclude_max=True), min_size=1, max_size=30),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example([1e-320, 1e-320 / 2, 1e-320 / 3], 0.25)
    @settings(max_examples=200, deadline=None)
    def test_any_lengths_stay_in_the_bracket(self, lengths, fraction):
        # eps is the fraction of the window (0, 1 - l1) it lies at.
        mpmath = pytest.importorskip("mpmath")
        lengths = sorted(lengths, reverse=True)
        eps = fraction * (1.0 - lengths[0])
        assume(0.0 < eps < 1.0 - lengths[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = product_integral(lengths, eps).value
        lo, hi = mp_bracket(mpmath, lengths, eps)
        # Where the upper end overflows a float, so may I_n itself.
        assert within_bracket(value, lo, hi) or (hi == math.inf and value >= lo)

    # _LogIntegrand forms each factor's head as l - l*l, whose rounding,
    # about 1e-16 absolute, cancels against l(1 - l) as l -> 1: the value
    # is 5,965 ulps low at l = 0.99999 and 7.9e6 ulps low at l = 1 - 1e-8.
    @pytest.mark.parametrize("l, eps", [
        pytest.param(0.99999, 1e-6, marks=pytest.mark.xfail(strict=True, reason="l - l*l cancels as l -> 1")),
        pytest.param(1.0 - 1e-8, 1e-9, marks=pytest.mark.xfail(strict=True, reason="l - l*l cancels as l -> 1")),
        (0.75, 0.125),
    ], ids=["l=0.99999", "l=1-1e-8", "l=0.75"])
    def test_one_factor_matches_its_exact_integral(self, l, eps):
        value = product_integral([l], eps).value
        assert abs(ulps_off(value, exact_one_factor_integral(l, eps))) <= 4

    # At eps = 5e-324 every node weight underflows to 0, and log_sum_exp
    # divides 0 by 0: the result is nan, which `integrate` writes as null.
    @pytest.mark.xfail(strict=True, reason="the node weights underflow at eps = 5e-324")
    def test_smallest_subnormal_eps_has_a_finite_log_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = product_integral([0.25, 0.25, 0.25], 5e-324)
        assert math.isfinite(result.log_value)


def exact_one_factor_integral(l: float, eps: float) -> Fraction:
    """The integral of f_l(t) = (1 - l - min(l, t)) / (1 - l)**2 over [0, eps], in exact rationals."""
    l, eps = Fraction(l), Fraction(eps)
    a = min(l, eps)
    return (a * (1 - l) - a * a / 2 + (eps - a) * (1 - 2 * l)) / (1 - l) ** 2


def ulps_off(value: float, exact: Fraction) -> float:
    """value - exact, in units in the last place of exact rounded to a float."""
    return float((Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def mp_log_integrand(mpmath, lengths, points) -> list:
    """log prod_k f_{l_k}(x) at each of ``points``, the products taken in 40-digit mpmath."""
    with mpmath.workdps(40):
        ls = [mpmath.mpf(v) for v in lengths.tolist()]
        log_scale = mpmath.log(mpmath.fprod((1 - v) ** 2 for v in ls))
        out = []
        for x in points:
            t = mpmath.mpf(float(x))
            out.append(float(mpmath.log(mpmath.fprod(1 - v - min(v, t) for v in ls)) - log_scale))
        return out


def rule_points(lengths, eps):
    """A _LogIntegrand and the breakpoints and nodes of product_integral's rule, with the weights."""
    log_integrand = integrals._LogIntegrand(lengths, eps)
    x, w, _, _ = product_rule(log_integrand.breakpoints, log_integrand.degree, log_integrand.direct)
    return log_integrand, log_integrand.breakpoints, x, w


class TestExpansion:
    """The centred power-sum expansion of the log-integrand against the direct sum and mpmath."""

    @pytest.mark.parametrize("n", [50, 300, 1000])
    @pytest.mark.parametrize("seq", [
        LengthSequence.constant(0.3),
        LengthSequence.harmonic(c=1, cap=0.49),
        LengthSequence.inverse_sqrt(c=1, cap=0.49),
        LengthSequence.power_decay(c=1, alpha=0.75, cap=0.49),
    ], ids=["constant", "harmonic", "inverse-sqrt", "power-decay"])
    def test_agrees_with_direct_sum(self, seq, n):
        self.assert_ways_agree(generate(seq, n), 0.25)

    @pytest.mark.parametrize("l, eps", [(0.98, 0.019), (0.95, 0.045)])
    def test_agrees_with_direct_sum_near_the_roots(self, l, eps):
        # 95 and 45 centres: the roots 1 - l are 0.001 and 0.005 past the window.
        self.assert_ways_agree(np.full(200, l), eps)

    @staticmethod
    def assert_ways_agree(lengths, eps):
        log_integrand, breakpoints, x, w = rule_points(lengths, eps)
        for points in (breakpoints, x):
            direct = log_integrand.direct(points)
            expanded = log_integrand.expanded(points)
            assert np.all(np.abs(expanded - direct) <= 1e-13 * np.maximum(1.0, np.abs(direct)))
        assert abs(log_sum_exp(log_integrand.expanded(x), w) - log_sum_exp(log_integrand.direct(x), w)) <= 1e-13

    @pytest.mark.parametrize("n", [10**4, 2 * 10**4], ids=["readme-10000", "20000"])
    def test_log_integrand_at_sampled_nodes_matches_mpmath(self, n, monkeypatch, capsys):
        # n = 10**4 is the README divergence checkpoint, run through the CLI;
        # the values checked are those the quadrature sums.
        mpmath = pytest.importorskip("mpmath")
        seen = {}
        rule, combine = integrals.product_rule, integrals.log_sum_exp

        def spy_rule(*args):
            out = rule(*args)
            seen["x"] = out[0]
            return out

        def spy_combine(log_terms, weights):
            seen["log_terms"] = log_terms
            seen["log_value"] = combine(log_terms, weights)
            return seen["log_value"]

        monkeypatch.setattr(integrals, "product_rule", spy_rule)
        monkeypatch.setattr(integrals, "log_sum_exp", spy_combine)
        lengths = generate(LengthSequence.inverse_sqrt(c=1, cap=0.49), n)
        if n == 10**4:
            assert main(["divergence", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25",
                         "--checkpoints", "10,100,1000,10000", "--format", "csv"]) == 0
            n_cell, log_pi, bound_log, _ = capsys.readouterr().out.splitlines()[-1].split(",")
            assert n_cell == "10000"
            assert float(log_pi) == seen["log_value"] > float(bound_log)
        else:
            product_integral(lengths, 0.25)
        sample = np.linspace(0, seen["x"].size - 1, 12).astype(int)
        oracle = mp_log_integrand(mpmath, lengths, seen["x"][sample])
        np.testing.assert_allclose(seen["log_terms"][sample], oracle, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seq, n", [
        (LengthSequence.inverse_sqrt(c=1, cap=0.49), 2 * 10**4),
        (LengthSequence.harmonic(c=1, cap=0.49), 300),
    ], ids=["inverse-sqrt-20000", "harmonic-300"])
    def test_long_sequences_take_the_expansion(self, seq, n, monkeypatch):
        # Breakpoints included: the rule's nodes reuse the prefixes built for them.
        def no_direct(self, x):
            raise AssertionError("a long sequence must not take the direct sum")

        monkeypatch.setattr(integrals._LogIntegrand, "direct", no_direct)
        assert math.isfinite(product_integral(generate(seq, n), 0.25).log_value)

    @pytest.mark.parametrize("seq", [
        LengthSequence.constant(0.3),
        LengthSequence.harmonic(c=1, cap=0.49),
        LengthSequence.inverse_sqrt(c=1, cap=0.49),
        LengthSequence.power_decay(c=1, alpha=0.75, cap=0.49),
    ], ids=["constant", "harmonic", "inverse-sqrt", "power-decay"])
    def test_short_sequences_keep_the_direct_sum(self, seq, monkeypatch):
        # A few dozen lengths cost less term by term than the expansion's
        # set-up, and keep the bits they had before it.
        def no_expansion(self, x):
            raise AssertionError("n <= 50 must take the direct sum")

        monkeypatch.setattr(integrals._LogIntegrand, "expanded", no_expansion)
        for n in (5, 20, 50):
            for eps in (0.05, 0.15, 0.3, 0.45):
                product_integral(generate(seq, n), eps)


class TestProductRule:
    def test_low_degree_is_one_piece_without_the_log_integrand(self):
        def never(x):
            raise AssertionError("no segment needs cutting")

        x, w, q, seg = product_rule(np.array([0.0, 0.1, 0.3]), np.array([23, 5]), never)
        assert (q, seg.tolist()) == (12, [0, 1])
        assert x.size == w.size == 24
        x, w, q, seg = product_rule(np.array([0.0, 0.1, 0.3]), 3, never)
        assert (q, seg.tolist()) == (2, [0, 1])
        # Degree-0 segments, as between two families of a stacked batch: one piece each.
        x, w, q, seg = product_rule(np.array([0.0, 0.1, 0.2, 0.3]), np.array([0, 23, 0]), never)
        assert (q, seg.tolist()) == (12, [0, 1, 2])

    @pytest.mark.parametrize("rising", [False, True], ids=["decreasing", "increasing"])
    def test_pieces_follow_the_log_drop_either_way(self, rising):
        # (1.01 - t)**200 and its mirror (0.01 + t)**200 on [0, 1]: the same
        # drop of 200*log(101), so the same pieces, and the integral to roundoff.
        d = 200

        def log_integrand(t):
            return d * np.log(0.01 + t if rising else 1.01 - t)

        x, w, q, seg = product_rule(np.array([0.0, 1.0]), d, log_integrand)
        assert q == MAX_NODES
        assert seg.size == math.ceil(d * math.log(101.0))
        log_value = log_sum_exp(log_integrand(x), w)
        exact = (d + 1) * math.log(1.01) - math.log(d + 1) + math.log1p(-(1 / 101) ** (d + 1))
        assert abs(log_value - exact) <= 1e-13

    def test_segment_map(self):
        # Segments of degree 200, 0, 5, 200 and 0 under log drops of 2.5, 1e6,
        # 7.25, 3.25 and NaN: only the degree-200 segments are cut, each into
        # ceil(drop) pieces; the drops of the others are never read, so the
        # degree-0 segments stay one piece each.
        breakpoints = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        logs = np.array([0.0, -2.5, 1e6, 1e6 - 7.25, 1e6 - 10.5, np.nan])
        calls = []

        def log_integrand(t):
            calls.append(t.copy())
            return logs

        x, w, q, seg = product_rule(breakpoints, np.array([200, 0, 5, 200, 0]), log_integrand)
        assert len(calls) == 1 and (calls[0] == breakpoints).all()
        assert q == MAX_NODES and x.size == w.size == seg.size * q
        assert (np.diff(seg) >= 0).all()
        assert seg.tolist() == [0, 0, 0, 1, 2, 3, 3, 3, 3, 4]
        # Every line's nodes lie in its own segment.
        lines = x.reshape(-1, q)
        assert (lines >= breakpoints[seg, None]).all() and (lines <= breakpoints[seg + 1, None]).all()
        assert math.fsum(w) == pytest.approx(2.5, rel=1e-15)

class TestGrowth:
    def test_at_zero_is_exactly_one(self):
        for eps in (0.01, 0.2, 0.25, 0.49, 0.7):
            assert growth(eps, 0.0) == 1.0

    def test_known_value(self):
        assert growth(0.25, 0.1) == pytest.approx(1 + 0.01 / 0.81, abs=1e-15)

    def test_identity_vanishes_at_half(self):
        # dyadic x makes every operation exact
        for x in (0.0, 0.125, 0.25, 0.5, 0.75):
            assert growth(0.5, x) == 1.0

    @given(st.floats(min_value=0.01, max_value=0.49), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=500)
    def test_exact_identity_on_bound_domain(self, eps, frac):
        # x < eps is the regime the lower-bound chain feeds in; there the
        # identity term is bounded by eps/2, so 1e-13 absolute is meaningful
        x = frac * eps * 0.999
        assert growth(eps, x) - 1.0 == pytest.approx(paper_growth(eps, x) - 1.0, abs=1e-13)

    @given(
        st.floats(min_value=0.01, max_value=0.49),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=500)
    def test_identity_wide_domain_relative(self, eps, x):
        # far from the bound regime the term can reach thousands, where
        # only a relative comparison is meaningful in float64.  eps stays
        # on the bound path, eps < 1/2: above it log1p's argument can fall
        # below -1 (nan at eps = x = 0.75), and no certificate forms g there.
        lhs = growth(eps, x) - 1.0
        assert lhs == pytest.approx(paper_growth(eps, x) - 1.0, rel=1e-12, abs=1e-13)

    def test_derivative_probe(self):
        probe = growth_derivatives(0.25)
        assert probe.g0 == 1.0
        assert abs(probe.d1) < 1e-6
        assert probe.d2 == pytest.approx(2.0, abs=1e-4)
        assert growth_derivatives(0.4).d2 == pytest.approx(0.5, abs=1e-4)
        assert growth_derivatives(0.1).d2 == pytest.approx(8.0, abs=1e-3)

    def test_log_g_against_mpmath(self):
        # The certificate's tail terms against the 40-digit log of the
        # paper's quotient: x below eps, where the bound path feeds them,
        # and x in [0, 0.95].  The worst of this sample is 4.08 ulps; the
        # bound leaves half an ulp for other CPUs' log1p kernels.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3131)
        eps = rng.uniform(0.01, 0.49, 10_000)
        x = np.concatenate((rng.uniform(0.0, 1.0, eps.size) * eps, rng.uniform(0.0, 0.95, eps.size)))
        eps = np.concatenate((eps, eps))
        worst = 0.0
        with mpmath.workdps(40):
            for e, v, got in zip(eps.tolist(), x.tolist(), integrals._log_g(x, eps).tolist()):
                me, mx = mpmath.mpf(e), mpmath.mpf(v)
                ref = mpmath.log((mx * mx / 2 + me - 2 * me * mx) / (me * (1 - mx) ** 2))
                worst = max(worst, float(abs(got - ref)) / math.ulp(float(ref)))
        assert worst <= 4.5, worst


class TestLowerBound:
    def test_two_equal_factors(self):
        assert chebyshev_lower_bound([0.2, 0.2], 0.3) == pytest.approx(0.3125**2 / 0.3, rel=1e-14)

    def test_single_factor_is_equality(self):
        assert chebyshev_lower_bound([0.2], 0.3) == pytest.approx(
            product_integral([0.2], 0.3).value, rel=1e-13
        )

    def test_empty(self):
        assert chebyshev_lower_bound([], 0.3) == 0.3

    def test_overflow_is_inf(self):
        # The certificate's bound_log is finite (about 824); its exp is not.
        l, eps, n = 0.45, 0.05, 1500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chebyshev_lower_bound(np.full(n, l), eps) == math.inf
        bound_log = shepp_lower_bound(np.full(n, l), eps).bound_log
        assert bound_log == pytest.approx(math.log(eps) + n * math.log(pair_factor_integral(l, eps) / eps))
        assert bound_log > math.log(np.finfo(float).max)

    def test_no_cancellation_in_the_window_power(self):
        # eps**(1-n) * (eps * g_eps(l))**n = eps * g_eps(l)**n: summing
        # (1-n)*log(eps) with n*log(integral) would cancel 99.99 % of both.
        mpmath = pytest.importorskip("mpmath")
        l, eps, n = 0.01, 0.9, 3000
        with mpmath.workdps(50):
            ml, me = mpmath.mpf(l), mpmath.mpf(eps)
            oracle = me ** (1 - n) * ((ml * ml / 2 + me - 2 * me * ml) / (1 - ml) ** 2) ** n
        assert abs(chebyshev_lower_bound(np.full(n, l), eps) - float(oracle)) <= 1e-15 * float(oracle)

    def test_certificate_matches_direct_bound(self):
        cert = shepp_lower_bound([0.2, 0.2], 0.3)
        assert cert.bound_log == pytest.approx(
            math.log(chebyshev_lower_bound([0.2, 0.2], 0.3)), abs=1e-12
        )

    def test_all_below_eps_head_is_plain_eps(self):
        cert = shepp_lower_bound([0.2, 0.1], 0.3)
        assert cert.m == 0
        assert cert.log_C == math.log(0.3)

    def test_head_term_is_log_of_pair_factor_integral(self):
        # One head length: log_C is its term alone, and must have the bits
        # of pair_factor_integral, (1 - l)**2 included.  Among 5000 lengths
        # some squares differ from (1 - l)*(1 - l).
        eps = 0.05
        for l in np.random.default_rng(3).uniform(eps, 0.49, 5000).tolist():
            assert shepp_lower_bound([l], eps).log_C == math.log(pair_factor_integral(l, eps)), l

    def test_split_head_and_tail(self):
        cert = shepp_lower_bound([0.4, 0.1], 0.3)
        assert cert.m == 1
        assert cert.log_C == pytest.approx(math.log(0.375), abs=1e-14)
        assert cert.g_log_sum == pytest.approx(math.log(paper_growth(0.3, 0.1)), abs=1e-13)

    def test_bound_path_requires_small_eps(self):
        with pytest.raises(ValueError, match="1/2"):
            shepp_lower_bound([0.2], 0.5)

    def test_chain_consistency_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            lengths, eps = random_instance(rng, eps_below_half=True)
            cert = shepp_lower_bound(lengths, eps)
            direct = chebyshev_lower_bound(lengths, eps)
            assert math.exp(cert.bound_log) == pytest.approx(direct, rel=1e-10)

    def test_growth_terms_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            lengths, eps = random_instance(rng, eps_below_half=True)
            base = shepp_lower_bound(lengths, eps).g_log_sum
            extended = shepp_lower_bound(
                np.concatenate([lengths, [lengths[-1] * 0.5]]), eps
            ).g_log_sum
            assert base >= 0.0
            assert extended >= base

    def test_domination_by_quadrature(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            lengths, eps = random_instance(rng)
            value = product_integral(lengths, eps).value
            bound = chebyshev_lower_bound(lengths, eps)
            assert value >= bound - 1e-10 * value


class TestDivergenceTable:
    SEQ = LengthSequence.inverse_sqrt(c=1, cap=0.49)

    def test_bound_strictly_increases(self):
        rows = divergence_table(self.SEQ, 0.25, [10, 100, 1000], quadrature_cap=150)
        bounds = [row.bound_log for row in rows]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_quadrature_cap_marks_cells_absent(self):
        rows = divergence_table(self.SEQ, 0.25, [10, 100, 1000], quadrature_cap=150)
        assert rows[0].log_product_integral is not None
        assert rows[1].log_product_integral is not None
        assert rows[2].log_product_integral is None

    def test_quadrature_dominates_bound_per_row(self):
        rows = divergence_table(self.SEQ, 0.25, [5, 25, 80])
        for row in rows:
            assert row.log_product_integral >= row.bound_log - 1e-8

    def test_constant_sequence_doubles_growth_sum(self):
        rows = divergence_table(LengthSequence.constant(0.1), 0.25, [1, 2])
        assert rows[1].g_log_sum == pytest.approx(2 * rows[0].g_log_sum, rel=1e-12)

    def test_empty_prefix_row(self):
        rows = divergence_table(LengthSequence.constant(0.1), 0.25, [0])
        assert rows[0].log_product_integral == pytest.approx(math.log(0.25), abs=1e-14)
        assert rows[0].bound_log == pytest.approx(math.log(0.25), abs=1e-14)

    def test_blocked_certificate_matches_the_whole_array(self, monkeypatch):
        # With blocks of 7 lengths, checkpoints fall on, before and after block
        # edges; every row, and shepp_lower_bound itself, must keep the bits
        # of the one-block certificate (fsum over the whole tail at once).
        checkpoints = [0, 1, 6, 7, 8, 64, 1000]
        cases = ((self.SEQ, 0.25), (LengthSequence.harmonic(c=3.0, cap=0.49), 0.01),
                 (LengthSequence.explicit(np.linspace(0.45, 0.001, 1000)), 0.2))
        whole = {(i, n): shepp_lower_bound(generate(seq, 1000)[:n], eps)
                 for i, (seq, eps) in enumerate(cases) for n in checkpoints}
        monkeypatch.setattr(integrals, "_CHUNK_ELEMENTS", 7)
        for i, (seq, eps) in enumerate(cases):
            rows = divergence_table(seq, eps, checkpoints, quadrature_cap=0)
            for row in rows:
                assert shepp_lower_bound(generate(seq, 1000)[:row.n], eps) == whole[i, row.n]
                assert (row.bound_log, row.g_log_sum) == (whole[i, row.n].bound_log, whole[i, row.n].g_log_sum)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            divergence_table(self.SEQ, 0.25, [10, 10])
        with pytest.raises(ValueError, match="nonnegative"):
            divergence_table(self.SEQ, 0.25, [-1, 5])
        with pytest.raises(ValueError, match="nonempty"):
            divergence_table(self.SEQ, 0.25, [])


class TestCriterionSeries:
    def test_three_terms_constant_half(self):
        series = criterion_partial_sums(LengthSequence.constant(0.5), 3)
        expected = math.exp(0.5) + math.exp(1.0) / 4 + math.exp(1.5) / 9
        assert series.partial_sums[-1] == pytest.approx(expected, rel=1e-12)

    def test_first_term(self):
        series = criterion_partial_sums(LengthSequence.explicit([0.37]), 1)
        assert series.partial_sums[0] == pytest.approx(math.exp(0.37), rel=1e-15)
        assert series.partial_log_terms[0] == pytest.approx(0.37, abs=1e-15)

    def test_partial_sums_strictly_increasing(self):
        series = criterion_partial_sums(LengthSequence.harmonic(c=1, cap=0.9), 500)
        assert np.all(np.diff(series.log_partial_sums) > 0.0)
        assert np.all(np.diff(series.partial_sums) > 0.0)

    def test_converging_series_terms_decay(self):
        # capped 0.5/k: log term ~ -1.5 log n, terms decay, increments shrink
        series = criterion_partial_sums(LengthSequence.harmonic(c=0.5, cap=0.99), 20000)
        terms = series.partial_log_terms
        assert np.all(np.diff(terms[1:]) < 0.0)
        increments = np.diff(series.partial_sums[-100:])
        assert np.all(increments < 1e-4)
        ratio = terms[-1] / math.log(20000)
        assert ratio == pytest.approx(-1.5, abs=0.05)

    def test_overflow_goes_to_log_scale(self):
        series = criterion_partial_sums(LengthSequence.constant(0.9), 2000)
        assert np.isinf(series.partial_sums[-1])
        assert np.isfinite(series.log_partial_sums).all()
        assert np.all(np.diff(series.log_partial_sums) > 0.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="N must be"):
            criterion_partial_sums(LengthSequence.constant(0.5), 0)

    def test_rejects_bad_checkpoints(self):
        for checkpoints in ([0, 3], [3, 2], [2, 2], [11]):
            with pytest.raises(ValueError, match="checkpoints"):
                criterion_partial_sums(LengthSequence.constant(0.5), 10, checkpoints)

    @staticmethod
    def one_pass(seq, N):
        """The three columns as one pass over all N terms: one Sum2 and one logaddexp.accumulate."""
        log_terms = compensated_cumsum(generate(seq, N)) - 2.0 * np.log(np.arange(1, N + 1, dtype=np.float64))
        log_sums = np.logaddexp.accumulate(log_terms)
        with np.errstate(over="ignore"):
            return log_terms, log_sums, np.exp(log_sums)

    @pytest.mark.parametrize("seq", [
        LengthSequence.harmonic(c=2.0), LengthSequence.constant(0.9),
        LengthSequence.power_decay(c=1.0, alpha=0.75, cap=0.49),
        LengthSequence.explicit(np.linspace(0.9, 0.001, 200)),
    ], ids=["harmonic", "overflowing", "power-decay", "explicit"])
    def test_blocks_keep_the_bits_of_one_pass(self, monkeypatch, seq):
        # With blocks of 7 terms, rows fall on, before and after block edges.
        expected = self.one_pass(seq, 200)
        checkpoints = [1, 6, 7, 8, 13, 14, 15, 99, 200]
        monkeypatch.setattr(integrals, "_CHUNK_ELEMENTS", 7)
        whole = criterion_partial_sums(seq, 200)
        rows = criterion_partial_sums(seq, 200, checkpoints)
        picks = np.array(checkpoints) - 1
        for name, want in zip(("partial_log_terms", "log_partial_sums", "partial_sums"), expected):
            assert getattr(whole, name).view(np.uint64).tolist() == want.view(np.uint64).tolist()
            assert getattr(rows, name).view(np.uint64).tolist() == want[picks].view(np.uint64).tolist()

    def test_empty_checkpoints_keep_no_row(self):
        series = criterion_partial_sums(LengthSequence.constant(0.5), 10, [])
        assert series.partial_log_terms.size == series.log_partial_sums.size == series.partial_sums.size == 0
        with pytest.raises(ValueError, match="explicit list"):
            criterion_partial_sums(LengthSequence.explicit([0.5, 0.25]), 3, [])
