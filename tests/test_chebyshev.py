import bisect
import math

import numpy as np
import pytest

from arccover import _accum, chebyshev
from arccover._accum import segmented_gauss_legendre
from arccover.chebyshev import (
    VALUE_FLOOR,
    MonotonePiecewiseLinear,
    check_inequality,
    integral,
    product_integral_pl,
    random_monotone_family,
    two_function_correlation,
)
from arccover.integrals import chebyshev_lower_bound, pair_factor_integral, product_integral
from arccover.sequences import LengthSequence, generate

from conftest import shepp_factor_polyline


def polyline(points, values, direction):
    return MonotonePiecewiseLinear(np.asarray(points, float), np.asarray(values, float), direction)


DOWN_RAMP = polyline([0.0, 1.0], [1.0, 1e-9], "decreasing")  # ~ 1 - t


class TestMonotonePiecewiseLinear:
    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            polyline([0.1, 1.0], [1.0, 2.0], "increasing")
        with pytest.raises(ValueError, match="ascending"):
            polyline([0.0, 0.5, 0.5], [1.0, 2.0, 3.0], "increasing")
        with pytest.raises(ValueError, match="positive"):
            polyline([0.0, 1.0], [1.0, 0.0], "decreasing")
        with pytest.raises(ValueError, match="nondecreasing"):
            polyline([0.0, 1.0], [2.0, 1.0], "increasing")
        with pytest.raises(ValueError, match="nonincreasing"):
            polyline([0.0, 1.0], [1.0, 2.0], "decreasing")
        with pytest.raises(ValueError, match="direction"):
            polyline([0.0, 1.0], [1.0, 2.0], "sideways")

    @pytest.mark.parametrize("points, values", [
        ([0.0, np.nan, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, 0.5, np.inf], [1.0, 2.0, 3.0]),
        ([0.0, 0.5, 1.0], [1.0, np.nan, 3.0]),
        ([0.0, 0.5, 1.0], [1.0, 2.0, np.inf]),
    ], ids=["nan-breakpoint", "inf-breakpoint", "nan-value", "inf-value"])
    def test_non_finite_rejected(self, points, values):
        with pytest.raises(ValueError, match="finite"):
            polyline(points, values, "increasing")
        b, v = np.array([points]), np.array([values])
        with pytest.raises(ValueError, match="finite"):
            chebyshev._check_rows(b, v, "increasing")

    def test_constants_allowed_both_ways(self):
        polyline([0.0, 1.0], [1.0, 1.0], "increasing")
        polyline([0.0, 1.0], [1.0, 1.0], "decreasing")

    def test_eval_interpolates(self):
        f = polyline([0.0, 0.5, 1.0], [1.0, 2.0, 4.0], "increasing")
        assert f.eval(0.25) == 1.5
        assert f.eval(0.75) == 3.0

    def test_inputs_are_copied(self):
        # The function keeps read-only copies: the caller's arrays stay
        # writable, and writing through them moves nothing once validated.
        b, v = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 4.0])
        f = MonotonePiecewiseLinear(b, v, "increasing")
        assert b.flags.writeable and v.flags.writeable
        assert not (f.breakpoints.flags.writeable or f.values.flags.writeable)
        b[1], v[1] = 0.9, 3.0
        assert f.breakpoints.tolist() == [0.0, 0.5, 1.0] and f.values.tolist() == [1.0, 2.0, 4.0]
        # A view of a writable base array: writing through the base moves nothing either.
        base = np.array([0.0, 0.5, 1.0, 2.0])
        f = MonotonePiecewiseLinear(base[:3], v[:3], "increasing")
        base[1] = 0.9
        assert f.breakpoints.tolist() == [0.0, 0.5, 1.0]


class TestIntegral:
    def test_unit_constant(self):
        assert integral(polyline([0.0, 0.5], [1.0, 1.0], "increasing")) == 0.5

    def test_down_ramp(self):
        assert integral(DOWN_RAMP) == pytest.approx(0.5, abs=1e-8)

    def test_up_ramp(self):
        assert integral(polyline([0.0, 2.0], [1.0, 3.0], "increasing")) == 4.0


class TestProductIntegral:
    def test_squared_down_ramp(self):
        assert product_integral_pl([DOWN_RAMP, DOWN_RAMP]) == pytest.approx(1 / 3, abs=1e-8)

    def test_single_function_matches_trapezoid(self):
        f = polyline([0.0, 0.3, 0.9], [5.0, 2.0, 1.0], "decreasing")
        assert product_integral_pl([f]) == pytest.approx(integral(f), rel=1e-15)

    def test_constants(self):
        a = polyline([0.0, 0.5], [0.25, 0.25], "increasing")
        b = polyline([0.0, 0.5], [0.5, 0.5], "increasing")
        assert product_integral_pl([a, b]) == 0.25 * 0.5 * 0.5

    def test_mixed_directions_rejected(self):
        up = polyline([0.0, 1.0], [1.0, 2.0], "increasing")
        with pytest.raises(ValueError, match="mixed directions"):
            product_integral_pl([DOWN_RAMP, up])

    def test_mismatched_domains_rejected(self):
        other = polyline([0.0, 0.5], [1.0, 0.5], "decreasing")
        with pytest.raises(ValueError, match="share the domain"):
            product_integral_pl([DOWN_RAMP, other])


class TestCheckInequality:
    def test_single_function_is_equality(self):
        # dyadic data keeps both sides bit-identical
        f = polyline([0.0, 1.0], [1.0, 0.5], "decreasing")
        result = check_inequality([f])
        assert result.holds
        assert result.margin == 0.0

    def test_two_down_ramps(self):
        result = check_inequality([DOWN_RAMP, DOWN_RAMP])
        assert result.lhs == pytest.approx(1 / 3, abs=1e-8)
        assert result.rhs == pytest.approx(1 / 4, abs=1e-8)
        assert result.holds

    def test_constants_reach_equality(self):
        a = polyline([0.0, 0.5], [0.25, 0.25], "increasing")
        b = polyline([0.0, 0.5], [0.5, 0.5], "increasing")
        result = check_inequality([a, b])
        assert result.margin == 0.0
        assert result.holds

    def test_random_families_hold(self):
        rng = np.random.default_rng(900)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            segments = int(rng.integers(1, 7))
            direction = "increasing" if rng.integers(2) else "decreasing"
            family = random_monotone_family(int(rng.integers(1 << 32)), n, direction, segments)
            assert check_inequality(family).holds


class TestTwoFunctionCorrelation:
    def test_constant_pair_vanishes(self):
        a = polyline([0.0, 0.5], [0.25, 0.25], "increasing")
        assert two_function_correlation(a, a) == 0.0

    def test_down_ramp_with_itself(self):
        assert two_function_correlation(DOWN_RAMP, DOWN_RAMP) == pytest.approx(1 / 6, abs=1e-8)

    def test_increasing_with_itself_positive(self):
        f = polyline([0.0, 0.4, 1.0], [1.0, 3.0, 7.0], "increasing")
        assert two_function_correlation(f, f) > 0.0

    def test_same_direction_nonnegative(self):
        rng = np.random.default_rng(901)
        for _ in range(10_000):
            direction = "increasing" if rng.integers(2) else "decreasing"
            f, g = random_monotone_family(int(rng.integers(1 << 32)), 2, direction, int(rng.integers(1, 7)))
            assert two_function_correlation(f, g) >= -1e-12

    def test_opposite_directions_can_go_negative(self):
        up = polyline([0.0, 1.0], [1e-9, 1.0], "increasing")  # ~ t
        assert two_function_correlation(up, DOWN_RAMP) == pytest.approx(-1 / 6, abs=1e-8)

    def test_witness_search_finds_counterexample(self):
        # the monotonicity hypothesis is necessary: some opposite pair violates it
        rng = np.random.default_rng(902)
        witnessed = False
        for _ in range(200):
            (f,) = random_monotone_family(int(rng.integers(1 << 32)), 1, "increasing", 3)
            g_candidates = random_monotone_family(int(rng.integers(1 << 32)), 1, "decreasing", 3)
            g = g_candidates[0]
            if g.domain_end != f.domain_end:
                g = polyline(
                    f.breakpoints,
                    np.interp(f.breakpoints, g.breakpoints * (f.domain_end / g.domain_end), g.values),
                    "decreasing",
                )
            if two_function_correlation(f, g) < -1e-9:
                witnessed = True
                break
        assert witnessed


class TestRandomFamily:
    def test_deterministic_in_seed(self):
        a = random_monotone_family(7, 5, "decreasing", 4)
        b = random_monotone_family(7, 5, "decreasing", 4)
        assert len(a) == len(b) == 5
        for f, g in zip(a, b):
            np.testing.assert_array_equal(f.breakpoints, g.breakpoints)
            np.testing.assert_array_equal(f.values, g.values)

    def test_seeds_differ(self):
        a = random_monotone_family(1, 3, "increasing", 4)
        b = random_monotone_family(2, 3, "increasing", 4)
        assert any(
            f.breakpoints.shape != g.breakpoints.shape or not np.array_equal(f.values, g.values)
            for f, g in zip(a, b)
        )

    def test_invariants(self):
        for f in random_monotone_family(123, 5, "decreasing", 6):
            assert f.breakpoints[0] == 0.0
            assert np.all(np.diff(f.breakpoints) > 0)
            assert np.all(f.values >= 1e-6)
            assert np.all(np.diff(f.values) <= 0)

    def test_bad_args(self):
        with pytest.raises(ValueError, match="n must be"):
            random_monotone_family(1, 0, "increasing", 3)
        with pytest.raises(ValueError, match="segments"):
            random_monotone_family(1, 2, "increasing", 0)
        with pytest.raises(ValueError, match="direction"):
            random_monotone_family(1, 2, "diagonal", 3)


class TestSheppFactorBridge:
    """The avoidance factors are piecewise linear, so the engine reproduces them losslessly."""

    def test_matches_quadrature_and_bound(self):
        rng = np.random.default_rng(903)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            l1 = float(rng.uniform(0.1, 0.6))
            lengths = np.sort(rng.uniform(0.02, l1, n))[::-1]
            eps = float(rng.uniform(0.3, 0.9) * (1.0 - lengths[0]))
            family = [shepp_factor_polyline(float(l), eps) for l in lengths]

            result = check_inequality(family)
            assert result.holds

            quad = product_integral(lengths, eps)
            assert result.lhs == pytest.approx(eps ** (n - 1) * quad.value, rel=1e-10)
            assert result.rhs == pytest.approx(
                math.prod(pair_factor_integral(float(l), eps) for l in lengths), rel=1e-10
            )
            assert result.lhs / eps ** (n - 1) >= chebyshev_lower_bound(lengths, eps) * (1 - 1e-10)

    def test_thousand_factors_match_product_integral(self):
        # 1000 factors: the rule cuts segments into pieces by the log-drop,
        # as product_integral does for the same integrand.
        eps = 0.25
        lengths = generate(LengthSequence.inverse_sqrt(c=1, cap=0.49), 1000)
        family = [shepp_factor_polyline(float(l), eps) for l in lengths]
        linear = product_integral_pl(family)
        assert abs(math.log(linear) - product_integral(lengths, eps).log_value) <= 1e-13


# ---------------------------------------------------------------------------
# the row kernel against the per-function code it replaced

def reference_family(seed, n, direction, segments):
    """Per-function draws: unique inner points, then one value per breakpoint."""
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.2, 1.0))
    family = []
    for _ in range(n):
        inner = np.unique(rng.uniform(0.0, eps, segments))
        inner = inner[(inner > 0.0) & (inner < eps)]
        breakpoints = np.concatenate(([0.0], inner, [eps]))
        values = np.sort(np.maximum(rng.uniform(0.0, 1.0, breakpoints.size), VALUE_FLOOR))
        if direction == "decreasing":
            values = values[::-1]
        family.append((breakpoints, values))
    return family


def reference_sides(family):
    """(lhs, rhs) evaluated function by function."""
    pts = np.unique(np.concatenate([b for b, _ in family]))
    x, w = segmented_gauss_legendre(pts, math.ceil((len(family) + 1) / 2))
    prod = np.ones_like(x)
    for b, v in family:
        prod *= np.interp(x, b, v)
    eps = float(family[0][0][-1])
    lhs = eps ** (len(family) - 1) * math.fsum((prod * w).tolist())
    rhs = math.prod(math.fsum((np.diff(b) * (0.5 * (v[:-1] + v[1:]))).tolist()) for b, v in family)
    return lhs, rhs


class Scripted:
    """A generator whose unit draws come from a script, in order."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        out, self.draws = self.draws[:size], self.draws[size:]
        return np.array(out)

    def uniform(self, low, high, size=None):
        draw = self.random(1 if size is None else size) * (high - low) + low
        return float(draw[0]) if size is None else draw


def assert_rows_equal(rows, family):
    """Each row, cut where its breakpoints reach eps, is the function; the rest is padding."""
    b, v = rows
    assert len(b) == len(v) == len(family)
    for bi, vi, (fb, fv) in zip(b, v, family):
        c = 1 + np.count_nonzero(bi < bi[-1])
        assert c == fb.size
        assert bi[:c].tobytes() == fb.tobytes()
        assert vi[:c].tobytes() == fv.tobytes()
        assert (bi[c:] == fb[-1]).all() and (vi[c:] == fv[-1]).all()


class TestRowKernel:
    def test_bit_identical_to_per_function_draws(self):
        rng = np.random.default_rng(904)
        for _ in range(2000):
            seed = int(rng.integers(1 << 63))
            n, segments = int(rng.integers(1, 11)), int(rng.integers(1, 9))
            direction = "increasing" if rng.integers(2) else "decreasing"
            family = reference_family(seed, n, direction, segments)
            rows = chebyshev._family_rows(seed, n, direction, segments)
            assert_rows_equal(rows, family)
            assert chebyshev._evaluate(*rows) == reference_sides(family)
            objects = random_monotone_family(seed, n, direction, segments)
            assert [(f.breakpoints.tobytes(), f.values.tobytes()) for f in objects] == \
                [(fb.tobytes(), fv.tobytes()) for fb, fv in family]
            result = check_inequality(objects)
            assert (result.lhs, result.rhs) == reference_sides(family)

    def test_user_families_of_mixed_lengths(self):
        rng = np.random.default_rng(905)
        for _ in range(300):
            eps = float(rng.uniform(0.1, 2.0))
            direction = "increasing" if rng.integers(2) else "decreasing"
            family = []
            for _ in range(int(rng.integers(1, 9))):
                inner = np.unique(rng.uniform(0.0, eps, int(rng.integers(0, 12))))
                breakpoints = np.concatenate(([0.0], inner[inner > 0.0], [eps]))
                values = np.sort(rng.uniform(0.5, 3.0, breakpoints.size))
                family.append((breakpoints, values if direction == "increasing" else values[::-1]))
            fs = [MonotonePiecewiseLinear(b, v, direction) for b, v in family]
            assert_rows_equal(chebyshev._rows(fs), family)
            result = check_inequality(fs)
            assert (result.lhs, result.rhs) == reference_sides(family)
            assert product_integral_pl(fs) * eps ** (len(fs) - 1) == result.lhs

    def test_tied_inner_draws_are_dropped(self, monkeypatch):
        script = [0.5,  # eps = 0.6
                  0.25, 0.75, 0.25, 0.0,  # a tie and a 0: two inner points kept
                  0.9, 0.1, 0.3, 0.7,  # their four values
                  0.5, 0.125, 0.625, 0.375,  # four distinct inner points
                  0.2, 0.4, 0.6, 0.8, 0.1, 0.3]  # their six values
        sentinels = [np.nan] * 4  # the kernel's bulk draw reads past the script
        generators = []

        def scripted_rng(seed):
            generators.append(Scripted(draws))
            return generators[-1]

        def kernel_rows():
            return np.concatenate(chebyshev._family_rows(0, 2, "decreasing", 4)).tobytes()

        draws = script + sentinels
        monkeypatch.setattr(np.random, "default_rng", scripted_rng)
        family = reference_family(0, 2, "decreasing", 4)
        rows = chebyshev._family_rows(0, 2, "decreasing", 4)
        reference, kernel = generators
        # The per-function draws read exactly the script; the kernel reads eps
        # and n * (2*segments + 2) = 20 more in one call, 19 of them scripted.
        assert reference.sizes[1:] == [4, 4, 4, 6]
        assert np.isnan(reference.draws).all() and len(reference.draws) == len(sentinels)
        assert kernel.sizes == [21] and len(kernel.draws) == len(sentinels) - 2
        assert np.isfinite(rows).all()
        assert_rows_equal(rows, family)
        eps = float(rows[0][0, -1])
        assert rows[0][0].tolist() == [0.0, eps * 0.25, eps * 0.75, eps, eps, eps]
        assert rows[1][0].tolist() == [0.9, 0.7, 0.3, 0.1, 0.1, 0.1]  # decreasing, padded
        assert chebyshev._evaluate(*rows) == reference_sides(family)
        # Exactly the first 19 draws reach the rows: moving any of them moves
        # the rows, and a number in place of a sentinel changes nothing.
        before = np.concatenate(rows).tobytes()
        for i in range(len(script + sentinels)):
            draws = script + sentinels
            draws[i] = draws[i] + 1 / 64 if i < len(script) else 0.5
            assert (kernel_rows() != before) == (i < len(script)), i


def stack(families):
    """Families of (breakpoints, values) pairs as one batch of rows.

    Rows are padded with eps and their last value; a family with fewer
    functions than the widest gets dead rows (0 and eps, value 1).
    """
    rows = max(len(family) for family in families)
    width = max(b.size for family in families for b, _ in family)
    bs = np.zeros((len(families), rows, width))
    vs = np.ones_like(bs)
    for k, family in enumerate(families):
        bs[k, :, 1:] = family[0][0][-1]
        for i, (b, v) in enumerate(family):
            bs[k, i] = np.pad(b, (0, width - b.size), mode="edge")
            vs[k, i] = np.pad(v, (0, width - v.size), mode="edge")
    return bs, vs, np.array([len(family) for family in families])


class TestBatchLayout:
    """The bulk draw, laid out for many families at once, against the per-function draws."""

    @pytest.mark.parametrize("crafted", [0, 2, 4], ids=["first", "middle", "last"])
    def test_crafted_drops_match_reference(self, monkeypatch, crafted):
        # Family 3 has five functions of four draws; function `crafted` draws a
        # tie, a 0.0 and a 1.0.  eps*u < eps for every double u < 1, so 1.0,
        # which random() never gives, is the draw that lands on eps.  The
        # other functions draw distinct points inside (0, 1) and drop nothing.
        rng = np.random.default_rng(912)
        shapes = [(3, 2), (1, 5), (6, 1), (5, 4), (2, 3), (4, 6)]  # (n, segments)
        scripts, increasing = {}, []
        for seed, (n, segments) in enumerate(shapes):
            draws = [float(rng.uniform(0.05, 0.95))]
            for i in range(n):
                inner = rng.uniform(0.01, 0.99, segments).tolist()
                if seed == 3 and i == crafted:
                    inner = [0.25, 0.0, 0.25, 1.0]
                draws += inner + rng.uniform(0.01, 0.99, len(set(inner) - {0.0, 1.0}) + 2).tolist()
            scripts[seed] = draws + [np.nan] * 8
            increasing.append(bool(seed % 2))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Scripted(scripts[seed]))
        ns = [n for n, _ in shapes]
        b, v = chebyshev._family_batch(range(len(shapes)), ns, increasing, [s for _, s in shapes])
        assert b.shape == v.shape == (6, 6, 8)
        lhs, rhs = chebyshev._sides(b, v, ns)
        for k, (n, segments) in enumerate(shapes):
            family = reference_family(k, n, chebyshev.DIRECTIONS[0 if increasing[k] else 1], segments)
            assert_rows_equal((b[k, :n], v[k, :n]), family)
            assert np.isfinite(b[k]).all() and np.isfinite(v[k]).all()
            assert (b[k, n:, 0] == 0.0).all() and (b[k, n:, 1:] == family[0][0][-1]).all()
            assert (v[k, n:] == 1.0).all()
            assert (lhs[k], rhs[k]) == reference_sides(family)
        kept = [fb.size - 2 for fb, _ in reference_family(3, 5, "increasing", 4)]
        assert kept == [1 if i == crafted else 4 for i in range(5)]


class TestBatchEvaluator:
    """One stacked evaluation gives every family the bits it gets alone."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_mixed_batch_matches_each_family(self, monkeypatch):
        calls = []

        def spy_rule(breakpoints, degree, log_integrand, nodes=None):
            rule = product_rule(breakpoints, degree, log_integrand, nodes)
            calls.append((degree, rule[2], rule[3]))
            return rule

        product_rule = chebyshev.product_rule
        monkeypatch.setattr(chebyshev, "product_rule", spy_rule)
        rng = np.random.default_rng(913)
        families, exact, objects = [], [], []
        for n in [1, 10, 30, 3, 50, 1, 7, 10, 2, 23]:
            seed, segments = int(rng.integers(1 << 63)), int(rng.integers(1, 9))
            objects.append(random_monotone_family(seed, n, chebyshev.DIRECTIONS[int(rng.integers(2))], segments))
            families.append([(f.breakpoints, f.values) for f in objects[-1]])
            exact.append(n <= 23)
        # Segments a few ulps wide, which carry nearly all of the integral: a
        # node of (1, 1 + 2**-52) rounds below 1.0, one of (1, 1 + 3 * 2**-52)
        # onto its end, and np.interp reads it on the neighbouring piece.
        for rows, ulps, top in ((10, 1, 2.0), (12, 3, 1.7)):
            end = 1.0 + ulps * 2.0**-52
            families.append([(np.array([0.0, 1.0, end]), np.array([1e-300, 0.125, top]))] * rows)
            exact.append(True)
        # An infinite slope on a piece a subnormal wide: its node lies on the
        # piece's start, where np.interp takes the breakpoint's value.
        families.append([(np.array([0.0, 5e-324, 1.0]), np.array([1e300, 1.0, 0.5]))])
        exact.append(True)
        b, v, ns = stack(families)
        calls.clear()
        lhs, rhs = chebyshev._sides(b, v, ns)
        # One call per node count; only the segments of the families of 30
        # and 50 functions, whose degree is their n, are cut by the log-drop.
        qs = np.minimum((ns + 2) // 2, _accum.MAX_NODES)
        assert sorted(q for _, q, _ in calls) == sorted(set(qs.tolist()))
        cut = set()
        for degree, _, seg in calls:
            assert (np.diff(seg) >= 0).all()
            cut.update(degree[np.bincount(seg) > 1].tolist())
        assert cut == {30, 50}
        for k, family in enumerate(families):
            alone_b, alone_v, _ = stack([family])
            assert (lhs[k], rhs[k]) == chebyshev._evaluate(alone_b[0], alone_v[0])
            if exact[k]:
                assert (lhs[k], rhs[k]) == reference_sides(family)
        assert chebyshev._product_integrals(b, v, ns)[4] == product_integral_pl(objects[4])


class TestPadding:
    """A row ends where its breakpoints reach eps; more padding never changes a result."""

    @pytest.mark.parametrize("direction", chebyshev.DIRECTIONS)
    @pytest.mark.parametrize("n", [*range(1, 11), 24, 50, 100])
    def test_wider_padding_changes_nothing(self, direction, n):
        rng = np.random.default_rng(911 + n)
        for _ in range(50 if n <= 10 else 4):
            seed, segments = int(rng.integers(1 << 63)), int(rng.integers(1, 9))
            b, v = chebyshev._family_rows(seed, n, direction, segments)
            extra = int(rng.integers(1, 4))
            wider_b = np.pad(b, ((0, 0), (0, extra)), mode="edge")
            wider_v = np.pad(v, ((0, 0), (0, extra)), mode="edge")
            assert chebyshev._evaluate(wider_b, wider_v) == chebyshev._evaluate(b, v)


# ---------------------------------------------------------------------------
# the shared product rule

def mp_product_integral(mpmath, family) -> float:
    """integral(prod f_k) at 40 digits, exact on each merged segment.

    Every function is linear on a merged segment [a, b], so the product
    is expanded into a polynomial in s = (t - a)/(b - a) and integrated
    term by term.
    """
    with mpmath.workdps(40):
        rows = [([mpmath.mpf(x) for x in f.breakpoints.tolist()],
                 [mpmath.mpf(v) for v in f.values.tolist()]) for f in family]
        pts = sorted({x for xs, _ in rows for x in xs})
        total = mpmath.mpf(0)
        for a, b in zip(pts[:-1], pts[1:]):
            coeffs = [mpmath.mpf(1)]
            for xs, vs in rows:
                i = bisect.bisect_right(xs, a) - 1
                slope = (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
                at_a = vs[i] + slope * (a - xs[i])
                rise = slope * (b - a)
                coeffs = [at_a * c + rise * lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
            total += (b - a) * mpmath.fsum(c / (k + 1) for k, c in enumerate(coeffs))
        return float(total)


class TestSharedRule:
    @pytest.mark.parametrize("direction", chebyshev.DIRECTIONS)
    def test_exact_rule_up_to_23_functions(self, direction):
        rng = np.random.default_rng(906)
        for n in range(1, 24):
            seed, segments = int(rng.integers(1 << 63)), int(rng.integers(1, 9))
            family = reference_family(seed, n, direction, segments)
            assert chebyshev._evaluate(*chebyshev._family_rows(seed, n, direction, segments)) == \
                reference_sides(family)

    @pytest.mark.parametrize("n", [24, 50, 100, 200])
    @pytest.mark.parametrize("direction", chebyshev.DIRECTIONS)
    def test_capped_rule_matches_degree_exact_rule(self, direction, n):
        rng = np.random.default_rng(907 + n)
        for _ in range(3):
            seed, segments = int(rng.integers(1 << 63)), int(rng.integers(1, 9))
            lhs, rhs = chebyshev._evaluate(*chebyshev._family_rows(seed, n, direction, segments))
            exact_lhs, exact_rhs = reference_sides(reference_family(seed, n, direction, segments))
            assert rhs == exact_rhs
            assert abs(lhs - exact_lhs) <= 1e-12 * exact_lhs
            # The functions, cut and padded again to their own widest row, give the same bits.
            result = check_inequality(random_monotone_family(seed, n, direction, segments))
            assert (result.lhs, result.rhs) == (lhs, rhs)

    @pytest.mark.parametrize("direction", chebyshev.DIRECTIONS)
    def test_fifty_functions_match_mpmath(self, direction):
        mpmath = pytest.importorskip("mpmath")
        family = random_monotone_family(908, 50, direction, 2)
        oracle = mp_product_integral(mpmath, family)
        assert abs(product_integral_pl(family) - oracle) <= 1e-13 * oracle

    @pytest.mark.xfail(strict=True, reason="both sides are formed in linear space, and the right one underflows")
    def test_sides_of_five_hundred_functions_do_not_underflow(self):
        result = check_inequality(random_monotone_family(910, 500, "increasing", 6))
        assert result.rhs > 0.0

    @pytest.mark.parametrize("n", [24, 100, 500])
    def test_no_rule_above_the_cap(self, rule_orders, n):
        check_inequality(random_monotone_family(909, n, "decreasing", 6))
        check_inequality(random_monotone_family(910, n, "increasing", 6))
        assert rule_orders and max(rule_orders) <= _accum.MAX_NODES
