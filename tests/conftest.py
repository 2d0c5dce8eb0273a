"""Shared independent oracles and the subprocess environment for the test suite.

These helpers deliberately avoid the library code paths they are used
to check: plain midpoint Riemann sums, brute-force grids and
high-precision mpmath integrals only.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import arccover
from arccover import _accum
from arccover.chebyshev import MonotonePiecewiseLinear
from arccover.integrals import pair_factor_eval


def midpoint_riemann(fn, a: float, b: float, points: int = 10**6) -> float:
    """Composite midpoint rule with ``points`` cells, chunked for memory."""
    h = (b - a) / points
    total = 0.0
    chunk = 1 << 20
    for start in range(0, points, chunk):
        idx = np.arange(start, min(start + chunk, points), dtype=np.float64)
        total += float(fn(a + (idx + 0.5) * h).sum())
    return total * h


def mp_log_product_integral(mpmath, lengths, eps: float) -> float:
    """log I_n by 40-digit mpmath.quad over the exact piecewise-polynomial integrand.

    On each breakpoint segment [a, b] the factors with l <= a are the
    constant (1 - 2l)/(1 - l)**2 and the rest are (1 - l - t)/(1 - l)**2,
    so the constants and denominators are multiplied once per segment.
    """
    with mpmath.workdps(40):
        ls = [mpmath.mpf(float(v)) for v in lengths]
        pts = [mpmath.mpf(0)] + sorted({v for v in ls if v < eps}) + [mpmath.mpf(eps)]
        total = mpmath.mpf(0)
        for a, b in zip(pts[:-1], pts[1:]):
            roots = [1 - v for v in ls if v > a]
            scale = (mpmath.fprod((1 - 2 * v) / (1 - v) ** 2 for v in ls if v <= a)
                     / mpmath.fprod(r * r for r in roots))

            def integrand(t, roots=roots, scale=scale):
                out = scale
                for r in roots:
                    out *= r - t
                return out

            total += mpmath.quad(integrand, [a, b], method="gauss-legendre")
        return float(mpmath.log(total))


def shepp_factor_polyline(l: float, eps: float) -> MonotonePiecewiseLinear:
    """Lossless piecewise-linear representation of one avoidance factor on [0, eps]."""
    pts = [0.0, l, eps] if l < eps else [0.0, eps]
    vals = [pair_factor_eval(l, x) for x in pts]
    return MonotonePiecewiseLinear(np.array(pts), np.array(vals), "decreasing")


def uncovered_fraction_grid(lengths, points, grid: int = 200_000) -> float:
    """P(all of ``points`` uncovered) by brute-force grid over one arc center.

    Only valid for a single arc; used to pin single-factor values.
    """
    (l,) = lengths
    centers = (np.arange(grid) + 0.5) / grid
    ok = np.ones(grid, dtype=bool)
    for x in points:
        ok &= (x - centers) % 1.0 >= l
    return float(ok.mean())


@pytest.fixture
def rule_orders(monkeypatch) -> list:
    """The order of every Gauss-Legendre rule the library asks for while the test runs."""
    orders = []
    build = _accum.gauss_legendre

    def spy(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(_accum, "gauss_legendre", spy)
    return orders


def subprocess_env() -> dict:
    # A subprocess may run from an unrelated directory, where a relative
    # PYTHONPATH (such as "src") would not resolve, so put the package's
    # absolute source directory first.
    src_dir = str(Path(arccover.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env
