"""Shared independent oracles, probes of the library's g_eps, and the subprocess environment.

The oracles deliberately avoid the library code paths they are used
to check: plain midpoint Riemann sums, brute-force grids,
high-precision mpmath integrals, Gauss-Legendre rules of any order
built in decimal arithmetic only, and ``paper_growth``, the paper's
defining quotient for g_eps.  ``growth`` and ``growth_derivatives`` are
not oracles: they evaluate the library's own g_eps (``_log_g``), the
only form of it that reaches a certificate, so tests can probe it.
"""

from __future__ import annotations

import decimal
import functools
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import arccover
from arccover import _accum
from arccover.chebyshev import MonotonePiecewiseLinear
from arccover.integrals import _log_g, pair_factor_eval


# built_gauss_legendre runs Newton's method in decimal at 40 significant
# digits and stops once a step falls below _GL_TOLERANCE, far below
# float64's resolution, so rounding to float64 is the only error that
# shows.
_GL_CONTEXT = decimal.Context(prec=40)
_GL_TOLERANCE = decimal.Decimal("1e-30")


def _legendre_pair(n: int, x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, in the current decimal context."""
    prev, cur = decimal.Decimal(1), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


@functools.lru_cache(maxsize=None)
def built_gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built and cached per order.

    Built in the standard library's software decimal arithmetic, so the
    rule depends neither on the numpy release nor on the platform's
    floating point.  Newton's method on the three-term recurrence, run
    at 40 significant digits, finds each nonnegative node x; with
    N = n*(P_{n-1}(x) - x*P_n(x)) = (1 - x**2)*P_n'(x), the Newton step
    is P_n*(1 - x**2)/N and the weight is 2*(1 - x**2)/N**2, taken at
    the last iterate, less than 1e-30 from the node.  Each node
    and weight is rounded to float64 once, which makes them correctly
    rounded at every order ``test_correctly_rounded_against_mpmath``
    checks against a 50-digit rule.  ``_accum``'s table of orders
    1..MAX_NODES holds these bits; every larger order is made here only.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    n = order
    half = n // 2
    # Tricomi's approximation to the positive roots, largest first; the
    # middle root of an odd order is exactly 0, where P_n is exactly 0.
    shrink = 1.0 - (n - 1) / (8.0 * n**3)
    starts = [decimal.Decimal(shrink * math.cos(math.pi * (k - 0.25) / (n + 0.5)))
              for k in range(1, half + 1)] + [decimal.Decimal(0)] * (n % 2)
    x_half, w_half = [], []
    with decimal.localcontext(_GL_CONTEXT):
        for x in starts:
            step = 1
            while abs(step) >= _GL_TOLERANCE:
                p, p_prev = _legendre_pair(n, x)
                one_minus_sq = 1 - x * x
                big_n = n * (p_prev - x * p)
                step = p * one_minus_sq / big_n
                x -= step
            x_half.append(float(x))
            w_half.append(float(2 * one_minus_sq / (big_n * big_n)))
    return _accum._mirrored(n, x_half, w_half)


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


def paper_growth(eps: float, x: float) -> float:
    """g_eps(x) = (x**2/2 + eps - 2*eps*x) / (eps * (1 - x)**2), the paper's defining quotient."""
    return (0.5 * x * x + eps - 2.0 * eps * x) / (eps * (1.0 - x) ** 2)


def growth(eps: float, x: float) -> float:
    """The library's g_eps(x): exp of ``integrals._log_g``."""
    return math.exp(float(_log_g(np.array([x]), eps)[0]))


class GrowthDerivatives(NamedTuple):
    """The library's g_eps at 0: value, first and second derivative."""

    g0: float
    d1: float
    d2: float


def growth_derivatives(eps: float) -> GrowthDerivatives:
    """g_eps(0), g_eps'(0) and g_eps''(0) of ``growth`` by central differences.

    h=1e-4 for the first derivative and h=1e-3 for the second; g_eps is
    defined for small negative x, so no one-sided stencils are needed.
    For 0 < eps < 1/2 they should give 1, 0 and (1 - 2*eps)/eps.
    """
    h1, h2 = 1e-4, 1e-3
    g0 = growth(eps, 0.0)
    return GrowthDerivatives(
        g0=g0,
        d1=(growth(eps, h1) - growth(eps, -h1)) / (2.0 * h1),
        d2=(growth(eps, h2) - 2.0 * g0 + growth(eps, -h2)) / (h2 * h2),
    )


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
