"""Chebyshev-type integral inequality engine for commonly monotone positive functions.

For positive f_1, ..., f_n on [0, eps] that are either all increasing
or all decreasing,

    eps**(n-1) * integral(prod_k f_k)  >=  prod_k integral(f_k).

Piecewise-linear representatives make both sides exactly computable:
the trapezoid rule is exact per factor, and Gauss-Legendre with
ceil((n+1)/2) nodes per merged segment is exact for the degree-n
product.  The arc-avoidance factors of the covering problem are
themselves piecewise linear, so this engine reproduces that
application losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accum import segmented_gauss_legendre

DIRECTIONS = ("increasing", "decreasing")

# Random families get values floored here; the inequality needs positive functions.
VALUE_FLOOR = 1e-6


@dataclass(frozen=True)
class MonotonePiecewiseLinear:
    """A positive monotone piecewise-linear function on [0, eps].

    ``breakpoints`` must start at 0, end at eps and be strictly
    ascending; ``values`` are the node values (linear in between),
    strictly positive and ordered consistently with ``direction``
    (nonstrictly, so constants are legal in either direction).
    """

    breakpoints: np.ndarray
    values: np.ndarray
    direction: str

    def __post_init__(self) -> None:
        b = np.asarray(self.breakpoints, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size or b.size < 2:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length >= 2")
        if b[0] != 0.0:
            raise ValueError(f"breakpoints must start at 0, got {b[0]}")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("breakpoints must be strictly ascending")
        if np.any(v <= 0.0):
            raise ValueError("values must be strictly positive")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        dv = np.diff(v)
        if self.direction == "increasing" and np.any(dv < 0.0):
            raise ValueError("values must be nondecreasing for an increasing function")
        if self.direction == "decreasing" and np.any(dv > 0.0):
            raise ValueError("values must be nonincreasing for a decreasing function")
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    @property
    def domain_end(self) -> float:
        return float(self.breakpoints[-1])

    def eval(self, x) -> np.ndarray:
        return np.interp(x, self.breakpoints, self.values)


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool
    margin: float


def integral(f: MonotonePiecewiseLinear) -> float:
    """Exact integral of ``f`` over its domain (trapezoid, exact for polylines)."""
    widths = np.diff(f.breakpoints)
    avg = 0.5 * (f.values[:-1] + f.values[1:])
    return math.fsum((widths * avg).tolist())


def _shared_domain(fs) -> float:
    end = fs[0].domain_end
    if any(f.domain_end != end for f in fs):
        raise ValueError("all functions must share the domain [0, eps]")
    return end


def _merged_product_integral(fs) -> float:
    # Exact: the product is polynomial of degree <= n between merged breakpoints.
    pts = np.unique(np.concatenate([f.breakpoints for f in fs]))
    x, w = segmented_gauss_legendre(pts, math.ceil((len(fs) + 1) / 2))
    prod = np.ones_like(x)
    for f in fs:
        prod *= np.interp(x, f.breakpoints, f.values)
    return math.fsum((prod * w).tolist())


def product_integral_pl(fs) -> float:
    """Exact integral of ``prod(fs)`` over the shared domain.

    Raises on mixed directions or mismatched domains: the inequality
    this engine certifies is only stated for commonly monotone
    families.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    if any(f.direction != fs[0].direction for f in fs):
        raise ValueError("mixed directions: all functions must be increasing or all decreasing")
    _shared_domain(fs)
    return _merged_product_integral(fs)


def check_inequality(fs) -> InequalityCheck:
    """Evaluate both sides of the inequality for a commonly monotone family.

    ``holds`` is one-sided: the left side may fall below the right by at
    most 1e-10 * max(1, rhs), so roundoff cannot raise false alarms
    while genuine violations of any size are caught.
    """
    fs = list(fs)
    lhs_integral = product_integral_pl(fs)
    eps = fs[0].domain_end
    lhs = eps ** (len(fs) - 1) * lhs_integral
    rhs = math.prod(integral(f) for f in fs)
    return InequalityCheck(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - 1e-10 * max(1.0, rhs),
        margin=lhs - rhs,
    )


def two_function_correlation(f: MonotonePiecewiseLinear, g: MonotonePiecewiseLinear) -> float:
    """The double integral of (f(x) - f(y)) * (g(x) - g(y)) over [0, eps]**2.

    Computed exactly via the expansion 2*eps*int(fg) - 2*int(f)*int(g).
    Nonnegative whenever f and g share a direction; this signed form
    deliberately skips the direction check so it can exhibit negative
    values for opposite-direction pairs, witnessing that the common
    monotonicity hypothesis is necessary.
    """
    _shared_domain([f, g])
    eps = f.domain_end
    return 2.0 * eps * _merged_product_integral([f, g]) - 2.0 * integral(f) * integral(g)


def random_monotone_family(seed: int, n: int, direction: str, segments: int) -> list[MonotonePiecewiseLinear]:
    """Deterministic family of n random monotone polylines on a shared domain.

    Each function gets ``segments`` interior breakpoints drawn uniformly
    in (0, eps) and positive values (floored at 1e-6) sorted to match
    ``direction``.  Identical seeds reproduce identical families.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
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
        family.append(MonotonePiecewiseLinear(breakpoints, values, direction))
    return family
