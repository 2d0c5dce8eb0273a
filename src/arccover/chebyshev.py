"""Chebyshev-type integral inequality engine for commonly monotone positive functions.

For positive f_1, ..., f_n on [0, eps] that are either all increasing
or all decreasing,

    eps**(n-1) * integral(prod_k f_k)  >=  prod_k integral(f_k).

Piecewise-linear representatives make both sides computable: the
trapezoid rule is exact per factor, and ``_accum.product_rule``, which
the arc-factor product integral uses too, integrates the product (of
degree n between merged breakpoints): exact for at most 23 functions, at
roundoff above.  The arc-avoidance factors of the covering problem are
themselves piecewise linear, so this engine reproduces that application.

The engine works on a family as rows: an ``(n, width)`` array of
breakpoints and one of values; a row ends where its breakpoints reach
eps.  A shorter row is padded with eps and its last value; the padded
pieces have zero width, so they add exact zeros to every sum.
One evaluator takes these rows for random and user-built families alike,
and ``inequality-check`` runs its trials on them without building an
object per function.

A random family draws from ``default_rng(seed)``: eps from U(0.2, 1),
then, function after function, ``segments`` inner breakpoints
``eps * random()``, of which tied and out-of-range draws are dropped,
then one value per kept breakpoint (both ends included), floored at
VALUE_FLOOR and sorted to match the direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accum import product_rule

DIRECTIONS = ("increasing", "decreasing")

# Random families get values floored here; the inequality needs positive functions.
VALUE_FLOOR = 1e-6


def _check_rows(breakpoints: np.ndarray, values: np.ndarray, counts: np.ndarray, direction: str) -> None:
    """Raise ValueError unless each row is a positive monotone polyline on [0, eps].

    Row i is its first ``counts[i]`` entries; the rest repeat its last
    breakpoint and value.
    """
    b, v = breakpoints, values
    if not (np.isfinite(b).all() and np.isfinite(v).all()):
        raise ValueError("breakpoints and values must be finite")
    starts = b[:, 0]
    if (starts != 0.0).any():
        raise ValueError(f"breakpoints must start at 0, got {starts[starts != 0.0][0]}")
    live = np.arange(b.shape[1] - 1) < counts[:, None] - 1
    if ((b[:, 1:] <= b[:, :-1]) & live).any():
        raise ValueError("breakpoints must be strictly ascending")
    if (v <= 0.0).any():
        raise ValueError("values must be strictly positive")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if direction == "increasing" and (v[:, 1:] < v[:, :-1]).any():
        raise ValueError("values must be nondecreasing for an increasing function")
    if direction == "decreasing" and (v[:, 1:] > v[:, :-1]).any():
        raise ValueError("values must be nonincreasing for a decreasing function")


@dataclass(frozen=True)
class MonotonePiecewiseLinear:
    """A positive monotone piecewise-linear function on [0, eps].

    ``breakpoints`` must start at 0, end at eps and be strictly
    ascending; ``values`` are the node values (linear in between),
    finite, strictly positive and ordered consistently with
    ``direction`` (nonstrictly, so constants are legal in either
    direction).
    """

    breakpoints: np.ndarray
    values: np.ndarray
    direction: str

    def __post_init__(self) -> None:
        b = np.asarray(self.breakpoints, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size or b.size < 2:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length >= 2")
        _check_rows(b[None], v[None], np.array([b.size]), self.direction)
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


def _rows(fs) -> tuple[np.ndarray, np.ndarray]:
    """A family as rows of breakpoints and values, each padded with eps and its last value."""
    width = max(f.breakpoints.size for f in fs)

    def padded(a: np.ndarray) -> np.ndarray:
        return np.pad(a, (0, width - a.size), mode="edge")

    return np.array([padded(f.breakpoints) for f in fs]), np.array([padded(f.values) for f in fs])


def _row_integrals(b: np.ndarray, v: np.ndarray) -> list[float]:
    """The exact integral of each row (trapezoid, exact for polylines)."""
    terms = np.diff(b, axis=1) * (0.5 * (v[:, :-1] + v[:, 1:]))
    return [math.fsum(row) for row in terms.tolist()]


def _product_integral_rows(b: np.ndarray, v: np.ndarray) -> float:
    # The product is a polynomial of degree n between merged breakpoints.
    # np.interp on a padded row gives the bits of the cut row.
    rows = list(zip(b, v))

    def factors(x: np.ndarray):
        return (np.interp(x, bi, vi) for bi, vi in rows)

    x, w, _, _ = product_rule(np.unique(b), len(rows), lambda t: sum(map(np.log, factors(t))))
    return math.fsum((math.prod(factors(x)) * w).tolist())


def _evaluate(b: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Both sides, ``(eps**(n-1) * integral(prod f_k), prod integral(f_k))``, of a family in rows."""
    eps = float(b[0, -1])
    lhs = eps ** (len(b) - 1) * _product_integral_rows(b, v)
    return lhs, math.prod(_row_integrals(b, v))


def _holds(lhs, rhs):
    """The verdict: lhs may fall below rhs by at most 1e-10 * max(1, rhs)."""
    return lhs >= rhs - 1e-10 * np.maximum(1.0, rhs)


def integral(f: MonotonePiecewiseLinear) -> float:
    """Exact integral of ``f`` over its domain (trapezoid, exact for polylines)."""
    return _row_integrals(f.breakpoints[None], f.values[None])[0]


def _shared_domain(fs) -> float:
    end = fs[0].domain_end
    if any(f.domain_end != end for f in fs):
        raise ValueError("all functions must share the domain [0, eps]")
    return end


def _common_family(fs) -> list[MonotonePiecewiseLinear]:
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    if any(f.direction != fs[0].direction for f in fs):
        raise ValueError("mixed directions: all functions must be increasing or all decreasing")
    _shared_domain(fs)
    return fs


def product_integral_pl(fs) -> float:
    """Integral of ``prod(fs)`` over the shared domain, exact for at most 23 functions.

    Raises on mixed directions or mismatched domains: the inequality
    this engine certifies is only stated for commonly monotone
    families.
    """
    return _product_integral_rows(*_rows(_common_family(fs)))


def check_inequality(fs) -> InequalityCheck:
    """Evaluate both sides of the inequality for a commonly monotone family.

    ``holds`` is one-sided: the left side may fall below the right by at
    most 1e-10 * max(1, rhs), so roundoff cannot raise false alarms
    while genuine violations of any size are caught.
    """
    lhs, rhs = _evaluate(*_rows(_common_family(fs)))
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(_holds(lhs, rhs)), margin=lhs - rhs)


def two_function_correlation(f: MonotonePiecewiseLinear, g: MonotonePiecewiseLinear) -> float:
    """The double integral of (f(x) - f(y)) * (g(x) - g(y)) over [0, eps]**2.

    Computed exactly via the expansion 2*eps*int(fg) - 2*int(f)*int(g).
    Nonnegative whenever f and g share a direction; this signed form
    deliberately skips the direction check so it can exhibit negative
    values for opposite-direction pairs, witnessing that the common
    monotonicity hypothesis is necessary.
    """
    eps = _shared_domain([f, g])
    b, v = _rows([f, g])
    int_f, int_g = _row_integrals(b, v)
    return 2.0 * eps * _product_integral_rows(b, v) - 2.0 * int_f * int_g


def _family_rows(seed: int, n: int, direction: str, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``random_monotone_family(seed, n, direction, segments)``, width segments + 2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.2, 1.0))
    b = np.full((n, segments + 2), eps)
    b[:, 0] = 0.0
    drawn = np.full_like(b, np.nan)  # unused slots stay NaN and sort last
    for i in range(n):
        # eps * random() is bit for bit rng.uniform(0, eps).  The set drops
        # ties and out-of-range draws, as np.unique and a range filter would.
        inner = sorted({x for x in (eps * rng.random(segments)).tolist() if 0.0 < x < eps})
        b[i, 1:1 + len(inner)] = inner
        drawn[i, :len(inner) + 2] = rng.random(len(inner) + 2)
    v = np.maximum(drawn, VALUE_FLOOR)
    v = np.sort(v, axis=1) if direction == "increasing" else -np.sort(-v, axis=1)
    # fmax and fmin skip NaN, so each unused slot repeats the row's last value.
    v = (np.fmax if direction == "increasing" else np.fmin).accumulate(v, axis=1)
    _check_rows(b, v, 1 + np.count_nonzero(b < eps, axis=1), direction)
    return b, v


def random_monotone_family(seed: int, n: int, direction: str, segments: int) -> list[MonotonePiecewiseLinear]:
    """Deterministic family of n random monotone polylines on a shared domain.

    Each function gets ``segments`` interior breakpoints drawn uniformly
    in (0, eps) and positive values (floored at 1e-6) sorted to match
    ``direction``.  Identical seeds reproduce identical families.
    """
    b, v = _family_rows(seed, n, direction, segments)
    ends = 1 + np.count_nonzero(b < b[:, -1:], axis=1)  # each row ends where its breakpoints reach eps
    return [MonotonePiecewiseLinear(bi[:c], vi[:c], direction) for bi, vi, c in zip(b, v, ends.tolist())]
