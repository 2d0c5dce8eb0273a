"""Compensated accumulation (Sum2 prefixes, log-sum-exp) and quadrature-node helpers."""

from __future__ import annotations

import functools
import math

import numpy as np

# Float64 Newton steps before the compensated pass.  From Tricomi's
# starting guesses three steps leave every node within a few ulps of its
# root (measured up to order 5001); a fixed count avoids the 2-cycles
# that plain float64 Newton can enter next to a root.
_NEWTON_STEPS = 3

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a float64 into two halves

# compensated_cumsum forms its TwoSum errors this many at a time, so that
# _two_sum's five temporaries stay small next to the prefix: formed over
# all 10^6 terms at once they raised the tables workload's peak RSS.
_SUM2_BLOCK = 1 << 16


def compensated_cumsum(values) -> np.ndarray:
    """Running sums of ``values``, each as if summed in twice the working precision.

    The cumulative form of Sum2 (Ogita, Rump & Oishi, "Accurate sum and
    dot product", SIAM J. Sci. Comput. 26(6), 2005): a plain float64
    cumsum ``p``, plus the running sum of the exact error of each of its
    additions, TwoSum(p[i-1], x[i]).  A plain cumsum loses the
    slowly-shrinking tail of a long series (here, million-term length
    sums whose increments decay like 1/k); the compensated prefixes stay
    accurate to about an ulp independent of length.  This relies on
    ``np.cumsum`` adding in sequence, which the tests check.
    """
    x = np.asarray(values, dtype=np.float64)
    p = np.cumsum(x)
    a, b = p[:-1], x[1:]
    err = np.empty_like(b)
    for start in range(0, b.size, _SUM2_BLOCK):
        block = slice(start, start + _SUM2_BLOCK)
        err[block] = _two_sum(a[block], b[block])[1]
    p[1:] += np.cumsum(err)
    return p


# The benchmark's tracer (bench/tracing.py) times this layer under its old name.
kahan_cumsum = compensated_cumsum


def log_sum_exp(log_terms: np.ndarray, weights: np.ndarray) -> float:
    """log(sum(weights * exp(log_terms))) for positive weights, without overflow.

    Shifted by the largest term, whose weights are split off so the rest
    enters through log1p (Blanchard, Higham & Higham, "Accurately
    computing the log-sum-exp and softmax functions", IMA J. Numer.
    Anal. 41(4), 2021).
    """
    top = log_terms.max()
    at_top = log_terms == top
    m = np.sum(weights * at_top)
    s = np.sum(weights * np.exp(np.where(at_top, -np.inf, log_terms - top))) / m
    return float(np.log1p(s) + np.log(m) + top)


# Double-double arithmetic: a value is a pair (hi, lo) of float64 scalars
# or arrays with |lo| <= ulp(hi)/2, worth about 32 significant digits.

def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e == a + b exactly (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly (Dekker)."""
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    t = _SPLITTER * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fast_two_sum(hi, lo):
    """Renormalise hi + lo, given |hi| >= |lo|."""
    s = hi + lo
    return s, lo - (s - hi)


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    return _fast_two_sum(s, e + (a[1] + b[1]))


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    return _fast_two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_div(a, b):
    q = a[0] / b[0]
    p, e = _two_prod(q, b[0])
    return _fast_two_sum(q, ((((a[0] - p) - e) + a[1]) - q * b[1]) / b[0])


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 (P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached per order.

    Built from IEEE-754 basic operations only, so the rule does not
    depend on the numpy release.  Float64 Newton on the three-term
    recurrence puts each nonnegative node x within a few ulps of its
    root.  One double-double pass at x then gives P_n(x) and
    N = n*(P_{n-1}(x) - x*P_n(x)) = (1 - x**2)*P_n'(x) to about 32
    digits.  x moves by the Newton correction dx, taken to second order,
    and the weight 2*(1 - x**2)/N**2 = 2/((1 - x**2)*P_n'**2) follows it
    by a second-order Taylor step; P'' and P''' come from Legendre's
    equation (1 - x**2)*P'' = 2*x*P' - n*(n+1)*P.  Nodes and weights are
    correctly rounded at every order the tests check against a 50-digit
    rule, and the negative half mirrors the positive half exactly.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    n = order
    half = n // 2
    # Tricomi's approximation to the positive roots, largest first.
    theta = math.pi * (np.arange(1, half + 1) - 0.25) / (n + 0.5)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(theta)
    for _ in range(_NEWTON_STEPS):
        p, p_prev = _legendre_pair(n, x)
        x = x - p * (1.0 - x * x) / (n * (p_prev - x * p))
    if n % 2:
        x = np.append(x, 0.0)

    # P_{k+1} = x*P_k + k/(k+1) * (x*P_k - P_{k-1}), in double-double.
    prev, cur = (np.ones_like(x), 0.0), (x, 0.0)
    for k in range(1, n):
        xp = _dd_mul(cur, (x, 0.0))
        ratio = _dd_div((float(k), 0.0), (k + 1.0, 0.0))
        prev, cur = cur, _dd_add(xp, _dd_mul(_dd_add(xp, (-prev[0], -prev[1])), ratio))
    sq = _two_prod(x, x)
    one_minus_sq = _dd_add((1.0, 0.0), (-sq[0], -sq[1]))
    big_n = _dd_mul(_dd_add(prev, _dd_mul(cur, (-x, 0.0))), (float(n), 0.0))
    w0 = _dd_div(_dd_div(_dd_mul(one_minus_sq, (2.0, 0.0)), big_n), big_n)

    t = one_minus_sq[0]
    p = cur[0] + cur[1]
    d1 = big_n[0] / t
    d2 = (2.0 * x * d1 - n * (n + 1) * p) / t
    d3 = (4.0 * x * d2 + (2.0 - n * (n + 1)) * d1) / t
    dx = -p / d1
    dx = dx - 0.5 * d2 * dx * dx / d1
    # log((1 - x**2) * P'(x)**2) moves by `shift` from x to x + dx.  The
    # second-order terms matter at large orders: at order 20001 a
    # first-order step misrounds the outermost weights.
    r = d2 / d1
    shift = ((2.0 * r - 2.0 * x / t) * dx
             + ((d3 / d1 - r * r) - (1.0 + x * x) / (t * t)) * dx * dx)
    w = w0[0] + (w0[1] + w0[0] * (0.5 * shift * shift - shift))
    x = x + dx

    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def segmented_gauss_legendre(breakpoints, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened nodes and weights of an ``order``-point rule on every segment.

    Segments are the consecutive pairs of the ascending ``breakpoints``;
    the result lists each segment's nodes in ascending order.
    """
    lo, hi = breakpoints[:-1], breakpoints[1:]
    xg, wg = gauss_legendre(order)
    x = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * xg).ravel()
    w = (0.5 * (hi - lo)[:, None] * wg).ravel()
    return x, w
