"""Compensated sums (Sum2 prefixes, log-sum-exp), the decimal-built Gauss-Legendre rule, and the product rule."""

from __future__ import annotations

import decimal
import functools
import math

import numpy as np

# gauss_legendre runs Newton's method in decimal at 40 significant digits
# and stops once a step falls below _GL_TOLERANCE, far below float64's
# resolution, so rounding to float64 is the only error that shows.
_GL_CONTEXT = decimal.Context(prec=40)
_GL_TOLERANCE = decimal.Decimal("1e-30")

# Cap on Gauss-Legendre nodes per quadrature piece: exact up to degree 23,
# at roundoff above it on pieces sized by the log-drop.
MAX_NODES = 12

# Elements per block of compensated_cumsum: its three temporaries stay in cache.
_SUM2_BLOCK = 1 << 14


def exact_parts(values, sizes=None) -> list[list[float]]:
    """A few floats with the exact sum of ``values``, or of each of its consecutive segments of ``sizes`` terms.

    ``math.fsum`` of a segment's parts is correctly rounded, so it has
    the bits of ``math.fsum`` of the segment itself, at numpy's speed
    rather than a Python float per term.  The passes are the error-free
    ExtractVector of Rump, Ogita & Oishi ("Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008).  For a segment
    of n finite floats x with 0 < max|x| < 2**e, take 2**k >= n + 2 and
    sigma = 2**(e+k), u = 2**-53, and round to nearest:

    * s = fl(sigma + x) is the float nearest sigma + x, and sigma and
      sigma +- 2**e are floats, so |s - sigma - x| <= |x| < 2**e and
      |s - sigma - x| <= u*sigma, half the float spacing below 2*sigma.
      s lies in [sigma/2, 2*sigma] (k >= 2), so q = fl(s - sigma) is
      exact (Sterbenz), a multiple of u*sigma, as every float from
      sigma/2 up is, and |q| <= 2**e.
    * r = x - q is exact: |r| <= |x| and q is a multiple of x's unit in
      the last place, so r is such a multiple below 2**53 of them.
    * Every sum of some of the q is a multiple of u*sigma below
      n * 2**e < sigma = 2**53 * u*sigma in size: a float.  So
      ``np.add.reduceat`` adds the q exactly, in whatever order it adds.
      Subnormal x change nothing: every float is a multiple of 2**-1074,
      and every such multiple below 2**-1021 is a float.

    So x = sum(q) + r exactly, sum(q) goes to the parts, and the next
    pass works on r, with |r| <= 2**(e+k-53): each pass takes 52 - k
    bits off the top, and a block of 65536 terms in one binade is done
    in two.  After four passes a nonzero remainder joins the parts as
    it is.  A segment with a non-finite term, or one so large that
    sigma overflows, is its own parts, so ``math.fsum`` keeps its
    inf, nan, ValueError and OverflowError.
    """
    x = np.asarray(values, dtype=np.float64)
    sizes = np.array([x.size]) if sizes is None else np.asarray(sizes, dtype=np.int64)
    parts = [[] for _ in range(sizes.size)]
    live = np.flatnonzero(sizes)  # reduceat would read an empty segment as its next term
    starts, n = (np.cumsum(sizes) - sizes)[live], sizes[live]
    k = np.frexp(n + 1.0)[1]  # 2**k >= n + 2
    top = np.maximum.reduceat(np.abs(x), starts) if live.size else np.zeros(0)
    raw = ~np.isfinite(top) | (np.frexp(top)[1] + k > 1023)
    if raw.any():
        x = x.copy()
        for j in np.flatnonzero(raw).tolist():
            segment = slice(starts[j], starts[j] + n[j])
            parts[live[j]] = x[segment].tolist()
            x[segment] = 0.0
        top[raw] = 0.0
    sums = []
    for _ in range(4):
        if not top.any():
            break
        sigma = np.ldexp(1.0, np.frexp(top)[1] + k)
        sigma = np.repeat(sigma, n) if sigma.size > 1 else sigma
        q = x + sigma
        q -= sigma
        sums.append(np.add.reduceat(q, starts).tolist())
        x = np.subtract(x, q, out=q)
        top = np.maximum.reduceat(np.abs(x), starts)
    for j, segment_sums in zip(live.tolist(), zip(*sums)):
        parts[j] += segment_sums
    for j in np.flatnonzero(top).tolist():
        rest = x[starts[j]:starts[j] + n[j]]
        parts[live[j]] += rest[rest != 0.0].tolist()
    return parts


def compensated_cumsum(values, axis: int = 0, out: np.ndarray | None = None, carry: list | None = None) -> np.ndarray:
    """Running sums of ``values`` along ``axis``, each as if summed in twice the working precision.

    The cumulative form of Sum2 (Ogita, Rump & Oishi, "Accurate sum and
    dot product", SIAM J. Sci. Comput. 26(6), 2005): a plain float64
    cumsum ``p``, plus the running sum of the exact error of each of its
    additions.  ``np.cumsum`` adds in sequence (the tests check this), so
    ``p[i]`` is fl(p[i-1] + x[i]) and TwoSum's error is read off it:
    ``(p[i-1] - (p[i] - bv)) + (x[i] - bv)`` with ``bv = p[i] - p[i-1]``.
    A plain cumsum loses the slowly-shrinking tail of a long series
    (here, million-term length sums whose increments decay like 1/k);
    the compensated prefixes stay accurate to about an ulp.

    The work runs in blocks of about _SUM2_BLOCK elements along ``axis``,
    each block starting from the plain sum and the error sum that the
    last one ended with, so the result has the bits of a single pass,
    the temporaries stay cache-sized, and ``out`` may be ``values``
    itself.  Every step is elementwise or a cumsum along ``axis``, so each
    line of a 2-D array gets the bits of the 1-D call on that line.
    ``carry``, a list, carries the same two sums from call to call: the
    sums start from the two it holds (from zero if it is empty), and it
    is left holding the two at the end.  So consecutive blocks of a
    series, each passed with the same list, get the bits of one call on
    the whole series.
    """
    x = np.asarray(values, dtype=np.float64).swapaxes(0, axis)
    result = np.empty(np.shape(values)) if out is None else out
    p = result.swapaxes(0, axis)
    total, error = carry or (np.zeros(x.shape[1:]),) * 2
    step = max(1, _SUM2_BLOCK // max(1, math.prod(x.shape[1:])))
    for start in range(0, x.shape[0], step):
        block = x[start:start + step]
        sums = np.cumsum(np.concatenate((total[None], block)), axis=0)
        bv = sums[1:] - sums[:-1]
        err = sums[1:] - bv
        np.subtract(sums[:-1], err, out=err)
        np.subtract(block, bv, out=bv)
        err += bv
        err[0] += error
        np.cumsum(err, axis=0, out=err)
        total, error = sums[-1], err[-1]
        np.add(sums[1:], err, out=p[start:start + step])
    if carry is not None:
        carry[:] = total, error
    return result


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


def _legendre_pair(n: int, x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, in the current decimal context."""
    prev, cur = decimal.Decimal(1), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], cached per order.

    Built in the standard library's software decimal arithmetic, so the
    rule depends neither on the numpy release nor on the platform's
    floating point.  Newton's method on the three-term recurrence, run
    at 40 significant digits, finds each nonnegative node x; with
    N = n*(P_{n-1}(x) - x*P_n(x)) = (1 - x**2)*P_n'(x), the Newton step
    is P_n*(1 - x**2)/N and the weight is 2*(1 - x**2)/N**2, taken at
    the last iterate, less than 1e-30 from the node.  Each node
    and weight is rounded to float64 once, which makes them correctly
    rounded at every order the tests check against a 50-digit rule; the
    negative half mirrors the positive half exactly.
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
    x, w = np.array(x_half), np.array(w_half)

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


def product_rule(breakpoints: np.ndarray, degree, log_integrand, nodes: int | None = None):
    """Nodes, weights, node count q and segment map for a product of positive piecewise-linear factors.

    ``degree`` is the product's degree on each segment of the ascending
    ``breakpoints`` (or one for all).  q = min(ceil((max degree + 1)/2),
    MAX_NODES) nodes, or ``nodes`` uncapped, are exact on a segment of
    degree <= 2q - 1.  A segment of higher degree is cut into ceil(L)
    equal pieces, L being the absolute drop across it of ``log_integrand``
    (the log of the product, called on the breakpoints only then).  A
    product of positive linear factors has a concave log, so a monotone
    product's heaviest piece (the first if it decreases, the last if it
    increases) changes by at most 1 in log, where q nodes are at
    roundoff; every other piece is smaller by the drop between them.
    The nodes come q per piece; the segment map holds each piece's segment.
    """
    q = min(math.ceil((np.max(degree) + 1) / 2), MAX_NODES) if nodes is None else int(nodes)
    high = np.asarray(degree) > 2 * q - 1
    if not high.any():
        return (*segmented_gauss_legendre(breakpoints, q), q, np.arange(breakpoints.size - 1))
    drop = np.abs(np.diff(log_integrand(breakpoints)))
    pieces = np.where(high, np.maximum(np.ceil(drop), 1.0), 1.0).astype(np.int64)
    seg = np.repeat(np.arange(pieces.size), pieces)
    offset = np.arange(seg.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    edges = np.append(breakpoints[seg] + np.diff(breakpoints)[seg] * offset / pieces[seg], breakpoints[-1])
    return (*segmented_gauss_legendre(edges, q), q, seg)
