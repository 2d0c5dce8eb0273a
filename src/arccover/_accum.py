"""Compensated sums (Sum2 prefixes, log-sum-exp), the Gauss-Legendre rule, and the product rule.

The Gauss-Legendre rules of orders 1..MAX_NODES, the only ones the
product rule uses, are constants; the tests build them again at 40
digits (``conftest.built_gauss_legendre``) and compare every bit.
"""

from __future__ import annotations

import math

import numpy as np

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


def compensated_cumsum(values, out: np.ndarray | None = None, carry: list | None = None) -> np.ndarray:
    """Running sums of ``values`` along axis 0, each as if summed in twice the working precision.

    The cumulative form of Sum2 (Ogita, Rump & Oishi, "Accurate sum and
    dot product", SIAM J. Sci. Comput. 26(6), 2005): a plain float64
    cumsum ``p``, plus the running sum of the exact error of each of its
    additions.  ``np.cumsum`` adds in sequence (the tests check this), so
    ``p[i]`` is fl(p[i-1] + x[i]) and TwoSum's error is read off it:
    ``(p[i-1] - (p[i] - bv)) + (x[i] - bv)`` with ``bv = p[i] - p[i-1]``.
    A plain cumsum loses the slowly-shrinking tail of a long series
    (here, million-term length sums whose increments decay like 1/k);
    the compensated prefixes stay accurate to about an ulp.

    The work runs in blocks of about _SUM2_BLOCK elements along axis 0,
    each block starting from the plain sum and the error sum that the
    last one ended with, so the result has the bits of a single pass,
    the temporaries stay cache-sized, and ``out`` may be ``values``
    itself.  Every step is elementwise or a cumsum along axis 0, so each
    column of a 2-D array gets the bits of the 1-D call on that column.
    ``carry``, a list, carries the same two sums from call to call: the
    sums start from the two it holds (from zero if it is empty), and it
    is left holding the two at the end.  So consecutive blocks of a
    series, each passed with the same list, get the bits of one call on
    the whole series.
    """
    x = np.asarray(values, dtype=np.float64)
    result = np.empty(x.shape) if out is None else out
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
        np.add(sums[1:], err, out=result[start:start + step])
    if carry is not None:
        carry[:] = total, error
    return result


# The benchmark's tracer (bench/tracing.py) times this layer under its old name.
kahan_cumsum = compensated_cumsum


def log_sum_exp(log_terms: np.ndarray, weights: np.ndarray) -> float:
    """log(sum(weights * exp(log_terms))) for positive weights, without overflow.

    Shifted by the largest log-term, whose weights are split off, so the
    rest enters through log1p.  Blanchard, Higham & Higham ("Accurately
    computing the log-sum-exp and softmax functions", IMA J. Numer.
    Anal. 41(4), 2021) shift by and split off the largest *weighted* term
    instead, so a tiny weight on the top log-term defeats this form:
    ``product_integral([c, c/2, c/3], 0.25)`` is 17 ulps low for c = 1e-17
    and 1e-300 and inf for c = 1e-320 (``TestMonotoneBracket``'s strict
    xfails).  Their form moves document bytes; it waits for a golden refresh.
    """
    top = log_terms.max()
    at_top = log_terms == top
    m = np.sum(weights * at_top)
    s = np.sum(weights * np.exp(np.where(at_top, -np.inf, log_terms - top))) / m
    return float(np.log1p(s) + np.log(m) + top)


def _mirrored(order: int, x_half, w_half) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``order``-point rule from its nonnegative nodes, largest first, and their weights.

    The negative half mirrors the positive half exactly.
    """
    half = order // 2
    x, w = np.array(x_half), np.array(w_half)
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# The Gauss-Legendre rules of orders 1..MAX_NODES: per order, the
# nonnegative nodes, largest first, and their weights, each correctly
# rounded.  They are the repr of the output of the tests' 40-digit Newton
# builder, conftest.built_gauss_legendre, so they read back to its bits;
# a test compares every rule with it bit for bit.
_GL_HALVES = (
    ((0.0,),
     (2.0,)),
    ((0.5773502691896257,),
     (1.0,)),
    ((0.7745966692414834, 0.0),
     (0.5555555555555556, 0.8888888888888888)),
    ((0.8611363115940526, 0.33998104358485626),
     (0.34785484513745385, 0.6521451548625461)),
    ((0.906179845938664, 0.5384693101056831, 0.0),
     (0.23692688505618908, 0.47862867049936647, 0.5688888888888889)),
    ((0.932469514203152, 0.6612093864662645, 0.2386191860831969),
     (0.17132449237917036, 0.3607615730481386, 0.46791393457269104)),
    ((0.9491079123427585, 0.7415311855993945, 0.4058451513773972, 0.0),
     (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)),
    ((0.9602898564975363, 0.7966664774136267, 0.525532409916329, 0.1834346424956498),
     (0.10122853629037626, 0.22238103445337448, 0.31370664587788727, 0.362683783378362)),
    ((0.9681602395076261, 0.8360311073266358, 0.6133714327005904, 0.3242534234038089, 0.0),
     (0.08127438836157441, 0.1806481606948574, 0.26061069640293544, 0.31234707704000286, 0.3302393550012598)),
    ((0.9739065285171717, 0.8650633666889845, 0.6794095682990244, 0.4333953941292472, 0.14887433898163122),
     (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635, 0.29552422471475287)),
    ((0.978228658146057, 0.8870625997680953, 0.7301520055740494, 0.5190961292068118, 0.26954315595234496, 0.0),
     (0.05566856711617366, 0.1255803694649046, 0.18629021092773426, 0.23319376459199048, 0.26280454451024665,
      0.2729250867779006)),
    ((0.9815606342467192, 0.9041172563704749, 0.7699026741943047, 0.5873179542866175, 0.3678314989981802,
      0.1252334085114689),
     (0.04717533638651183, 0.10693932599531843, 0.16007832854334622, 0.20316742672306592, 0.2334925365383548,
      0.24914704581340277)),
)
_GL_RULES = {order: _mirrored(order, *halves) for order, halves in enumerate(_GL_HALVES, start=1)}


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: the same read-only arrays on every call.

    Orders 1..MAX_NODES, each node and weight correctly rounded (the
    tests check them against a 50-digit rule); any other order is a
    ValueError.
    """
    if order not in _GL_RULES:
        raise ValueError(f"quadrature order must be in 1..{MAX_NODES}, got {order}")
    return _GL_RULES[order]


def segmented_gauss_legendre(breakpoints, rule: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flattened nodes and weights of the ``(nodes, weights)`` rule on [-1, 1] mapped to every segment.

    Segments are the consecutive pairs of the ascending ``breakpoints``;
    the result lists each segment's nodes in ascending order.
    """
    lo, hi = breakpoints[:-1], breakpoints[1:]
    xg, wg = rule
    x = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * xg).ravel()
    w = (0.5 * (hi - lo)[:, None] * wg).ravel()
    return x, w


def product_rule(breakpoints: np.ndarray, degree, log_integrand):
    """Nodes, weights, node count q and segment map for a product of positive piecewise-linear factors.

    ``degree`` is the product's degree on each segment of the ascending
    ``breakpoints`` (or one for all).  q = min(ceil((max degree + 1)/2),
    MAX_NODES) nodes are exact on a segment of degree <= 2q - 1.  A
    segment of higher degree is cut into ceil(L) equal pieces, L being
    the absolute drop across it of ``log_integrand`` (the log of the
    product, called on the breakpoints only then).  A product of
    positive linear factors has a concave log, so a monotone product's
    heaviest piece (the first if it decreases, the last if it increases)
    changes by at most 1 in log, where q nodes are at roundoff; every
    other piece is smaller by the drop between them.  The nodes come q
    per piece; the segment map holds each piece's segment.
    """
    q = min(math.ceil((np.max(degree) + 1) / 2), MAX_NODES)
    rule = gauss_legendre(q)
    high = np.asarray(degree) > 2 * q - 1
    if not high.any():
        return (*segmented_gauss_legendre(breakpoints, rule), q, np.arange(breakpoints.size - 1))
    drop = np.abs(np.diff(log_integrand(breakpoints)))
    pieces = np.where(high, np.maximum(np.ceil(drop), 1.0), 1.0).astype(np.int64)
    seg = np.repeat(np.arange(pieces.size), pieces)
    offset = np.arange(seg.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    edges = np.append(breakpoints[seg] + np.diff(breakpoints)[seg] * offset / pieces[seg], breakpoints[-1])
    return (*segmented_gauss_legendre(edges, rule), q, seg)
