"""Product integrals of arc-avoidance factors, growth bounds, and the covering criterion.

The central object is the factor

    f_l(t) = (1 - l - min(l, t)) / (1 - l)**2,

the probability that an arc of length ``l`` with uniform position
misses two fixed points at circular distance ``t``, normalized by the
squared single-point avoidance probability.  This module evaluates

* the closed-form integral of one factor over [0, eps], one formula
  (``_factor_integrals``) that the certificate's head shares,
* the product integral  I_n = integral_0^eps  prod_k f_{l_k}(t) dt
  to roundoff by ``_accum.product_rule``, shared with ``chebyshev``, on
  the distinct lengths below eps: exact up to degree 23, and a 12-node
  rule on short pieces above it.  Its O(n) points cost O(n) work each by
  the direct sum, or O(P) each by power sums about a few centres, P
  about 16, whichever costs less,
* the Chebyshev-route lower bound  eps**(1-n) * prod_k integral(f_{l_k})
  and its certificate decomposition through the growth function

      g_eps(x) = (x**2/2 + eps - 2*eps*x) / (eps * (1 - x)**2),

  which satisfies g_eps(x) = integral(f_x)/eps for x < eps and
  g_eps(x) - 1 = x**2 * (1 - 2*eps) / (2*eps*(1 - x)**2) >= 0 for
  eps <= 1/2, so the certificate grows without bound whenever
  sum(l_k**2) diverges.  The library forms g_eps only as log g_eps, by
  this identity (``_log_g``), and only on the bound path,
* Shepp's covering criterion series  sum_n n**(-2) * exp(l_1 + ... + l_n).

Cumulative sums (length prefixes, flat-factor and power-sum prefixes)
are compensated with the cumulative form of Sum2
(``_accum.compensated_cumsum``); the certificate's tail sum is the
correctly rounded ``math.fsum`` of its exact parts (``_accum.exact_parts``).

The quadrature, both bounds and ``divergence_table`` check the window
0 < eps < 1 - l_1, where every factor is positive on [0, eps]
(``_check_window``).  The certificates of ``shepp_lower_bound`` and
``divergence_table`` also check the bound path eps < 1/2, where every
tail term log g_eps(l_k) is nonnegative (``_check_bound_path``).

All reals are 64-bit floats and all log values are natural logs.
Everything is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accum import MAX_NODES, compensated_cumsum, exact_parts, log_sum_exp, product_rule
from .sequences import LengthSequence, as_lengths, blocks, generate

# Both ways of evaluating the log-integrand, the certificate and the criterion
# series work in chunks that bound peak memory; a block of at most 512 KiB
# also stays in cache through the passes over it.
_CHUNK_ELEMENTS = 1 << 16

# The centred expansion keeps every |x - c| / r at most _RHO and cuts each
# factor's series after _ORDER terms, where its geometric tail
# _RHO**(_ORDER+1) / (1 - _RHO) is below 2**-53.
_RHO = 0.1
_ORDER = next(p for p in range(1, 64) if _RHO ** (p + 1) / (1.0 - _RHO) < 2.0**-53)

# The costs that choose between the two ways, in units of one active term of
# the direct sum (minimum, subtract, divide, log1p, sum: about 8 ns on a
# 2-core x86-64 VM).  One prefix term of the expansion costs 5, since its
# Sum2 runs two cumsums, which add in sequence; one coefficient of one point
# costs 0.5 (gather, multiply, add); the expansion's fixed cost, some 80 more
# numpy calls, is 20000.
_PREFIX_COST = 5
_COEFFICIENT_COST = 0.5
_EXPANSION_SETUP = 20000

# divergence_table's (and --quadrature-cap's) default largest n for quadrature.
DEFAULT_QUADRATURE_CAP = 10_000


@dataclass(frozen=True)
class QuadratureResult:
    """Value and log-value of a product integral, with quadrature metadata.

    ``segment_count`` counts the quadrature pieces (breakpoint segments,
    some cut into equal sub-segments), so ``segment_count *
    nodes_per_segment`` counts the quadrature nodes; when a segment is
    cut, the breakpoints are evaluated as well, to size its pieces.
    """

    value: float
    log_value: float
    segment_count: int
    nodes_per_segment: int


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Decomposition bound_log = log_C + sum_{k>m} log g_eps(l_k).

    ``log_C`` collects the finitely many head factors with l_k >= eps
    (C does not depend on n); ``g_log_sum`` is a sum of nonnegative
    terms for eps < 1/2 and is therefore nondecreasing in n.
    """

    m: int
    log_C: float
    g_log_sum: float
    bound_log: float


@dataclass(frozen=True)
class DivergenceRow:
    """One checkpoint of a divergence table.

    ``log_product_integral`` is None when the checkpoint exceeds the
    quadrature cap; the lower bound is always reported.
    """

    n: int
    log_product_integral: float | None
    bound_log: float
    g_log_sum: float


@dataclass(frozen=True)
class CriterionSeries:
    """Partial sums of the covering criterion series, carried in both scales.

    ``partial_log_terms[n-1]`` is ``l_1 + ... + l_n - 2*log(n)``;
    ``log_partial_sums`` accumulates them with log-sum-exp so the series
    stays meaningful after ``partial_sums`` overflows to inf.
    """

    partial_log_terms: np.ndarray
    log_partial_sums: np.ndarray
    partial_sums: np.ndarray


# ---------------------------------------------------------------------------
# single factors

def pair_factor_eval(l: float, t: float) -> float:
    """Evaluate f_l(t) = (1 - l - min(l, t)) / (1 - l)**2.

    Nonincreasing in t, constant for t >= l, and bounded below by
    (1 - l1 - eps)/(1 - l)**2 > 0 on [0, eps] whenever eps < 1 - l1.
    """
    l = float(l)
    t = float(t)
    if not 0.0 < l < 1.0:
        raise ValueError(f"arc length must lie in (0, 1), got {l}")
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    numerator = 1.0 - l - min(l, t)
    if numerator <= 0.0:
        raise ValueError(f"factor is nonpositive at t={t} for l={l} (t too large for this arc)")
    return numerator / (1.0 - l) ** 2


def pair_factor_integral(l: float, eps: float) -> float:
    """Exact integral of f_l over [0, eps].

    For l < eps the direct calculation gives
    (l**2/2 + eps - 2*eps*l) / (1 - l)**2; for l >= eps the factor is
    linear on the whole window and integrates to
    (eps*(1 - l) - eps**2/2) / (1 - l)**2.
    """
    l = float(l)
    eps = float(eps)
    if not 0.0 < l < 1.0:
        raise ValueError(f"arc length must lie in (0, 1), got {l}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if 1.0 - l - min(l, eps) <= 0.0:
        raise ValueError(f"factor is nonpositive on [0, {eps}] for l={l}")
    return _factor_integrals([l], eps)[0]


def _factor_integrals(ls: list[float], eps: float) -> list[float]:
    """``pair_factor_integral`` of each length of the list ``ls``, unchecked."""
    half_eps_sq = 0.5 * eps * eps
    return [(0.5 * l * l + eps - 2.0 * eps * l if l < eps else eps * (1.0 - l) - half_eps_sq) / (1.0 - l) ** 2
            for l in ls]


# ---------------------------------------------------------------------------
# product integral

class _LogIntegrand:
    """log prod_k f_{l_k}(x) at points x of [0, eps], by whichever of two ways costs less.

    At x the factors with l_k <= x are flat: ``flat[j]`` is the
    compensated sum of their constants log1p(-(l/(1 - l))**2) over the j
    smallest lengths.  The d factors of the d largest lengths are active,
    each log1p((l - l**2 - x)/(1 - l)**2).

    ``direct`` sums the d active terms at every point.  ``expanded``
    writes each as log1p((l - l**2 - c)/(1 - l)**2) + log(1 - (x - c)/r),
    with c the nearest of k centres and r = 1 - l - c, and cuts the
    series of the second log after P = _ORDER terms.  The active sum is
    then A_c[d] - sum_p u**p * S_{p,c}[d] with u = (x - c)/h, h half the
    centre spacing: A_c and S_{p,c} are prefix sums over the lengths of
    the first log and of (h/r)**p / p.  This is the 1-D analogue of the
    multipole expansion (Greengard & Rokhlin, J. Comput. Phys. 73, 1987).

    A call costs sum(d) term evaluations the direct way, and P + 1
    coefficients a point the expanded way, plus the k*(P + 1)*n prefix
    terms the first time; it takes the cheaper, at the weights above.
    ``ahead`` counts further calls of as many points that will follow
    and may reuse the prefixes: the product rule's nodes, after it
    evaluates the breakpoints.
    """

    def __init__(self, lengths: np.ndarray, eps: float):
        self.lengths, self.n = lengths, lengths.size
        self.ascending = lengths[::-1]
        # Each active factor is log1p((head - x) / scale), in both ways.
        self.head = lengths - lengths * lengths
        self.scale = np.square(1.0 - lengths)
        # Only lengths <= eps are ever flat on the window, and those are below
        # 1/2 (eps < 1 - l_1), where log1p(-(l/(1 - l))**2) is finite.
        small = self.ascending[:np.count_nonzero(lengths <= eps)]
        self.flat = np.concatenate(([0.0], compensated_cumsum(np.log1p(-np.square(small / (1.0 - small))))))
        # 0, the distinct lengths below eps, and eps: segments of positive
        # width, with the integrand one polynomial on each.  (np.unique would
        # import numpy.ma, some 15 ms, on its first call in a process.)
        below = self.ascending[:np.count_nonzero(lengths < eps)]
        self.breakpoints = np.concatenate(([0.0], below[:1], below[1:][below[1:] != below[:-1]], [eps]))
        self.degree = self.active(self.breakpoints[:-1])
        # k centres (i + 1/2) * 2h with h <= _RHO * (1 - l_1 - eps), the least
        # r of any factor, so |x - c| / r <= _RHO for the nearest centre c.
        l1 = float(lengths[0]) if self.n else 0.0
        self.centres = math.ceil(eps / (2.0 * _RHO * (1.0 - l1 - eps)))
        self.spacing = eps / self.centres
        self.prefixes = None

    def active(self, x: np.ndarray) -> np.ndarray:
        """The number d of active factors, l_k > x, at each point."""
        return self.n - np.searchsorted(self.ascending, x, side="right")

    def __call__(self, x: np.ndarray, ahead: int = 0) -> np.ndarray:
        """The log-integrand at the points ``x``, the cheaper way."""
        repeat = 1 + ahead
        cost = repeat * _COEFFICIENT_COST * (_ORDER + 1) * x.size
        if self.prefixes is None:
            cost += _EXPANSION_SETUP + _PREFIX_COST * self.centres * (_ORDER + 1) * self.n
        # n a point bounds the direct cost, and saves counting d for short sequences.
        if repeat * self.n * x.size > cost and repeat * self.active(x).sum() > cost:
            return self.expanded(x)
        return self.direct(x)

    def direct(self, x: np.ndarray) -> np.ndarray:
        """The log-integrand at the ascending points ``x`` term by term, in cache-sized chunks.

        A chunk evaluates the d factors active at its first point; the
        min turns a factor that goes flat inside the chunk into its
        constant.
        """
        lengths, head, scale = self.lengths, self.head, self.scale
        out = np.empty_like(x)
        start = 0
        while start < x.size:
            d = int(self.active(x[start]))
            stop = start + max(1, _CHUNK_ELEMENTS // max(d, 1))
            block = np.minimum(lengths[:d], x[start:stop, None])
            np.subtract(head[:d], block, out=block)
            block /= scale[:d]
            np.log1p(block, out=block)
            out[start:stop] = block.sum(axis=1) + self.flat[self.n - d]
            start = stop
        return out

    def expanded(self, x: np.ndarray) -> np.ndarray:
        """The log-integrand at the points ``x`` by the centred expansion, in cache-sized chunks."""
        if self.prefixes is None:
            self.prefixes = self._build_prefixes()
        h = 0.5 * self.spacing
        out = np.empty_like(x)
        # Half the direct sum's block, as the prefix table is held as well.
        step = _CHUNK_ELEMENTS // (2 * (_ORDER + 1))
        for start in range(0, x.size, step):
            t = x[start:start + step]
            d = self.active(t)
            c = np.minimum((t / self.spacing).astype(np.intp), self.centres - 1)
            u = (t - (c + 0.5) * self.spacing) / h
            coef = self.prefixes[d, c]
            poly = coef[:, _ORDER] * u
            for p in range(_ORDER - 1, 0, -1):
                poly += coef[:, p]
                poly *= u
            out[start:start + step] = self.flat[self.n - d] + coef[:, 0] - poly
        return out

    def _build_prefixes(self) -> np.ndarray:
        """prefixes[d, i] = (A, S_1, ..., S_P) of centre i over the d largest lengths: one 2-D Sum2.

        Plain cumsum prefixes would move log I_n by some 6e-12 at n = 2*10**4.
        """
        centres = (np.arange(self.centres) + 0.5) * self.spacing
        terms = np.zeros((self.n + 1, self.centres, _ORDER + 1))
        first = terms[1:, :, 0]
        np.subtract(self.head[:, None], centres, out=first)
        first /= self.scale[:, None]
        np.log1p(first, out=first)
        ratio = 0.5 * self.spacing / (1.0 - self.lengths[:, None] - centres)
        power = ratio.copy()
        for p in range(1, _ORDER + 1):
            np.divide(power, p, out=terms[1:, :, p])
            power *= ratio
        return compensated_cumsum(terms, out=terms)


def product_integral(lengths, eps: float) -> QuadratureResult:
    """Integrate prod_k f_{l_k}(t) over [0, eps] to roundoff accuracy.

    On a breakpoint segment [a, b] the factors with l_k <= a are
    constants and the d factors with l_k > a make the integrand a
    polynomial of degree d, integrated by ``_accum.product_rule``: at
    most MAX_NODES = 12 nodes, exact for n <= 23, on pieces sized by the
    log-drop above.  Values are exp(sum of logs), combined by
    log-sum-exp, so ``log_value`` stays accurate when ``value`` overflows.

    The O(n) points cost O(n) work each by the direct sum, or O(P) each
    after O(k*P*n) prefix sums by the centred expansion of
    ``_LogIntegrand``, P about 16 and k the centres, a handful unless
    the roots 1 - l_k come close to the window.  Each call of the
    log-integrand takes the cheaper: the direct sum for a few dozen
    lengths, the expansion from a few hundred.
    """
    lengths = as_lengths(lengths)
    eps = _check_window(lengths, eps)
    log_integrand = _LogIntegrand(lengths, eps)
    x, w, nodes, seg = product_rule(log_integrand.breakpoints, log_integrand.degree,
                                    lambda t: log_integrand(t, MAX_NODES))
    if lengths.size == 0:
        return QuadratureResult(value=eps, log_value=math.log(eps), segment_count=1, nodes_per_segment=nodes)

    log_value = log_sum_exp(log_integrand(x), w)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
    return QuadratureResult(value=value, log_value=log_value, segment_count=seg.size, nodes_per_segment=nodes)


# ---------------------------------------------------------------------------
# the lower-bound chain

def _log_g(x: np.ndarray, eps: float) -> np.ndarray:
    # log g by the exact identity g - 1 = x^2 (1-2 eps) / (2 eps (1-x)^2), whose
    # log1p keeps each term exactly nonnegative for eps <= 1/2.
    ratio, den = x * x * (1.0 - 2.0 * eps), 1.0 - x
    den *= den
    den *= 2.0 * eps
    ratio /= den
    return np.log1p(ratio, out=ratio)


def _certificates(source, eps: float, stops) -> list[LowerBoundCertificate]:
    """The certificate of the first n lengths of ``source`` for each n of the ascending ``stops``.

    One pass over ``sequences.blocks(source, stops)``, so no temporary
    holds all the lengths and each is made once, whatever the stops.
    """
    # A tail length's integral(f_l) = eps * g_eps(l): its eps cancels one of
    # eps**(1-n) before any rounding, so only the m head terms keep theirs.
    # Lengths are nonincreasing, so the head, l >= eps, leads.  Each block's
    # tail terms become a few parts of the same exact sum, so the fsum of the
    # parts so far has the bits of the fsum of every tail term so far.
    log_eps = math.log(eps)
    head, parts = [], []

    def row() -> LowerBoundCertificate:
        log_c = (1.0 - len(head)) * log_eps + math.fsum(head)
        g_log_sum = math.fsum(parts)
        return LowerBoundCertificate(m=len(head), log_C=log_c, g_log_sum=g_log_sum, bound_log=log_c + g_log_sum)

    rows = [row() for n in stops if n == 0]
    for end, block in blocks(source, stops, _CHUNK_ELEMENTS):
        m = int(np.count_nonzero(block >= eps))
        # The head lengths are checked against the window already.
        head += map(math.log, _factor_integrals(block[:m].tolist(), eps))
        parts += exact_parts(_log_g(block[m:], eps))[0]
        if end == stops[len(rows)]:
            rows.append(row())
    return rows


def _check_window(lengths: np.ndarray, eps: float) -> float:
    """``eps`` as a float, checked to satisfy 0 < eps < 1 - l_1 for nonincreasing ``lengths``."""
    eps = float(eps)
    upper = 1.0 - float(lengths[0]) if lengths.size else 1.0
    if not 0.0 < eps < upper:
        raise ValueError(f"eps must satisfy 0 < eps < 1 - l1 = {upper}; got {eps}")
    return eps


def _check_bound_path(eps: float) -> None:
    if eps >= 0.5:
        raise ValueError(f"lower-bound path requires eps < 1/2 (growth coefficient must be positive); got {eps}")


def chebyshev_lower_bound(lengths, eps: float) -> float:
    """eps**(1-n) * prod_k integral(f_{l_k}): exp of the certificate's bound_log.

    By the Chebyshev-type integral inequality for commonly monotone
    positive functions this bounds the product integral from below.
    Returns inf past float64's range, and eps for empty input,
    consistent with the empty product.
    """
    lengths = as_lengths(lengths)
    eps = _check_window(lengths, eps)
    if lengths.size == 0:
        return eps
    with np.errstate(over="ignore"):
        return float(np.exp(_certificates(lengths, eps, [lengths.size])[0].bound_log))


def shepp_lower_bound(lengths, eps: float) -> LowerBoundCertificate:
    """Certificate form of the lower bound: C * exp(sum_{k>m} log g_eps(l_k)).

    m counts the leading terms with l_k >= eps, so
    log_C = (1 - m)*log(eps) + sum_{k<=m} log integral(f_{l_k}) depends
    only on finitely many terms, and every g_log_sum increment is
    nonnegative because eps < 1/2.  bound_log equals
    log(chebyshev_lower_bound) identically.
    """
    lengths = as_lengths(lengths)
    eps = _check_window(lengths, eps)
    _check_bound_path(eps)
    return _certificates(lengths, eps, [lengths.size])[0]


def divergence_table(
    seq: LengthSequence,
    eps: float,
    checkpoints,
    *,
    quadrature_cap: int = DEFAULT_QUADRATURE_CAP,
) -> list[DivergenceRow]:
    """Lower-bound certificates (and exact quadrature where affordable) at checkpoints.

    ``log_product_integral`` is evaluated only for n <= quadrature_cap:
    quadrature costs O(n) points of O(P) work each after O(k*P*n) prefix
    sums (see ``product_integral``), 0.06 s at n = 10**4 for the README
    sequence on a 2-core x86-64 VM.  The certificate costs O(n) and is always
    reported; one pass generates the lengths a block at a time, to the last
    checkpoint, so its memory does not grow with n.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if any(c < 0 for c in checkpoints):
        raise ValueError("checkpoints must be nonnegative")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    eps = _check_window(generate(seq, 1), eps)

    n_max = checkpoints[-1]
    if n_max >= 1:
        generate(seq, n_max, start=n_max - 1)  # the smallest term: raises if it underflows
    _check_bound_path(eps)
    n_quad = max((n for n in checkpoints if n <= quadrature_cap), default=0)
    lengths = generate(seq, n_quad) if n_quad >= 1 else np.empty(0)
    rows = []
    for n, cert in zip(checkpoints, _certificates(seq, eps, checkpoints)):
        if n <= quadrature_cap:
            log_pi = product_integral(lengths[:n], eps).log_value
        else:
            log_pi = None
        rows.append(DivergenceRow(n=n, log_product_integral=log_pi,
                                  bound_log=cert.bound_log, g_log_sum=cert.g_log_sum))
    return rows


# ---------------------------------------------------------------------------
# covering criterion series

def criterion_partial_sums(seq: LengthSequence, N: int, checkpoints=None) -> CriterionSeries:
    """Partial sums S_N of sum_n n**(-2) * exp(l_1 + ... + l_n).

    Length prefixes are accumulated with the cumulative form of Sum2
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26(6), 2005) and the
    series itself with log-sum-exp, so the slow sum(l_k**2)-driven
    growth is not lost to roundoff over as many as 1e6 terms.  The
    plain-scale partial sums overflow to inf where exp does; the log
    scale stays exact.

    The series runs in blocks of ``sequences.blocks``, each carrying
    Sum2's two sums and the last log partial sum into the next, so every
    row has the bits of one pass over all N terms.  With ``checkpoints``,
    ascending n in 1..N, only their rows are kept, and memory does not
    grow with N.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    whole = checkpoints is None
    stops = [N] if whole else [int(n) for n in checkpoints]
    if any(not 1 <= n <= N for n in stops) or any(b <= a for a, b in zip(stops, stops[1:])):
        raise ValueError(f"checkpoints must be strictly ascending and lie in 1..N = {N}")
    generate(seq, N, start=N - 1)  # the last term: raises as generate(seq, N) would
    size = N if whole else len(stops)
    log_terms, log_sums = np.empty(size), np.empty(size)
    carry, last, row = [], np.empty(0), 0
    for end, block in blocks(seq, stops, _CHUNK_ELEMENTS):
        start = end - block.size
        terms = compensated_cumsum(block, out=log_terms[start:end] if whole else block, carry=carry)
        log_n = np.log(np.arange(start + 1, end + 1, dtype=np.float64))
        terms -= np.multiply(2.0, log_n, out=log_n)
        sums = np.logaddexp.accumulate(np.concatenate((last, terms)))[last.size:]
        last = sums[-1:]
        if whole:
            log_sums[start:end] = sums
        elif end == stops[row]:
            log_terms[row], log_sums[row] = terms[-1], sums[-1]
            row += 1
    with np.errstate(over="ignore"):
        partial_sums = np.exp(log_sums)
    return CriterionSeries(partial_log_terms=log_terms, log_partial_sums=log_sums, partial_sums=partial_sums)
