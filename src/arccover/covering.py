"""Monte Carlo model of tossing random arcs on the unit-circumference circle.

Arcs are half-open: an arc at position u with length l covers x iff
(x - u) mod 1 < l.  Ties therefore have measure zero and every coverage
decision is deterministic.

One model of the uncovered set answers every coverage question: it
sorts each replication's arc starts and arc ends apart and sums the
gaps between the k-th end and the (k+1)-th start (``_uncovered_measure``,
the one-dimensional case of Klee's measure problem).
``coverage_probability`` and ``gap_measure_samples`` sweep prefixes of
growing length and drop a replication as soon as a prefix covers the
circle; ``first_cover_index`` bisects on the prefix length.

Reproducibility contract: replication r with master seed s draws its
centres from ``Philox(SeedSequence(entropy=s, spawn_key=(r,)))``, so
results do not depend on the order in which replications run.  The
batched model draws those streams for many replications at once with
:func:`arccover._philox.uniforms`: a prefix that adds at least
``_philox._ROW_DRAW_MIN`` (128) columns fills each row through numpy's
own Philox, set to the row's key, and a shorter one runs the numpy
Philox kernel over all rows at once.  Both give the same bits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._philox import check_seed, uniforms
from .sequences import LengthSequence, generate


@dataclass(frozen=True)
class SimulationResult:
    """Replicated Monte Carlo estimate with its binomial standard error."""

    seed: int
    replications: int
    n_arcs: int
    covered_count: int
    p_hat: float
    std_err: float

    @classmethod
    def from_counts(cls, *, seed: int, replications: int, n_arcs: int, covered_count: int) -> "SimulationResult":
        p = covered_count / replications
        return cls(
            seed=seed,
            replications=replications,
            n_arcs=n_arcs,
            covered_count=covered_count,
            p_hat=p,
            std_err=math.sqrt(p * (1.0 - p) / replications),
        )


# ---------------------------------------------------------------------------
# sort-and-sweep: the uncovered measure from sorted starts and ends

# Pieces (replications x arcs) held at once; bounds the sweep's arrays
# to a few MiB each (the stream kernel works in smaller tiles of its own).
_SWEEP_BUDGET = 1 << 18
# The first prefix swept; each later one is _PREFIX_GROWTH times longer,
# until a prefix would reach n / _PREFIX_GROWTH and the sweep takes all n
# arcs instead.  Re-sorting the prefixes is the price of stopping early;
# this schedule keeps it under a third of one full sweep.
_FIRST_PREFIX = 64
_PREFIX_GROWTH = 4


def _uncovered_measure(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Uncovered measure of each row's arcs; exactly 0.0 iff the row covers the circle.

    Row i's arcs ``[u, u + l)`` enter as their starts u and ends u + l,
    each row sorted ascending on its own, so that S_k and E_k are the
    k-th smallest start and end of m (neither array is written).  Each
    arc is the pieces ``[u, min(u+l, 1))`` and, on wrap,
    ``[0, u+l-1)``.  All wrapped pieces start at 0, so they join
    into one ``[0, reach0)`` with ``reach0 = max(E_m - 1, 0)`` (exact, as
    ``u+l`` lies in [1, 2)).  Taken by start, the (k+1)-th arc leaves the
    gap ``[R_k, S_{k+1})`` past the running maximum R_k of the ends
    before it.  So the gaps are ``[reach0, S_1)``,
    ``[max(E_k, reach0), S_{k+1})`` and ``[E_m, 1)``, where nonempty:
    ``S_{k+1} > R_k`` iff ``S_{k+1} > E_k``, and then ``R_k = E_k``.  For
    E_k <= R_k, the largest of k ends; and if k ends lie below S_{k+1},
    they are those of the k arcs before it, as no end is below its own
    start.  Ends are not clipped to 1: past 1 no start (all < 1) can
    leave a gap.
    Only comparisons decide whether a gap is empty, so the covered flag
    is that of cutting the pieces out of [0, 1) one by one; a positive
    gap makes the sum positive.
    """
    reach0 = np.maximum(ends[:, -1] - 1.0, 0.0)
    terms = np.maximum(ends[:, :-1], reach0[:, None])
    np.subtract(starts[:, 1:], terms, out=terms)
    np.maximum(terms, 0.0, out=terms)
    gaps = np.maximum(starts[:, 0] - reach0, 0.0)
    gaps += terms.sum(axis=1)
    gaps += np.maximum(1.0 - ends[:, -1], 0.0)
    return gaps


def _sweep(lengths: np.ndarray, reps: int, seed: int) -> np.ndarray:
    """Uncovered measure of each replication after all its arcs, as a (reps,) array.

    A replication is done when a prefix of its arcs covers the circle
    (measure 0.0: more arcs cannot uncover it) or when all its arcs have
    been swept.  The measure needs only each row's sorted starts S and
    sorted ends E, not which end belongs to which start: before the
    wrapped pieces are cut out, the gaps are ``[E_k, S_{k+1})`` wherever
    ``S_{k+1} > E_k``, since the k ends below S_{k+1} are then those of
    the k arcs that start before it (``_uncovered_measure``).  So a
    chunk's rows keep one buffer of starts and one of ends, allocated
    once per call.  A prefix draws only the stream columns it adds, into
    the starts, adds their lengths into the ends, and sorts both
    prefixes in place; the rows still active move up to the top.
    """
    n = lengths.size
    rows = min(reps, max(1, _SWEEP_BUDGET // n))
    out = np.empty(reps, dtype=np.float64)
    starts, ends = np.empty((rows, n)), np.empty((rows, n))
    for first in range(0, reps, rows):
        active = np.arange(first, min(reps, first + rows))
        m = 0
        while active.size:
            grown = max(_FIRST_PREFIX, _PREFIX_GROWTH * m)
            grown = n if _PREFIX_GROWTH * grown >= n else grown
            k = active.size
            drawn = uniforms(seed, active, m, grown, out=starts[:k, m:grown])
            np.add(drawn, lengths[m:grown], out=ends[:k, m:grown])
            m = grown
            for buf in starts[:k, :m], ends[:k, :m]:
                buf.sort(axis=1)
            measure = _uncovered_measure(starts[:k, :m], ends[:k, :m])
            done = (measure == 0.0) | (m == n)
            out[active[done]] = measure[done]
            active = active[~done]
            if 0 < active.size < k:
                kept = np.flatnonzero(~done)
                for buf in starts, ends:
                    buf[:active.size, :m] = buf[kept, :m]
    return out


def _first_cover_count(centres: np.ndarray, lengths: np.ndarray) -> int | None:
    """The least k whose first k arcs cover the circle, or None if no prefix covers it.

    Arcs only remove gaps, so whether the first k arcs cover is monotone
    in k: a bisection on k finds the first cover in O(log n) sorts of a
    prefix's starts and ends.
    """
    ends = centres + lengths

    def covers(k: int) -> bool:
        return _uncovered_measure(np.sort(centres[None, :k]), np.sort(ends[None, :k]))[0] == 0.0

    k = bisect.bisect_left(range(1, centres.size + 1), True, key=covers)
    return k + 1 if k < centres.size else None


# Replication r draws from spawn key (r,), one 32-bit entropy word.
_MAX_REPS = 1 << 32


def _check_run_args(n: int, reps: int, seed: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= reps <= _MAX_REPS:
        raise ValueError(f"reps must lie in 1..2**32, got {reps}")
    return check_seed(seed)


def coverage_probability(seq: LengthSequence, n: int, reps: int, seed: int) -> SimulationResult:
    """Fraction of replications whose n arcs cover the circle.

    Each replication owns its RNG substream and contributes one flag to
    a count, so the result does not depend on the order of replications.
    """
    seed = _check_run_args(n, reps, seed)
    covered = int(np.count_nonzero(_sweep(generate(seq, n), reps, seed) == 0.0))
    return SimulationResult.from_counts(seed=seed, replications=reps, n_arcs=n, covered_count=covered)


def gap_measure_samples(seq: LengthSequence, n: int, reps: int, seed: int) -> np.ndarray:
    """Uncovered measure after n arcs, one sample per replication.

    The sample mean estimates prod_k (1 - l_k), the exact expectation of
    the uncovered measure.  Each sample is the float64 sum of its gaps'
    lengths, and exactly 0.0 for a covered circle.
    """
    seed = _check_run_args(n, reps, seed)
    return _sweep(generate(seq, n), reps, seed)


def first_cover_index(seq: LengthSequence, seed: int, n_max: int) -> int | None:
    """First-cover toss count for one replication, or None within n_max tosses.

    Deterministic in (seq, seed, n_max); the centers come from
    replication 0's Philox stream, drawn up front so the answer for a
    smaller n_max is always a prefix-consistent truncation.
    """
    seed = check_seed(seed)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lengths = generate(seq, n_max)
    centers = uniforms(seed, [0], 0, n_max)[0]
    return _first_cover_count(centers, lengths)


# ---------------------------------------------------------------------------
# two-point avoidance

def _check_pair_args(lengths, t: float) -> tuple[np.ndarray, float]:
    # Not sequences.as_lengths: the pair functions accept lengths in any
    # order, and pair_uncovered_mc maps its draws to arcs by position.
    arr = np.asarray(lengths, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("lengths must be a one-dimensional sequence")
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise ValueError("all lengths must lie strictly inside (0, 1)")
    t = float(t)
    upper = 1.0 - float(arr.max()) if arr.size else 1.0
    if not 0.0 < t < upper:
        raise ValueError(
            f"t must satisfy 0 < t < 1 - max(lengths) = {upper} for the product form to "
            f"equal the two-point avoidance probability; got {t}"
        )
    return arr, t


def pair_uncovered_exact(lengths, t: float) -> float:
    """prod_k (1 - l_k - min(l_k, t)): both endpoints of a chord stay uncovered.

    For t < 1 - max(l_k) each factor is the measure of arc positions
    missing both the point 0 and the point t; outside that range the
    avoidance regions also overlap around the circle and the product
    form no longer equals the probability, so the call refuses.
    """
    arr, t = _check_pair_args(lengths, t)
    if arr.size == 0:
        return 1.0
    factors = 1.0 - arr - np.minimum(arr, t)
    return float(math.exp(math.fsum(np.log(factors).tolist())))


# Centres of a uniform draw sit on the grid k * 2**-53, k = word >> 11.
_GRID_BITS = 53
_DISCARDED_BITS = 64 - _GRID_BITS
# Words drawn and tested at once by pair_uncovered_mc: 512 KiB of them, so
# the draw and the range tests reuse them from cache.
_PAIR_CHUNK = 1 << 16


def _miss_words(lengths: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw Philox words whose centre misses both 0 and t, per arc: two ranges each.

    A word w is the centre u = k * 2**-53 with k = w >> 11, as
    ``Generator.random`` makes it; arc l at u misses x iff the float
    ``(x - u) mod 1 >= l``.  With T = t * 2**53, L = l * 2**53 (scaling
    by 2**53 is exact) and k_t = floor(T), the misses are k in [1, a] and
    in (k_t, b], each empty if its end falls short, in closed form:

    * k <= k_t (no wrap).  t - u is exact (both are multiples of ulp(t)
      and 0 <= t - u <= t), and 1 - u >= 1 - t >= l, since t is below
      the rounded 1 - l.  So k misses iff 1 <= k <= a = floor(T - L).
      fl(T - L) lies within 1/2 of T - L, so a is its
      floor or the integer below; take the one below, c, and add 1
      where the exact test ``t - (c + 1) * 2**-53 >= l`` holds.
      (fl can round up across an integer, so its floor alone is wrong.)
    * k > k_t (wrapped).  -u and 1 - u are representable and rounding is
      monotone, so fl(t - u) >= -u and fl(fl(t - u) + 1) >= 1 - u, which
      is exact: the distance to t never decides.  So k misses iff
      1 - u >= l, that is, k <= b = 2**53 - ceil(L).

    Returns ``starts`` of shape (2, 1) and ``widths`` of shape (2, n):
    word w misses in range i iff ``w - starts[i] < widths[i]`` in
    wrapping uint64 arithmetic.
    """
    k_t = int(t * 2.0**_GRID_BITS)
    scaled = lengths * 2.0**_GRID_BITS
    below = np.floor(t * 2.0**_GRID_BITS - scaled) - 1.0
    below += t - (below + 1.0) * 2.0**-_GRID_BITS >= lengths
    above = ((1 << _GRID_BITS) - k_t) - np.ceil(scaled)
    widths = np.maximum(np.stack((below, above)), 0.0).astype(np.uint64)
    shift = np.uint64(_DISCARDED_BITS)
    return np.array([[1], [k_t + 1]], dtype=np.uint64) << shift, widths << shift


def pair_uncovered_mc(lengths, t: float, reps: int, seed: int) -> SimulationResult:
    """Monte Carlo frequency of {0 uncovered and t uncovered} after all arcs.

    Vectorized over replications from a single counter-based Philox
    stream; deterministic in seed.  Row r of the stream's words holds the arcs
    of replication r, as ``Generator.random`` would give them as
    centres.  Arc l at centre u misses both points iff u > 0, the float
    ``1 - u >= l``, and the float distance ``t - u`` (plus 1 where it is
    negative) is ``>= l``.  That is decided on the raw word, by the
    integer ranges of ``_miss_words``, with the same outcome on every
    centre.
    """
    arr, t = _check_pair_args(lengths, t)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    seed = check_seed(seed)
    n = int(arr.size)
    if n == 0:
        return SimulationResult.from_counts(seed=seed, replications=reps, n_arcs=0, covered_count=reps)
    bitgen = np.random.Philox(np.random.SeedSequence(entropy=seed))
    starts, widths = _miss_words(arr, t)
    count = 0
    chunk = max(1, _PAIR_CHUNK // n)
    for first in range(0, reps, chunk):
        words = bitgen.random_raw((min(chunk, reps - first), n))
        miss = words - starts[0] < widths[0]
        words -= starts[1]
        miss |= words < widths[1]
        count += int(np.count_nonzero(miss.all(axis=1)))
    return SimulationResult.from_counts(seed=seed, replications=reps, n_arcs=n, covered_count=count)
