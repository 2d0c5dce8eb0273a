"""Monte Carlo model of tossing random arcs on the unit-circumference circle.

Arcs are half-open: an arc at position u with length l covers x iff
(x - u) mod 1 < l.  Ties therefore have measure zero and every coverage
decision is deterministic.  The uncovered set is maintained
incrementally as a sorted list of disjoint half-open intervals inside
[0, 1) (a gap crossing zero is stored as two pieces), which gives the
exact first covering toss at amortized constant list work per arc.

Reproducibility contract: every replication draws from its own
counter-based Philox stream keyed by (master seed, replication index),
so results do not depend on the order in which replications run.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .sequences import LengthSequence, generate


@dataclass(frozen=True)
class Arc:
    """Half-open arc [center, center + length) mod 1."""

    center: float
    length: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.center < 1.0:
            raise ValueError(f"center must lie in [0, 1), got {self.center}")
        if not 0.0 < self.length < 1.0:
            raise ValueError(f"length must lie in (0, 1), got {self.length}")

    def covers(self, x: float) -> bool:
        return (x - self.center) % 1.0 < self.length


@dataclass(frozen=True)
class GapSet:
    """The uncovered subset of the circle as sorted disjoint half-open intervals."""

    gaps: tuple[tuple[float, float], ...]
    total_gap: float

    def __post_init__(self) -> None:
        prev_end = 0.0
        for start, end in self.gaps:
            if not (0.0 <= start < end <= 1.0):
                raise ValueError(f"gap ({start}, {end}) is not a half-open interval inside [0, 1]")
            if start < prev_end:
                raise ValueError("gaps must be sorted and pairwise disjoint")
            prev_end = end
        if not 0.0 <= self.total_gap <= 1.0 + 1e-12:
            raise ValueError(f"total_gap out of range: {self.total_gap}")

    @classmethod
    def full_circle(cls) -> "GapSet":
        return cls(gaps=((0.0, 1.0),), total_gap=1.0)

    @property
    def covered(self) -> bool:
        return not self.gaps


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
# interval bookkeeping (internal fast path works on plain lists)

def _subtract(gaps: list[tuple[float, float]], a: float, b: float) -> float:
    """Remove [a, b) from a sorted disjoint gap list; return the removed measure."""
    if b <= a:
        return 0.0
    i = bisect.bisect_left(gaps, (a,))
    if i > 0 and gaps[i - 1][1] > a:
        i -= 1
    j = i
    removed = 0.0
    replacement: list[tuple[float, float]] = []
    while j < len(gaps) and gaps[j][0] < b:
        start, end = gaps[j]
        lo = a if start < a else start
        hi = b if end > b else end
        if hi > lo:
            removed += hi - lo
            if start < a:
                replacement.append((start, a))
            if end > b:
                replacement.append((b, end))
        else:
            replacement.append((start, end))
        j += 1
    gaps[i:j] = replacement
    return removed


def _arc_pieces(center: float, length: float) -> tuple[tuple[float, float], ...]:
    hi = center + length
    if hi <= 1.0:
        return ((center, hi),)
    return ((center, 1.0), (0.0, hi - 1.0))


def apply_arc(state: GapSet, arc: Arc) -> GapSet:
    """Set-difference of the gaps and the arc, with incremental measure bookkeeping.

    total_gap decreases by exactly the overlap measure; once the gap
    list empties it is pinned to 0 so roundoff cannot leave a phantom
    residue.  Applying the same arc twice equals applying it once.
    """
    work = list(state.gaps)
    removed = 0.0
    for a, b in _arc_pieces(arc.center, arc.length):
        removed += _subtract(work, a, b)
    total = 0.0 if not work else state.total_gap - removed
    return GapSet(gaps=tuple(work), total_gap=total)


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for one replication, keyed by (seed, index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _first_cover(lengths, centers) -> int | None:
    gaps: list[tuple[float, float]] = [(0.0, 1.0)]
    for i in range(len(lengths)):
        for a, b in _arc_pieces(centers[i], lengths[i]):
            _subtract(gaps, a, b)
        if not gaps:
            return i + 1
    return None


def first_cover_given(arcs) -> int | None:
    """Index (1-based) of the first arc in ``arcs`` that completes coverage, if any."""
    arcs = list(arcs)
    return _first_cover([a.length for a in arcs], [a.center for a in arcs])


def first_cover_index(seq: LengthSequence, seed: int, n_max: int) -> int | None:
    """First-cover toss count for one replication, or None within n_max tosses.

    Deterministic in (seq, seed, n_max); the centers come from the
    replication's own Philox stream, drawn up front so the answer for a
    smaller n_max is always a prefix-consistent truncation.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lengths = generate(seq, n_max)
    centers = _replication_rng(seed, 0).random(n_max)
    return _first_cover(lengths.tolist(), centers.tolist())


def coverage_probability(seq: LengthSequence, n: int, reps: int, seed: int) -> SimulationResult:
    """Fraction of replications whose gap set is empty after n arcs.

    Each replication owns its RNG substream and contributes one flag to
    a count, so the result does not depend on the order of replications.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    lengths = generate(seq, n).tolist()
    covered = 0
    for index in range(reps):
        centers = _replication_rng(seed, index).random(n).tolist()
        covered += _first_cover(lengths, centers) is not None
    return SimulationResult.from_counts(seed=seed, replications=reps, n_arcs=n, covered_count=covered)


def gap_measure_samples(seq: LengthSequence, n: int, reps: int, seed: int) -> np.ndarray:
    """total_gap after n arcs, one sample per replication.

    The sample mean estimates prod_k (1 - l_k), the exact expectation of
    the uncovered measure.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    lengths = generate(seq, n).tolist()
    out = np.empty(reps, dtype=np.float64)
    for index in range(reps):
        centers = _replication_rng(seed, index).random(n).tolist()
        gaps: list[tuple[float, float]] = [(0.0, 1.0)]
        total = 1.0
        for i in range(n):
            for a, b in _arc_pieces(centers[i], lengths[i]):
                total -= _subtract(gaps, a, b)
            if not gaps:
                total = 0.0
                break
        out[index] = total
    return out


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


def pair_uncovered_mc(lengths, t: float, reps: int, seed: int) -> SimulationResult:
    """Monte Carlo frequency of {0 uncovered and t uncovered} after all arcs.

    Vectorized over replications from a single counter-based Philox
    stream (there is no parallel execution to split across);
    deterministic in seed.
    """
    arr, t = _check_pair_args(lengths, t)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    n = int(arr.size)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    count = 0
    chunk = max(1, (1 << 22) // max(n, 1))
    remaining = reps
    while remaining > 0:
        rows = min(chunk, remaining)
        centers = rng.random((rows, n))
        miss_zero = (0.0 - centers) % 1.0 >= arr
        miss_t = (t - centers) % 1.0 >= arr
        count += int(np.logical_and(miss_zero, miss_t).all(axis=1).sum())
        remaining -= rows
    return SimulationResult.from_counts(seed=seed, replications=reps, n_arcs=n, covered_count=count)
