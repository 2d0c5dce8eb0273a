"""Chebyshev-type integral inequality engine for commonly monotone positive functions.

For positive f_1, ..., f_n on [0, eps] that are either all increasing
or all decreasing,

    eps**(n-1) * integral(prod_k f_k)  >=  prod_k integral(f_k).

Piecewise-linear representatives make both sides computable: the
trapezoid rule is exact per factor, and ``_accum.product_rule``, which
the arc-factor product integral uses too, integrates the product (of
degree n between merged breakpoints), one call per node count: exact for
at most 23 functions, at roundoff above on log-drop pieces.  The
arc-avoidance factors of the covering problem are themselves piecewise
linear, so this engine reproduces that application.

The engine works on families in a batch, stacked as ``(families,
functions, width)`` arrays of breakpoints and of values; a row ends
where its breakpoints reach eps.  A shorter row is padded with eps and
its last value, so the padded pieces have zero width and add exact
zeros to every sum; a family with fewer functions than the batch has
dead rows (breakpoints 0 and eps, value 1) after its own.  One draw
(``_family_batch``) and one evaluator (``_sides``) serve the trials of
``inequality_trials``, _TRIAL_CHUNK families at a time, and the library
functions, each a batch of one.

The evaluator sorts each family's breakpoints once, finds a row's piece
at a merged breakpoint by binary search in the row's ranks among them,
and evaluates a factor at a node as np.interp does: ``slope*(x - b0) +
v0`` on the piece of the node's merged segment, the breakpoint's own
value where x is b0, and the neighbouring piece for a node that rounds
onto the segment's end (or below its start).

A random family draws from ``default_rng(seed)``: eps from U(0.2, 1),
then, function after function, ``segments`` inner breakpoints
``eps * random()``, of which tied and out-of-range draws are dropped,
then one value per kept breakpoint (both ends included), floored at
VALUE_FLOOR and sorted to match the direction.  The draws are read from
one bulk ``random(1 + n * (2*segments + 2))``, an upper bound on what the
family reads, which gives the same doubles as the calls one by one; eps
is ``0.2 + (1.0 - 0.2) * u`` of its first, numpy's own ``uniform``
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accum import MAX_NODES, exact_parts, product_rule
from ._philox import check_seed

DIRECTIONS = ("increasing", "decreasing")

# Random families get values floored here; the inequality needs positive functions.
VALUE_FLOOR = 1e-6
# Per-trial draw ranges of inequality_trials.
TRIAL_MAX_FUNCTIONS = 10
TRIAL_MAX_SEGMENTS = 6
# Trials per batch of inequality_trials: its temporaries stay a few MiB at any trial count.
_TRIAL_CHUNK = 512


def _check_rows(breakpoints: np.ndarray, values: np.ndarray, direction: str) -> None:
    """Raise ValueError unless each row is a positive monotone polyline on [0, eps]."""
    b, v = breakpoints, values
    if not (np.isfinite(b).all() and np.isfinite(v).all()):
        raise ValueError("breakpoints and values must be finite")
    starts = b[:, 0]
    if (starts != 0.0).any():
        raise ValueError(f"breakpoints must start at 0, got {starts[starts != 0.0][0]}")
    if (b[:, 1:] <= b[:, :-1]).any():
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
        b = np.array(self.breakpoints, dtype=np.float64)  # copies, so the caller's arrays stay theirs
        v = np.array(self.values, dtype=np.float64)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size or b.size < 2:
            raise ValueError("breakpoints and values must be 1-d arrays of equal length >= 2")
        _check_rows(b[None], v[None], self.direction)
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
        return np.concatenate((a, a[-1:].repeat(width - a.size)))

    return np.array([padded(f.breakpoints) for f in fs]), np.array([padded(f.values) for f in fs])


def _row_integrals(b: np.ndarray, v: np.ndarray) -> list[float]:
    """The exact integral of each row (trapezoid, exact for polylines), rows in C order."""
    terms = np.diff(b, axis=-1) * (0.5 * (v[..., :-1] + v[..., 1:]))
    return [math.fsum(row) for row in terms.reshape(-1, terms.shape[-1]).tolist()]


def _merged_breakpoints(b: np.ndarray):
    """Each family's distinct breakpoints, from one sort and a neighbour compare.

    Returns them family after family, where each family's run starts and
    ends, and where each breakpoint of ``b`` sits among them.
    """
    flat, each = b.reshape(len(b), -1), np.arange(len(b))[:, None]
    perm = flat.argsort(axis=1, kind="stable")
    merged = flat[each, perm]
    new = np.ones(merged.shape, dtype=bool)
    np.not_equal(merged[:, 1:], merged[:, :-1], out=new[:, 1:])
    counts = new.sum(axis=1)
    rank = np.empty(flat.shape, dtype=np.int64)
    rank[each, perm] = new.cumsum().reshape(flat.shape) - 1
    ends = counts.cumsum()
    return merged[new], ends - counts, ends, rank.reshape(b.shape)


def _product_integrals(b: np.ndarray, v: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The integral of each family's product over its first ``ns[k]`` rows, for stacked rows ``b``, ``v``.

    Families are taken in descending n, so row r is live on a prefix of
    them and families of one node count q are adjacent.  Each family's
    merged breakpoints come from ``_merged_breakpoints``; a row's piece
    at a merged breakpoint is the count of its own breakpoints up to
    there, found by binary search where it is read.  The nodes are
    ``product_rule``'s, one call per q on the merged segments, each of
    degree n or, from one family's eps to the next one's 0, 0; its
    segment map gives each line's piece, the lines to drop and each
    family's lines.  Factors multiply in row order and each family's
    weighted products go into one ``math.fsum`` through ``exact_parts``.
    """
    order = np.argsort(-ns, kind="stable")
    b, v, ns = b[order], v[order], ns[order]
    families, rows, _ = b.shape
    pts, starts, ends, rank = _merged_breakpoints(b)
    gaps = np.diff(b, axis=-1)
    slope = np.zeros(b.shape)  # zero on padding, so a node at or past eps reads the last value
    np.divide(np.diff(v, axis=-1), gaps, out=slope[..., :-1], where=gaps > 0.0)

    # Row r's ranks ascend, family after family, so its piece at a merged
    # breakpoint g is the last of its breakpoints ranked at or below g.
    row_b, row_v, row_slope, row_rank = (a.swapaxes(0, 1).reshape(rows, -1) for a in (b, v, slope, rank))

    def piece(r: int, g: np.ndarray) -> tuple[np.ndarray, ...]:
        """Row r's piece at merged breakpoints g: its first breakpoint, value and slope."""
        p = row_rank[r].searchsorted(g, "right") - 1
        return row_b[r][p], row_v[r][p], row_slope[r][p]

    def value(r: int, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """np.interp's arithmetic at nodes x, on row r's pieces at merged breakpoints g."""
        b0, v0, s0 = piece(r, g)
        return np.where(x == b0, v0, s0 * (x - b0) + v0)

    owner = np.repeat(np.arange(families), ends - starts)
    # A family's segments have its degree n; one from its eps down to the next one's 0 has 0.
    degree = ns[owner[:-1]] * (np.diff(pts) > 0.0)
    qs = np.minimum((ns + 2) // 2, MAX_NODES)  # product_rule's ceil((n + 1)/2), capped
    bounds = [0, *(np.flatnonzero(qs[1:] != qs[:-1]) + 1).tolist(), families]
    groups, sizes = [], []
    for first, last in zip(bounds[:-1], bounds[1:]):
        lo, hi = starts[first], ends[last - 1]
        at = np.arange(lo, hi)
        x, w, q, seg = product_rule(pts[lo:hi], degree[lo:hi - 1],
                                    lambda y: sum(np.log(value(r, y, at)) for r in range(ns[first])))
        # Nodes are laid out a span of q per line: a merged segment or a log-drop piece of one.
        keep = degree[lo + seg] > 0
        seg, x, w = lo + seg[keep], x.reshape(-1, q)[keep], w.reshape(-1, q)[keep]
        g = seg[:, None] + (x >= pts[seg + 1, None]) - (x < pts[seg, None])
        lines = np.bincount(owner[seg] - first, minlength=last - first)
        sizes += (lines * q).tolist()
        # Row r is live on the group's first families, those with more than r rows.
        line_starts = np.concatenate(([0], lines)).cumsum()
        live = line_starts[(ns[first:last, None] > np.arange(rows)).sum(axis=0)]
        # A node off its segment's piece, or on a breakpoint, is read on its own piece.
        odd = np.nonzero((g != seg[:, None]) | (x == pts[g]))
        groups.append((x, w, seg, live, odd, g[odd]))
    prods = [np.ones(x.shape) for x, *_ in groups]
    for r in range(rows):
        for (x, w, seg, live, odd, g_odd), prod in zip(groups, prods):
            k = live[r]
            b0, v0, s0 = piece(r, seg[:k, None])
            f = np.subtract(x[:k], b0)
            f *= s0
            f += v0
            if g_odd.size:
                mine = odd[0] < k
                f[odd[0][mine], odd[1][mine]] = value(r, x[odd][mine], g_odd[mine])
            prod[:k] *= f
    terms = np.concatenate([(prod * w).ravel() for prod, (x, w, *_) in zip(prods, groups)])
    out = np.empty(families)
    out[order] = [math.fsum(parts) for parts in exact_parts(terms, sizes)]
    return out


def _sides(b: np.ndarray, v: np.ndarray, ns) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, ``eps**(n-1) * integral(prod f_k)`` and ``prod integral(f_k)``, of each stacked family."""
    ns = np.asarray(ns)
    live = np.arange(b.shape[1]) < ns[:, None]
    row_integrals = _row_integrals(b[live], v[live])
    lhs, rhs = [], []
    for eps, n, end, integral_k in zip(b[:, 0, -1].tolist(), ns.tolist(), np.cumsum(ns).tolist(),
                                       _product_integrals(b, v, ns).tolist()):
        lhs.append(eps ** (n - 1) * integral_k)
        rhs.append(math.prod(row_integrals[end - n:end]))
    return np.array(lhs), np.array(rhs)


def _evaluate(b: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Both sides of one family in rows, as a batch of one."""
    lhs, rhs = _sides(b[None], v[None], np.array([len(b)]))
    return float(lhs[0]), float(rhs[0])


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


def _product_integral(b: np.ndarray, v: np.ndarray) -> float:
    """The integral of the product of one family's rows, as a batch of one."""
    return float(_product_integrals(b[None], v[None], np.array([len(b)]))[0])


def product_integral_pl(fs) -> float:
    """Integral of ``prod(fs)`` over the shared domain, exact for at most 23 functions.

    Raises on mixed directions or mismatched domains: the inequality
    this engine certifies is only stated for commonly monotone
    families.
    """
    return _product_integral(*_rows(_common_family(fs)))


def check_inequality(fs) -> InequalityCheck:
    """Evaluate both sides of the inequality for a commonly monotone family.

    ``holds`` is one-sided: the left side may fall below the right by at
    most 1e-10 * max(1, rhs), so roundoff cannot raise false alarms
    while genuine violations of any size are caught.  Both sides are
    formed in linear space, so the verdict is vacuous once they underflow
    (``rhs`` is 0.0 for some families of 500 functions).
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
    return 2.0 * eps * _product_integral(b, v) - 2.0 * int_f * int_g


def _family_batch(seeds, ns, increasing, segments) -> tuple[np.ndarray, np.ndarray]:
    """The stacked rows of random families, one ``default_rng(seeds[k])`` each.

    Family k has ``ns[k]`` functions of ``segments[k]`` draws each and is
    increasing where ``increasing[k]``; the rows are ``max(segments) + 2``
    wide and there are ``max(ns)`` of them, dead after a family's own.
    Each generator gives eps, then one bulk draw that the loop over the
    function index lays out for every family at once: a family's read
    offset advances by ``segments + kept + 2`` per function, so ties and
    out-of-range draws are dropped as the draws one by one would be.
    """
    ns, segments = np.asarray(ns), np.asarray(segments)
    families, rows, inner = len(ns), int(ns.max()), int(segments.max())
    width = inner + 2
    sizes = ns * (2 * segments + 2)  # at most segments inner draws and segments + 2 values per function
    # NaN past each family's draws; the last value window starts at most inner columns past them.
    stream = np.full((families, int(sizes.max()) + inner + width), np.nan)
    eps = np.empty((families, 1))
    for k, (seed, size) in enumerate(zip(seeds, sizes.tolist())):
        rng = np.random.default_rng(seed)
        u = rng.random(size + 1)
        eps[k] = 0.2 + (1.0 - 0.2) * u[0]  # rng.uniform(0.2, 1.0), bit for bit
        stream[k, :size] = u[1:]
    sign = np.where(increasing, 1.0, -1.0)[:, None]  # a decreasing row is sorted negated
    columns, each = np.arange(width), np.arange(families)[:, None]
    b = np.zeros((families, rows, width))
    v = np.ones((families, rows, width))
    read = np.zeros(families, dtype=np.int64)
    for i in range(rows):
        alive = ns > i
        # eps * random() is bit for bit rng.uniform(0, eps).  Dropped draws
        # become inf, and a sort moves them behind the kept ones.
        x = eps * stream[each, read[:, None] + columns[:inner]]
        drop = (columns[:inner] >= segments[:, None]) | ~alive[:, None] | ~((0.0 < x) & (x < eps))
        x[drop] = np.inf
        x.sort(axis=1)
        x[:, 1:][x[:, 1:] == x[:, :-1]] = np.inf  # ties
        x.sort(axis=1)
        kept = (x < np.inf).sum(axis=1)
        b[:, i, 1:-1] = np.minimum(x, eps)
        b[:, i, -1:] = eps
        drawn = stream[each, (read + segments)[:, None] + columns]
        drawn[columns >= kept[:, None] + 2] = np.nan  # unused slots sort last
        u = sign * np.maximum(drawn, VALUE_FLOOR)
        u.sort(axis=1)
        # fmax skips NaN, so each unused slot repeats the row's last value.
        v[alive, i] = (sign * np.fmax.accumulate(u, axis=1))[alive]
        read += alive * (segments + kept + 2)
    return b, v


def _family_rows(seed: int, n: int, direction: str, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``random_monotone_family(seed, n, direction, segments)``, width segments + 2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    b, v = _family_batch([seed], [n], [direction == "increasing"], [segments])
    return b[0], v[0]


def random_monotone_family(seed: int, n: int, direction: str, segments: int) -> list[MonotonePiecewiseLinear]:
    """Deterministic family of n random monotone polylines on a shared domain.

    Each function gets ``segments`` interior breakpoints drawn uniformly
    in (0, eps) and positive values (floored at 1e-6) sorted to match
    ``direction``.  Identical seeds reproduce identical families.
    """
    b, v = _family_rows(seed, n, direction, segments)
    ends = 1 + np.count_nonzero(b < b[:, -1:], axis=1)  # each row ends where its breakpoints reach eps
    return [MonotonePiecewiseLinear(bi[:c], vi[:c], direction) for bi, vi, c in zip(b, v, ends.tolist())]


def inequality_trials(seed: int, trials: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The CLI's inequality-check: each trial's n, then arrays lhs, rhs and holds (as check_inequality).

    Trial after trial, ``default_rng(seed)`` draws n, the segment count,
    the direction (increasing on 1) and a family seed below 2**63, for
    ``random_monotone_family(family seed, n, direction, segments)``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    master = np.random.default_rng(check_seed(seed))
    sizes, sides = [], []
    for start in range(0, trials, _TRIAL_CHUNK):
        draws = []
        for _ in range(min(_TRIAL_CHUNK, trials - start)):
            n = int(master.integers(1, TRIAL_MAX_FUNCTIONS + 1))
            segments = int(master.integers(1, TRIAL_MAX_SEGMENTS + 1))
            increasing = bool(master.integers(2))
            draws.append((int(master.integers(1 << 63)), n, increasing, segments))
        seeds, ns, increasing, segments = zip(*draws)
        sizes += ns
        sides.append(_sides(*_family_batch(seeds, ns, increasing, segments), ns))
    lhs, rhs = np.concatenate(sides, axis=1)
    return sizes, lhs, rhs, _holds(lhs, rhs)
