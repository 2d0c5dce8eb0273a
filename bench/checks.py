"""Output checks: every document against a computation made apart from the program.

Each check takes an operation (see ``workloads.Op``) and its document
text and returns a list of failure messages; an empty list passes.  The
oracles here regenerate the arc lengths from the benchmark's own
parameters and use other rules than the program does:

* product integrals: numpy's ``leggauss`` (not the program's in-house
  rule) with a fixed node count on sub-segments short enough that the
  integrand varies by at most a factor of about e on each, and the
  cancellation-free log factors ``log1p((l - t - l**2)/(1 - l)**2)`` and
  ``log1p(-(l/(1 - l))**2)``;
* certificates: ``math.fsum`` of ``log1p`` terms;
* criterion prefixes: exactly rounded running sums (``math.fsum`` of
  Shewchuk partials);
* coverage: Stevens' (1939) equal-arc formula, and a sort-and-sweep
  coverage simulation on numpy's PCG64 generator;
* two-point avoidance and the uncovered measure: their product formulas.

Monte Carlo estimates must lie within ``Z_LIMIT`` standard errors.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

import numpy as np

Z_LIMIT = 5.0

# Every tolerance below is at least 100 times the largest difference seen
# on correct output, except TOL_PREFIX (10 times).
#
# |log I_n(program) - log I_n(oracle)|: observed below 1e-14 up to
# n = 1000; a wrong node, weight or factor moves log I_n by far more.
TOL_LOG_INTEGRAL = 1e-11
# Relative tolerance of certificate sums.
TOL_CERTIFICATE = 1e-13
# Relative tolerance of criterion length prefixes against their correctly
# rounded value.  A few ulps of Kahan error pass; uncompensated
# summation of 1e6 terms does not.
TOL_PREFIX = 1e-14
# Log-scale partial sums of the criterion series (log-sum-exp error grows
# with the number of terms).
TOL_LOG_SERIES = 1e-10
# Relative tolerance of the inequality's two sides.
TOL_INEQUALITY = 1e-12

ORACLE_NODES = 16
# Largest (active factors) * (sub-segment width) per quadrature piece.
ORACLE_STEP = 1.0
_RULE = np.polynomial.legendre.leggauss(ORACLE_NODES)


# ---------------------------------------------------------------------------
# document parsing

def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_rows(doc: str) -> list[dict]:
    """Rows of a CLI document, JSON or CSV (config lines skipped)."""
    if doc.startswith("{"):
        return json.loads(doc)["rows"]
    lines = [line for line in doc.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    return [{k: _cell(v) for k, v in zip(header, row)} for row in reader]


# ---------------------------------------------------------------------------
# oracles

def lengths(seq: dict, n: int) -> np.ndarray:
    """l_k = min(cap, raw(k)), k = 1..n, for the benchmark's sequence parameters."""
    k = np.arange(1, n + 1, dtype=np.float64)
    family = seq["family"]
    if family == "constant":
        raw = np.full(n, float(seq["c"]))
    elif family == "harmonic":
        raw = seq["c"] / k
    elif family == "inverse-sqrt":
        raw = seq["c"] / np.sqrt(k)
    elif family == "power-decay":
        raw = seq["c"] * k ** (-seq["alpha"])
    else:
        raise ValueError(f"no oracle for family {family!r}")
    return np.minimum(float(seq["cap"]), raw)


def _log_sum_exp(logs: np.ndarray, weights: np.ndarray) -> float:
    top = float(logs.max())
    return top + math.log(math.fsum((weights * np.exp(logs - top)).tolist()))


def log_product_integral(l: np.ndarray, eps: float) -> float:
    """log of the integral over [0, eps] of prod_k (1 - l_k - min(l_k, t)) / (1 - l_k)**2."""
    l = np.sort(l)
    if l.size == 0:
        return math.log(eps)
    # Factor value once t >= l (the arc no longer reaches past t), and the
    # pieces of the factor while t < l.
    flat = np.log1p(-np.square(l / (1.0 - l)))
    flat_prefix = np.concatenate(([0.0], np.cumsum(flat)))
    head = l * (1.0 - l)
    scale = np.square(1.0 - l)
    pts = np.concatenate(([0.0], np.unique(l[l < eps]), [eps]))
    xg, wg = _RULE
    all_logs, all_weights = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        i = int(np.searchsorted(l, a, side="right"))  # l[:i] <= a: constant factors
        pieces = max(1, math.ceil((l.size - i) * (b - a) / ORACLE_STEP))
        edges = np.linspace(a, b, pieces + 1)
        lo, hi = edges[:-1, None], edges[1:, None]
        t = (0.5 * (lo + hi) + 0.5 * (hi - lo) * xg).ravel()
        w = (0.5 * (hi - lo) * wg).ravel()
        active = np.log1p((head[i:, None] - t) / scale[i:, None]).sum(axis=0)
        all_logs.append(flat_prefix[i] + active)
        all_weights.append(w)
    return _log_sum_exp(np.concatenate(all_logs), np.concatenate(all_weights))


def certificate(l: np.ndarray, eps: float) -> tuple[float, float, int]:
    """(g_log_sum, bound_log, m) of the lower-bound certificate, by fsum of log1p terms."""
    m = int(np.count_nonzero(l >= eps))
    head = [math.log((eps * (1.0 - x) - 0.5 * eps * eps) / (1.0 - x) ** 2) for x in l[:m].tolist()]
    log_c = math.fsum([(1.0 - m) * math.log(eps)] + head)
    tail = l[m:]
    g_terms = np.log1p(np.square(tail) * (1.0 - 2.0 * eps) / (2.0 * eps * np.square(1.0 - tail)))
    g_log_sum = math.fsum(g_terms.tolist())
    return g_log_sum, log_c + g_log_sum, m


def exact_prefixes(values) -> list[float]:
    """Correctly rounded running sums (Shewchuk's partials, as in math.fsum)."""
    partials: list[float] = []
    out = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


def stevens(n: int, a: float) -> float:
    """P(n equal arcs of length a cover the circle), Stevens (1939)."""
    terms = [(-1) ** k * math.comb(n, k) * (1.0 - k * a) ** (n - 1)
             for k in range(n + 1) if 1.0 - k * a > 0.0]
    return math.fsum(terms)


def covered_count(l: np.ndarray, reps: int, seed: int, chunk: int = 100) -> int:
    """Replications in which arcs [u_k, u_k + l_k) mod 1, u_k uniform, cover the circle.

    Each arc also enters shifted by -1, so the intervals cover [0, 1)
    on the line exactly when the arcs cover the circle.  Sorted by start,
    interval i opens a gap [R_i, s_i) when it starts past the reach R_i
    of the intervals before it; the circle is covered iff no such gap
    meets [0, 1) and the last reach passes 1.
    """
    rng = np.random.default_rng(seed)
    covered = 0
    for done in range(0, reps, chunk):
        rows = min(chunk, reps - done)
        u = rng.random((rows, l.size))
        starts = np.concatenate((u - 1.0, u), axis=1)
        order = np.argsort(starts, axis=1)
        starts = np.take_along_axis(starts, order, axis=1)
        ends = starts + np.concatenate((l, l))[order]
        reach = np.maximum.accumulate(ends, axis=1)
        before = np.concatenate((np.full((rows, 1), -np.inf), reach[:, :-1]), axis=1)
        gaps = (starts > before) & (starts > 0.0) & (before < 1.0)
        covered += int(np.count_nonzero(~gaps.any(axis=1) & (reach[:, -1] >= 1.0)))
    return covered


# ---------------------------------------------------------------------------
# checks

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _within(label: str, got: float, want: float, sigma: float) -> list[str]:
    if abs(got - want) <= Z_LIMIT * sigma:
        return []
    return [f"{label}: {got!r} vs {want!r}, more than {Z_LIMIT} SE ({sigma:.3g}) apart"]


def check_integrate(op, doc):
    p = op.params
    (row,) = parse_rows(doc)
    want = log_product_integral(lengths(p["seq"], p["n"]), p["eps"])
    bad = []
    if row["n"] != p["n"] or row["eps"] != p["eps"]:
        bad.append(f"row echoes n={row['n']}, eps={row['eps']}")
    if not abs(row["log_value"] - want) <= TOL_LOG_INTEGRAL:
        bad.append(f"log_value {row['log_value']!r} vs oracle {want!r}")
    if not _rel(row["value"], math.exp(want)) <= 1e-10:
        bad.append(f"value {row['value']!r} vs oracle exp {math.exp(want)!r}")
    return bad


def check_divergence(op, doc):
    p = op.params
    rows = parse_rows(doc)
    l = lengths(p["seq"], p["checkpoints"][-1])
    bad = []
    if [r["n"] for r in rows] != list(p["checkpoints"]):
        return [f"rows {[r['n'] for r in rows]} do not follow the checkpoints"]
    for r in rows:
        n = r["n"]
        g_log_sum, bound_log, _ = certificate(l[:n], p["eps"])
        if not _rel(r["g_log_sum"], g_log_sum) <= TOL_CERTIFICATE:
            bad.append(f"n={n}: g_log_sum {r['g_log_sum']!r} vs fsum {g_log_sum!r}")
        if not _rel(r["bound_log"], bound_log) <= TOL_CERTIFICATE:
            bad.append(f"n={n}: bound_log {r['bound_log']!r} vs fsum {bound_log!r}")
        log_pi = r["log_product_integral"]
        if n > p["quadrature_cap"]:
            if log_pi is not None:
                bad.append(f"n={n}: quadrature past the cap")
            continue
        want = log_product_integral(l[:n], p["eps"])
        if log_pi is None or not abs(log_pi - want) <= TOL_LOG_INTEGRAL:
            bad.append(f"n={n}: log_product_integral {log_pi!r} vs oracle {want!r}")
        elif not log_pi >= r["bound_log"]:
            bad.append(f"n={n}: log_product_integral {log_pi!r} below bound_log {r['bound_log']!r}")
    return bad


def check_bound(op, doc):
    p = op.params
    (row,) = parse_rows(doc)
    g_log_sum, bound_log, m = certificate(lengths(p["seq"], p["n"]), p["eps"])
    bad = []
    if row["m"] != m:
        bad.append(f"m {row['m']} vs {m}")
    if not _rel(row["g_log_sum"], g_log_sum) <= TOL_CERTIFICATE:
        bad.append(f"g_log_sum {row['g_log_sum']!r} vs fsum {g_log_sum!r}")
    if not _rel(row["bound_log"], bound_log) <= TOL_CERTIFICATE:
        bad.append(f"bound_log {row['bound_log']!r} vs fsum {bound_log!r}")
    return bad


def check_criterion(op, doc):
    p = op.params
    rows = parse_rows(doc)
    n_max = p["n"]
    l = lengths(p["seq"], n_max)
    picks = list(p["checkpoints"]) if p["checkpoints"] else list(range(1, n_max + 1))
    if [r["n"] for r in rows] != picks:
        return ["rows do not follow the requested indices"]
    if p["checkpoints"]:
        prefix = [math.fsum(l[:n].tolist()) for n in picks]
        # Every term enters the log-scale sum, so all prefixes are needed;
        # 64-bit-mantissa running sums are far inside TOL_LOG_SERIES.
        log_terms_all = np.cumsum(l.astype(np.longdouble)) - 2 * np.log(np.arange(1, n_max + 1, dtype=np.longdouble))
    else:
        prefix = exact_prefixes(l.tolist())
        log_terms_all = np.array(prefix, dtype=np.longdouble) - 2 * np.log(np.arange(1, n_max + 1, dtype=np.longdouble))
    log_sums = np.log(np.cumsum(np.exp(log_terms_all)))
    bad = []
    for r, s in zip(rows, prefix):
        n = r["n"]
        want = s - 2.0 * math.log(n)
        if not abs(r["log_term"] - want) <= TOL_PREFIX * max(1.0, abs(s)):
            bad.append(f"n={n}: log_term {r['log_term']!r} vs fsum prefix {want!r}")
        want_sum = float(log_sums[n - 1])
        if not abs(r["log_partial_sum"] - want_sum) <= TOL_LOG_SERIES * max(1.0, abs(want_sum)):
            bad.append(f"n={n}: log_partial_sum {r['log_partial_sum']!r} vs {want_sum!r}")
        if r["partial_sum"] is not None and not _rel(r["partial_sum"], math.exp(want_sum)) <= 2 * TOL_LOG_SERIES * max(1.0, abs(want_sum)):
            bad.append(f"n={n}: partial_sum {r['partial_sum']!r} vs {math.exp(want_sum)!r}")
        if len(bad) > 5:
            break
    return bad


def _replay_families(trials: int, seed: int):
    """The families inequality-check draws: per trial n in 1..10, 1..6 segments,
    a direction and a family seed from default_rng(seed), then the library's
    random_monotone_family."""
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from arccover.chebyshev import random_monotone_family

    master = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(master.integers(1, 11))
        segments = int(master.integers(1, 7))
        direction = "increasing" if master.integers(2) else "decreasing"
        family_seed = int(master.integers(1 << 63))
        yield random_monotone_family(family_seed, n, direction, segments)


def _trapezoid(f) -> float:
    x, y = f.breakpoints, f.values
    return math.fsum((np.diff(x) * 0.5 * (y[:-1] + y[1:])).tolist())


def _inequality_lhs(family) -> float:
    pts = np.unique(np.concatenate([f.breakpoints for f in family]))
    xg, wg = _RULE  # exact: the product is a polynomial of degree <= 10 per piece
    lo, hi = pts[:-1, None], pts[1:, None]
    t = (0.5 * (lo + hi) + 0.5 * (hi - lo) * xg).ravel()
    w = (0.5 * (hi - lo) * wg).ravel()
    prod = np.ones_like(t)
    for f in family:
        prod *= np.interp(t, f.breakpoints, f.values)
    eps = float(pts[-1])
    return eps ** (len(family) - 1) * math.fsum((prod * w).tolist())


def check_inequality(op, doc):
    p = op.params
    rows = parse_rows(doc)
    if [r["trial"] for r in rows] != list(range(p["trials"])):
        return ["rows do not number the trials"]
    bad = []
    for r, family in zip(rows, _replay_families(p["trials"], p["seed"])):
        rhs = math.prod(_trapezoid(f) for f in family)
        lhs = _inequality_lhs(family)
        if r["n"] != len(family):
            bad.append(f"trial {r['trial']}: n={r['n']}, replayed family has {len(family)}")
        elif not _rel(r["rhs"], rhs) <= TOL_INEQUALITY:
            bad.append(f"trial {r['trial']}: rhs {r['rhs']!r} vs trapezoid {rhs!r}")
        elif not _rel(r["lhs"], lhs) <= TOL_INEQUALITY:
            bad.append(f"trial {r['trial']}: lhs {r['lhs']!r} vs oracle {lhs!r}")
        elif r["holds"] is not True or r["margin"] != r["lhs"] - r["rhs"]:
            bad.append(f"trial {r['trial']}: holds={r['holds']}, margin {r['margin']!r}")
        if len(bad) > 5:
            break
    return bad


def _check_binomial_row(row, n, reps) -> list[str]:
    bad = []
    if row["n_arcs"] != n or row.get("replications", reps) != reps:
        bad.append(f"row echoes n_arcs={row['n_arcs']}, replications={row.get('replications')}")
    count = row["covered_count"] if "covered_count" in row else row["count"]
    p_hat = count / reps
    std_err = math.sqrt(p_hat * (1 - p_hat) / reps)
    if row["p_hat"] != p_hat or not math.isclose(row["std_err"], std_err, rel_tol=1e-12):
        bad.append(f"p_hat {row['p_hat']!r} / std_err {row['std_err']!r} do not match count {count}")
    return bad


def check_simulate_stevens(op, doc):
    p = op.params
    (row,) = parse_rows(doc)
    exact = stevens(p["n"], p["seq"]["c"])
    return _check_binomial_row(row, p["n"], p["reps"]) + _within(
        "p_hat vs Stevens", row["p_hat"], exact, math.sqrt(exact * (1 - exact) / p["reps"]))


def check_simulate_threshold(op, doc):
    p = op.params
    (row,) = parse_rows(doc)
    reps_oracle = 10 * p["reps"]
    hits = covered_count(lengths(p["seq"], p["n"]), reps_oracle, p["seed"])
    pooled = (row["covered_count"] + hits) / (p["reps"] + reps_oracle)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / p["reps"] + 1 / reps_oracle))
    return _check_binomial_row(row, p["n"], p["reps"]) + _within(
        "p_hat vs oracle simulation", row["p_hat"], hits / reps_oracle, sigma)


def check_pair_probe(op, doc):
    p = op.params
    (row,) = parse_rows(doc)
    l = lengths(p["seq"], p["n"])
    exact = math.exp(math.fsum(np.log1p(-l - np.minimum(l, p["t"])).tolist()))
    bad = _check_binomial_row(row, p["n"], p["reps"])
    if not _rel(row["exact"], exact) <= 1e-12:
        bad.append(f"exact {row['exact']!r} vs product {exact!r}")
    return bad + _within("p_hat vs exact", row["p_hat"], exact, math.sqrt(exact * (1 - exact) / p["reps"]))


def check_gap_measure(op, doc):
    p = op.params
    samples = np.array([float(x) for x in doc.split()])
    if samples.size != p["reps"] or not np.all((samples >= 0.0) & (samples <= 1.0 + 1e-12)):
        return [f"{samples.size} samples, or samples outside [0, 1]"]
    exact = math.exp(math.fsum(np.log1p(-lengths(p["seq"], p["n"])).tolist()))
    sigma = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return _within("mean uncovered measure vs prod(1 - l_k)", float(samples.mean()), exact, sigma)


CHECKS = {
    "integrate": check_integrate,
    "divergence": check_divergence,
    "bound": check_bound,
    "criterion": check_criterion,
    "inequality": check_inequality,
    "simulate_stevens": check_simulate_stevens,
    "simulate_threshold": check_simulate_threshold,
    "pair_probe": check_pair_probe,
    "gap_measure": check_gap_measure,
}


def check(op, doc: str) -> list[str]:
    """Failure messages for one operation's document (empty when it passes)."""
    try:
        return CHECKS[op.check](op, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"document could not be checked: {type(exc).__name__}: {exc}"]
