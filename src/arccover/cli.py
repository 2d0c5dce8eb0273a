"""Batch command-line front end emitting deterministic CSV or JSON tables.

Identical configurations produce byte-identical output: floats are
printed with 17 significant digits (lossless round trips), the full
configuration is echoed into every document, and no timestamps or
environment state leak in.  Seeds are always explicit flags;
environment variables are deliberately not consulted.

Exit status: 0 success, 1 runtime error, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import chebyshev, covering, integrals
from .sequences import generate, parse_sequence_spec

COMMANDS = ("integrate", "bound", "divergence", "criterion",
            "inequality-check", "simulate", "pair-probe")

# Per-trial draw ranges of the inequality-check command.
TRIAL_MAX_FUNCTIONS = 10
TRIAL_MAX_SEGMENTS = 6


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation, echoed verbatim into every output document."""

    command: str
    seq: str | None = None
    eps: float | None = None
    n: int | None = None
    checkpoints: tuple[int, ...] | None = None
    reps: int | None = None
    seed: int | None = None
    t: float | None = None
    trials: int | None = None
    quadrature_cap: int = 2000
    format: str = "json"
    out: str | None = None


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str | None:
    if math.isnan(x) or math.isinf(x):
        return None
    return "%.17g" % x


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = _fmt_float(float(value))
        return "null" if text is None else text
    return json.dumps(str(value))


def _json_render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_json_render(v, indent + 1)}" for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            return "[" + ", ".join(_json_scalar(v) for v in seq) + "]"
        items = ",\n".join(f"{inner}{_json_render(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    return _json_scalar(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return "%.17g" % x
    return str(value)


def _config_dict(config: RunConfig) -> dict:
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def render(config: RunConfig, rows: list[dict]) -> str:
    if config.format == "json":
        doc = {"config": _config_dict(config), "rows": rows}
        return _json_render(doc, 0) + "\n"
    buf = io.StringIO()
    for key, value in _config_dict(config).items():
        if isinstance(value, list):
            value = ";".join(str(v) for v in value)
        buf.write(f"# {key}={'' if value is None else _csv_cell(value)}\n")
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_csv_cell(v) for v in row.values())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command implementations (each returns a list of row dicts)

def _run_integrate(config: RunConfig) -> list[dict]:
    seq = parse_sequence_spec(config.seq)
    lengths = generate(seq, config.n) if config.n else []
    result = integrals.product_integral(lengths, config.eps)
    return [{
        "n": config.n,
        "eps": config.eps,
        "value": result.value,
        "log_value": result.log_value,
        "segment_count": result.segment_count,
        "nodes_per_segment": result.nodes_per_segment,
    }]


def _run_bound(config: RunConfig) -> list[dict]:
    seq = parse_sequence_spec(config.seq)
    lengths = generate(seq, config.n) if config.n else []
    cert = integrals.shepp_lower_bound(lengths, config.eps)
    return [{
        "n": config.n,
        "eps": config.eps,
        "m": cert.m,
        "log_C": cert.log_C,
        "g_log_sum": cert.g_log_sum,
        "bound_log": cert.bound_log,
    }]


def _run_divergence(config: RunConfig) -> list[dict]:
    seq = parse_sequence_spec(config.seq)
    rows = integrals.divergence_table(seq, config.eps, config.checkpoints,
                                      quadrature_cap=config.quadrature_cap)
    return [{
        "n": row.n,
        "log_product_integral": row.log_product_integral,
        "bound_log": row.bound_log,
        "g_log_sum": row.g_log_sum,
    } for row in rows]


def _run_criterion(config: RunConfig) -> list[dict]:
    seq = parse_sequence_spec(config.seq)
    series = integrals.criterion_partial_sums(seq, config.n)
    if config.checkpoints:
        if config.checkpoints[-1] > config.n:
            raise ValueError("checkpoints may not exceed n")
        picks = [c - 1 for c in config.checkpoints if c >= 1]
    else:
        picks = list(range(config.n))
    return [{
        "n": i + 1,
        "log_term": float(series.partial_log_terms[i]),
        "log_partial_sum": float(series.log_partial_sums[i]),
        "partial_sum": float(series.partial_sums[i]),
    } for i in picks]


def _run_inequality_check(config: RunConfig) -> list[dict]:
    master = np.random.default_rng(config.seed)
    rows = []
    for trial in range(config.trials):
        n = int(master.integers(1, TRIAL_MAX_FUNCTIONS + 1))
        segments = int(master.integers(1, TRIAL_MAX_SEGMENTS + 1))
        direction = "increasing" if master.integers(2) else "decreasing"
        family_seed = int(master.integers(1 << 63))
        family = chebyshev.random_monotone_family(family_seed, n, direction, segments)
        result = chebyshev.check_inequality(family)
        rows.append({
            "trial": trial,
            "n": n,
            "lhs": result.lhs,
            "rhs": result.rhs,
            "margin": result.margin,
            "holds": result.holds,
        })
    return rows


def _run_simulate(config: RunConfig) -> list[dict]:
    seq = parse_sequence_spec(config.seq)
    result = covering.coverage_probability(seq, config.n, config.reps, config.seed)
    return [{
        "n_arcs": result.n_arcs,
        "replications": result.replications,
        "covered_count": result.covered_count,
        "p_hat": result.p_hat,
        "std_err": result.std_err,
    }]


def _run_pair_probe(config: RunConfig) -> list[dict]:
    seq = parse_sequence_spec(config.seq)
    lengths = generate(seq, config.n)
    exact = covering.pair_uncovered_exact(lengths, config.t)
    result = covering.pair_uncovered_mc(lengths, config.t, config.reps, config.seed)
    return [{
        "n_arcs": result.n_arcs,
        "t": config.t,
        "exact": exact,
        "count": result.covered_count,
        "p_hat": result.p_hat,
        "std_err": result.std_err,
    }]


_RUNNERS = {
    "integrate": _run_integrate,
    "bound": _run_bound,
    "divergence": _run_divergence,
    "criterion": _run_criterion,
    "inequality-check": _run_inequality_check,
    "simulate": _run_simulate,
    "pair-probe": _run_pair_probe,
}


# ---------------------------------------------------------------------------
# argument parsing

def _checkpoint_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"checkpoints must be integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("checkpoints list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arccover",
        description="Deterministic tables for random-arc circle covering computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = add("integrate", "exact product integral over [0, eps]")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("bound", "lower-bound certificate (m, log_C, g_log_sum, bound_log)")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("divergence", "certificate growth along checkpoints, with quadrature where affordable")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--checkpoints", type=_checkpoint_list, required=True)
    p.add_argument("--quadrature-cap", type=int, default=2000, dest="quadrature_cap")

    p = add("criterion", "partial sums of the covering criterion series")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checkpoints", type=_checkpoint_list, default=None,
                   help="emit only these row indices (default: all)")

    p = add("inequality-check", "randomized trials of the monotone-family integral inequality")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("simulate", "coverage probability after n arcs")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("pair-probe", "exact vs Monte Carlo two-point avoidance probability")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    picked = {k: v for k, v in vars(args).items() if k in known and v is not None}
    config = RunConfig(**picked)
    if config.n is not None and config.n < 0:
        raise ValueError(f"n must be nonnegative, got {config.n}")
    if config.reps is not None and config.reps < 1:
        raise ValueError(f"reps must be >= 1, got {config.reps}")
    if config.trials is not None and config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    if config.quadrature_cap < 0:
        raise ValueError(f"quadrature cap must be nonnegative, got {config.quadrature_cap}")
    return config


def run(config: RunConfig) -> str:
    """Execute one validated configuration and return the rendered document."""
    return render(config, _RUNNERS[config.command](config))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        document = run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    if config.out is None:
        sys.stdout.write(document)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(document)
    return 0
