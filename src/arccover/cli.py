"""Batch command-line front end emitting deterministic CSV or JSON tables.

Identical configurations produce byte-identical output: the full
configuration is echoed into every document, and no timestamps or
environment state leak in.  Seeds are always explicit flags;
environment variables are deliberately not consulted.

Every cell, in CSV and in JSON, is formatted by one rule: None is empty
in CSV and ``null`` in JSON, booleans are ``true``/``false``, integers
are decimal, and floats are ``"%.17g"`` (lossless round trips), which
prints ``inf``/``-inf``/``nan`` in CSV; JSON writes ``null`` for a
non-finite float.  No cell needs CSV quoting.  Rows are formatted in
blocks: each column's slice of a block is converted to Python scalars
once, and a slice of one type gets that type's formatter once.  Each
block's rows are joined into one string, and the blocks into the
document, so no column of cell strings and no list of every row is held.

Exit status: 0 success, 1 runtime error, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import chebyshev, covering, integrals
from ._philox import check_seed
from .sequences import generate, parse_sequence_spec

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
    quadrature_cap: int = integrals.DEFAULT_QUADRATURE_CAP
    format: str = "json"
    out: str | None = None


# ---------------------------------------------------------------------------
# deterministic serialization

# The one cell rule, as a formatter per cell type; JSON differs in three types.
_CSV_CELL = {
    float: "%.17g".__mod__,
    int: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "",
    str: str,
}
_JSON_CELL = {
    **_CSV_CELL,
    float: lambda value: "%.17g" % value if math.isfinite(value) else "null",
    type(None): lambda value: "null",
    str: json.dumps,
}

# Rows are formatted per block: each column's slice is converted with one .tolist().
_BLOCK_ROWS = 4096


def _cell(value, as_json: bool) -> str:
    """A scalar, in a CSV cell or as a JSON value."""
    formats = _JSON_CELL if as_json else _CSV_CELL
    format_cell = formats.get(type(value))
    if format_cell:
        return format_cell(value)
    if isinstance(value, np.generic):
        return _cell(value.item(), as_json)
    return formats[str](str(value))


def _column_block(column, start: int, as_json: bool):
    """The formatted cells of one column in rows start .. start + _BLOCK_ROWS, as an iterator."""
    chunk = column[start:start + _BLOCK_ROWS]
    values = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
    formats = _JSON_CELL if as_json else _CSV_CELL
    kinds = set(map(type, values))
    format_cell = formats.get(kinds.pop()) if len(kinds) == 1 else None
    if format_cell:
        return map(format_cell, values)
    return (_cell(value, as_json) for value in values)


def _setting(value, as_json: bool) -> str:
    """A configuration value: a cell, or a tuple of cells (the checkpoints)."""
    if not isinstance(value, tuple):
        return _cell(value, as_json)
    if as_json:
        return "[" + ", ".join(_cell(v, True) for v in value) + "]"
    return ";".join(_cell(v, False) for v in value)


def _json_object(members, indent: str) -> str:
    """A JSON object from (quoted key, formatted value) pairs, one member per line."""
    lines = ",\n".join(f"{indent}  {key}: {value}" for key, value in members)
    return "{\n" + lines + "\n" + indent + "}"


def render(config: RunConfig, columns: dict) -> str:
    """The document of one run: the configuration echo, then the rows.

    ``columns`` maps each column name, in order, to its cells (a list,
    a range or a numpy array), all of one length.
    """
    as_json = config.format == "json"
    settings = [(f.name, getattr(config, f.name)) for f in fields(config)]
    count = len(next(iter(columns.values()), ()))
    # One row's layout, with %s for each cell.
    if as_json:
        fmt = "    " + _json_object([(json.dumps(name).replace("%", "%%"), "%s") for name in columns], "    ")
    else:
        fmt = ",".join(["%s"] * len(columns))
    separator = ",\n" if as_json else "\n"
    blocks = []
    for start in range(0, count, _BLOCK_ROWS):
        cells = zip(*(_column_block(column, start, as_json) for column in columns.values()))
        blocks.append(separator.join(map(fmt.__mod__, cells)))
    if as_json:
        config_doc = _json_object([(json.dumps(key), _setting(value, True)) for key, value in settings], "  ")
        head = '{\n  "config": ' + config_doc + ',\n  "rows": '
        empty, first, last = "[]\n}\n", "[\n", "\n  ]\n}\n"
    else:
        head = "".join(f"# {key}={_setting(value, False)}\n" for key, value in settings)
        empty, first, last = "", ",".join(columns) + "\n", "\n"
    if not blocks:
        return head + empty
    # Head and tail ride on the first and last block, so the document is copied once.
    blocks[0] = head + first + blocks[0]
    blocks[-1] += last
    return separator.join(blocks)


# ---------------------------------------------------------------------------
# command implementations (each returns its columns, {name: cells})

def _run_integrate(config: RunConfig) -> dict:
    seq = parse_sequence_spec(config.seq)
    lengths = generate(seq, config.n) if config.n else []
    result = integrals.product_integral(lengths, config.eps)
    return {
        "n": [config.n],
        "eps": [config.eps],
        "value": [result.value],
        "log_value": [result.log_value],
        "segment_count": [result.segment_count],
        "nodes_per_segment": [result.nodes_per_segment],
    }


def _run_bound(config: RunConfig) -> dict:
    seq = parse_sequence_spec(config.seq)
    lengths = generate(seq, config.n) if config.n else []
    cert = integrals.shepp_lower_bound(lengths, config.eps)
    return {
        "n": [config.n],
        "eps": [config.eps],
        "m": [cert.m],
        "log_C": [cert.log_C],
        "g_log_sum": [cert.g_log_sum],
        "bound_log": [cert.bound_log],
    }


def _run_divergence(config: RunConfig) -> dict:
    seq = parse_sequence_spec(config.seq)
    rows = integrals.divergence_table(seq, config.eps, config.checkpoints,
                                      quadrature_cap=config.quadrature_cap)
    return {
        "n": [row.n for row in rows],
        "log_product_integral": [row.log_product_integral for row in rows],
        "bound_log": [row.bound_log for row in rows],
        "g_log_sum": [row.g_log_sum for row in rows],
    }


def _run_criterion(config: RunConfig) -> dict:
    picks = np.arange(config.n)
    if config.checkpoints:
        # Rows follow the given order; checkpoint 0 selects no row.
        checkpoints = config.checkpoints
        if min(checkpoints) < 0 or max(checkpoints) > config.n or len(set(checkpoints)) < len(checkpoints):
            raise ValueError(f"checkpoints must be distinct and lie in 0..n = {config.n}")
        picks = np.array([c - 1 for c in checkpoints if c >= 1], dtype=np.int64)
    seq = parse_sequence_spec(config.seq)
    series = integrals.criterion_partial_sums(seq, config.n)
    return {
        "n": picks + 1,
        "log_term": series.partial_log_terms[picks],
        "log_partial_sum": series.log_partial_sums[picks],
        "partial_sum": series.partial_sums[picks],
    }


def _run_inequality_check(config: RunConfig) -> dict:
    master = np.random.default_rng(check_seed(config.seed))
    sizes, sides = [], []
    for _ in range(config.trials):
        n = int(master.integers(1, TRIAL_MAX_FUNCTIONS + 1))
        segments = int(master.integers(1, TRIAL_MAX_SEGMENTS + 1))
        direction = "increasing" if master.integers(2) else "decreasing"
        family_seed = int(master.integers(1 << 63))
        sizes.append(n)
        sides.append(chebyshev._evaluate(*chebyshev._family_rows(family_seed, n, direction, segments)))
    lhs, rhs = np.array(sides).T
    return {
        "trial": range(config.trials),
        "n": sizes,
        "lhs": lhs,
        "rhs": rhs,
        "margin": lhs - rhs,
        "holds": chebyshev._holds(lhs, rhs),
    }


def _run_simulate(config: RunConfig) -> dict:
    seq = parse_sequence_spec(config.seq)
    result = covering.coverage_probability(seq, config.n, config.reps, config.seed)
    return {
        "n_arcs": [result.n_arcs],
        "replications": [result.replications],
        "covered_count": [result.covered_count],
        "p_hat": [result.p_hat],
        "std_err": [result.std_err],
    }


def _run_pair_probe(config: RunConfig) -> dict:
    seq = parse_sequence_spec(config.seq)
    lengths = generate(seq, config.n)
    exact = covering.pair_uncovered_exact(lengths, config.t)
    result = covering.pair_uncovered_mc(lengths, config.t, config.reps, config.seed)
    return {
        "n_arcs": [result.n_arcs],
        "t": [config.t],
        "exact": [exact],
        "count": [result.covered_count],
        "p_hat": [result.p_hat],
        "std_err": [result.std_err],
    }


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

    for name, help_text in (("integrate", "exact product integral over [0, eps]"),
                            ("bound", "lower-bound certificate (m, log_C, g_log_sum, bound_log)")):
        p = add(name, help_text)
        p.add_argument("--seq", required=True)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--n", type=int, required=True)

    p = add("divergence", "certificate growth along checkpoints, with quadrature where affordable")
    p.add_argument("--seq", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--checkpoints", type=_checkpoint_list, required=True)
    p.add_argument("--quadrature-cap", type=int, dest="quadrature_cap")

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


_PARSER = build_parser()  # once per process: building it costs more than a small command


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
