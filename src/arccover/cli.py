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
blocks of _BLOCK_ROWS, and each column's slice of a block has one kind
(``_kind``): float64, int64, bool, or None for any other cells.  The two
ways to format a block read the kinds, and give the same bytes:

* A block of _KERNEL_MIN_ROWS rows or more with no kind None is written
  as bytes: every cell goes into one uint8 slot matrix, a band of slot
  rows per column and a constant slot row per byte of the row template,
  and the matrix is read row by row with its NUL (empty) slots deleted.
  Floats take an exact vectorised ``%.17g`` (a double-double product
  with a certainty test, after Grisu3; see the kernel's comment),
  integers a digit kernel and booleans a ``true``/``false`` band.  It
  uses IEEE basic operations only, and ``log10`` only as an estimate it
  checks, so no choice of CPU kernels reaches its bytes; a float its
  test does not certify is formatted by the cell rule.
* Any other block converts each column's slice to Python scalars once,
  and its kind gives the row format its directive: ``%d`` for ints,
  ``%.17g`` for floats (in JSON only if all are finite) and ``%s`` with
  the cells formatted by the cell rule for any other slice.

``main`` writes each block as it is formed, after every column is
computed, so an invalid run still writes nothing; ``render`` and ``run``
return the whole document.

Each command's runner calls the library and names the columns; the
inequality-check protocol is ``chebyshev.inequality_trials``.

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
from .sequences import generate, parse_sequence_spec


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

# Rows are formatted per block of _BLOCK_ROWS rows.  A block of at least
# _KERNEL_MIN_ROWS rows whose every column has a kind is written as bytes
# (_block_bytes); any other by %-directives per column (_column_block).
# Below the cutoff the kernel's fixed cost of about 100 array passes per
# column outweighs what it saves on each cell (see CHANGES.md).
_BLOCK_ROWS = 8192
_KERNEL_MIN_ROWS = 1024


def _cell(value, as_json: bool) -> str:
    """A scalar, in a CSV cell or as a JSON value."""
    formats = _JSON_CELL if as_json else _CSV_CELL
    format_cell = formats.get(type(value))
    if format_cell:
        return format_cell(value)
    if isinstance(value, np.generic):
        return _cell(value.item(), as_json)
    return formats[str](str(value))


_KINDS = {float: "f", int: "i", bool: "b"}


def _kind(chunk) -> str | None:
    """The kind of a block's slice of a column: "f" float64, "i" int64, "b" bool; None for any other."""
    if isinstance(chunk, np.ndarray):
        kind, size = chunk.dtype.kind, chunk.dtype.itemsize
        if kind == "f" and size <= 8:
            return "f"
        if kind == "i" or kind == "u" and size < 8:
            return "i"
        return "b" if kind == "b" else None
    types = set(map(type, chunk))
    kind = _KINDS.get(types.pop()) if len(types) == 1 else None
    if kind == "i" and not -(2**63) <= min(chunk) <= max(chunk) < 2**63:
        return None
    return kind


def _column_block(chunk, kind: str | None, as_json: bool) -> tuple[str, object]:
    """One column's slice of a block: its row-format directive (see the module docstring) and the values."""
    values = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
    if kind == "i":
        return "%d", values
    if kind == "f" and (not as_json or all(map(math.isfinite, values))):
        return "%.17g", values
    if kind is None:
        return "%s", (_cell(value, as_json) for value in values)
    formats = _JSON_CELL if as_json else _CSV_CELL
    return "%s", map(formats[float if kind == "f" else bool], values)


# ---------------------------------------------------------------------------
# the byte kernel: a block's cells as slots of one uint8 matrix
#
# Each column owns a fixed band of slot rows of the block's matrix, one
# matrix column per document row; a NUL byte is an empty slot, and the
# block is the matrix read row by row with every NUL deleted.
#
# A float x with 1e-290 <= |x| < 1e290 (so that P below, its halves and
# p_lo are normal doubles) takes k = floor(log10 |x|) as an estimate and
# D = round(|x| * P), P = 10**(16 - k), from a double-double
# P = p_hi + p_lo + O(u**2 P), u = 2**-53: p_hi and p_lo are correctly
# rounded doubles made from Python ints, once per distinct k.  Veltkamp's
# split and Dekker's TwoProduct give |x| * p_hi = h + e exactly (separate
# IEEE operations; numpy never fuses them), and t = fl(e + fl(|x| * p_lo)).
# log10 errs by an ulp or so, so k is at most one off and |x| * P < 2**60;
# then |e| <= 64 and |fl(|x| * p_lo)| <= 128, and t misses |x| * P - h by
# at most u * 192 for its own rounding, 2**-46 for that of |x| * p_lo and
# 2**-46 for the omitted P - p_hi - p_lo: under 2**-44 in all.  Where
# frac(t) is farther than _CERTAIN from 1/2 and 10**16 < h + round(t) <
# 10**17, h is an integer (> 2**53), D = h + round(t) is |x| * P correctly
# rounded, k was right, and "%.17g" prints D's 17 digits with exponent k.
# Every other cell (zero, subnormal, huge, non-finite, a near-tie, a wrong
# k) is formatted by _cell and patched in.
_SPLIT = 134217729.0  # 2**27 + 1
_CERTAIN = 2.0 ** -40
_FLOAT_SLOTS = 44  # sign, "0.000", d0, then (point, digit) x 16, "e+123"
_INT_SLOTS = 20  # sign and 19 digits
_SLOTS = {"f": _FLOAT_SLOTS, "i": _INT_SLOTS, "b": 5}  # a bool is "true" or "false"
_TRUE, _FALSE = (np.frombuffer(word, dtype=np.uint8)[:, None] for word in (b"true\0", b"false"))
_MINUS, _POINT = np.uint8(ord("-")), np.uint8(ord("."))
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_FROM = np.arange(0, -5, -1, dtype=np.int16)[:, None]  # a lead slot is written for k <= this
_DIGIT = np.arange(17, dtype=np.int16)[:, None]


def _powers_of_ten(ks) -> np.ndarray:
    """Rows hh, hl, lo for each k: p_hi = hh + hl split in halves, and p_lo, for P = 10**(16 - k)."""
    rows = []
    for k in ks:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        p_hi = num / den  # int / int is correctly rounded
        a, b = p_hi.as_integer_ratio()
        mantissa, exponent = math.frexp(p_hi)
        c = mantissa * _SPLIT
        high = c - (c - mantissa)
        rows.append((math.ldexp(high, exponent), math.ldexp(mantissa - high, exponent),
                     (num * b - a * den) / (den * b)))
    return np.array(rows).T


def _digits(value: np.ndarray, out: np.ndarray) -> None:
    """The last len(out) decimal digits of a uint32 array into out's rows, most significant first."""
    for row in out[::-1]:
        quotient = value // 10
        row[:] = value - quotient * 10
        value = quotient


def _float_slots(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Write ``"%.17g" % x`` into out's _FLOAT_SLOTS rows; return the cells left to _cell."""
    magnitude = np.abs(x)
    ok = (magnitude >= 1e-290) & (magnitude < 1e290)
    a = np.where(ok, magnitude, 1.0)
    k = np.floor(np.log10(a)).astype(np.int16)
    k_min = int(k.min())
    powers = np.zeros((3, int(k.max()) - k_min + 1))
    present = np.flatnonzero(np.bincount(k - k_min))
    powers[:, present] = _powers_of_ten((present + k_min).tolist())
    hh, hl, lo = powers.take(k - k_min, axis=1) if len(present) > 1 else powers
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    h = a * (hh + hl)
    t = (((ah * hh - h) + ah * hl) + al * hh) + al * hl + a * lo
    floor = np.floor(t)
    frac = t - floor
    ok &= np.abs(frac - 0.5) > _CERTAIN
    d = h.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    ok &= (d > 10**16) & (d < 10**17)
    d[~ok] = 10**16 + 1  # any 17 digits; _cell rewrites these cells
    high = d // 10**9
    digits = np.empty((17, x.size), dtype=np.uint8)
    _digits(high.astype(np.uint32), digits[:8])
    _digits((d - high * 10**9).astype(np.uint32), digits[8:])

    scientific = (k < -4) | (k > 16)
    point = np.where(scientific, 0, np.maximum(k, -1))  # the digit the point follows; -1: "0.000" leads
    # A digit is written up to the last nonzero one, and always up to the point.
    written = digits != 0
    for i in range(15, 0, -1):
        written[i] |= written[i + 1]
    written |= _DIGIT <= point
    out[0] = np.signbit(x) * _MINUS
    small = point < 0
    out[1:6] = ((_LEAD_FROM >= k) & small) * _LEAD if small.any() else 0
    out[6:39:2] = (digits + ord("0")) * written
    out[7:38:2] = ((_DIGIT[:16] == point) & written[1:]) * _POINT
    out[39:44] = 0
    if scientific.any():
        exponent = np.abs(k)
        out[39] = scientific * np.uint8(ord("e"))
        out[40] = scientific * np.where(k < 0, _MINUS, np.uint8(ord("+")))
        out[41] = (scientific & (exponent >= 100)) * (exponent // 100 + ord("0"))
        out[42] = scientific * (exponent // 10 % 10 + ord("0"))
        out[43] = scientific * (exponent % 10 + ord("0"))
    return np.flatnonzero(~ok)


def _int_slots(out: np.ndarray, v: np.ndarray) -> None:
    """Write the decimal int64s ``v`` into out's _INT_SLOTS rows."""
    magnitude = np.where(v < 0, -v, v).view(np.uint64)  # -(-2**63) wraps to 2**63
    top = magnitude // 10**18
    rest = magnitude - top * 10**18
    middle = rest // 10**9
    digits = np.empty((19, v.size), dtype=np.uint8)
    digits[0] = top
    _digits(middle.astype(np.uint32), digits[1:10])
    _digits((rest - middle * 10**9).astype(np.uint32), digits[10:])
    # Leading zeros are not written; the units digit always is.
    written = digits != 0
    for i in range(1, 18):
        written[i] |= written[i - 1]
    written[-1] = True
    out[0] = (v < 0) * _MINUS
    out[1:] = (digits + ord("0")) * written


def _block_bytes(chunks, kinds, literals, as_json: bool, count: int) -> str:
    """One block's rows, each followed by the row separator, from one uint8 slot matrix.

    Each column's slice has a kind (``_kind``), none of them None.
    ``literals`` are the row template's constant parts, one before each
    column and one after the last.
    """
    widths = [_SLOTS[kind] for kind in kinds]
    matrix = np.empty((sum(widths) + sum(map(len, literals)), count), dtype=np.uint8)
    row = 0
    for literal, chunk, kind, width in zip(literals, chunks + [None], kinds + [None], widths + [0]):
        matrix[row:row + len(literal)] = np.frombuffer(literal, dtype=np.uint8)[:, None]
        row += len(literal)
        out = matrix[row:row + width]
        row += width
        if kind == "f":
            values = np.asarray(chunk, dtype=np.float64)
            for i in _float_slots(out, values):
                text = _cell(float(values[i]), as_json).encode()
                out[:, i] = 0
                out[:len(text), i] = np.frombuffer(text, dtype=np.uint8)
        elif kind == "i":
            _int_slots(out, np.asarray(chunk, dtype=np.int64))
        elif kind == "b":
            out[:] = np.where(np.asarray(chunk, dtype=bool), _TRUE, _FALSE)
    # Slot rows empty in every row of the block (a sign, lead or exponent no
    # cell needs) are dropped before the transpose, which costs per slot.
    matrix = matrix[matrix.any(axis=1)]
    return matrix.T.tobytes().translate(None, b"\0").decode("ascii")


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


def _document(config: RunConfig, columns: dict):
    """The document of one run, as an iterator of its pieces (see render).

    The columns' lengths are checked here, before the first piece.
    """
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError("columns differ in length: " + ", ".join(f"{k}={v}" for k, v in lengths.items()))
    return _pieces(config, columns, next(iter(lengths.values()), 0))


def _pieces(config: RunConfig, columns: dict, count: int):
    as_json = config.format == "json"
    settings = [(f.name, getattr(config, f.name)) for f in fields(config)]
    if as_json:
        config_doc = _json_object([(json.dumps(key), _setting(value, True)) for key, value in settings], "  ")
        head = '{\n  "config": ' + config_doc + ',\n  "rows": '
        empty, first, last = "[]\n}\n", "[\n", "\n  ]\n}\n"
    else:
        head = "".join(f"# {key}={_setting(value, False)}\n" for key, value in settings)
        empty, first, last = "", ",".join(columns) + "\n", "\n"
    if not count:
        yield head + empty
        return
    yield head + first
    keys = [json.dumps(name) for name in columns]
    separator = ",\n" if as_json else "\n"
    if as_json:
        literals = ["    {\n      " + keys[0] + ": "]
        literals += [",\n      " + key + ": " for key in keys[1:]]
        literals.append("\n    }" + separator)
    else:
        literals = [""] + [","] * (len(keys) - 1) + [separator]
    escaped = [literal.replace("%", "%%") for literal in literals]
    literals = [literal.encode() for literal in literals]
    for start in range(0, count, _BLOCK_ROWS):
        chunks = [column[start:start + _BLOCK_ROWS] for column in columns.values()]
        kinds = [_kind(chunk) for chunk in chunks]
        rows = min(_BLOCK_ROWS, count - start)
        if rows >= _KERNEL_MIN_ROWS and None not in kinds:
            text = _block_bytes(chunks, kinds, literals, as_json, rows)
        else:
            directives, cells = zip(*(_column_block(chunk, kind, as_json) for chunk, kind in zip(chunks, kinds)))
            # One row's layout, with each column's directive for this block.
            fmt = "".join(map(str.__add__, escaped, directives + ("",)))
            text = "".join(map(fmt.__mod__, zip(*cells)))
        if start + _BLOCK_ROWS >= count:
            text = text[:-len(separator)] + last
        yield text


def render(config: RunConfig, columns: dict) -> str:
    """The document of one run: the configuration echo, then the rows.

    ``columns`` maps each column name, in order, to its cells (a list,
    a range or a numpy array), all of one length; ValueError names the
    lengths otherwise.
    """
    return "".join(_document(config, columns))


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
    if config.checkpoints:
        # Rows follow the given order; checkpoint 0 selects no row.
        checkpoints = config.checkpoints
        if min(checkpoints) < 0 or max(checkpoints) > config.n or len(set(checkpoints)) < len(checkpoints):
            raise ValueError(f"checkpoints must be distinct and lie in 0..n = {config.n}")
        n = np.array([c for c in checkpoints if c >= 1], dtype=np.int64)
        stops = np.sort(n)
        series = integrals.criterion_partial_sums(parse_sequence_spec(config.seq), config.n, stops.tolist())
        picks = np.searchsorted(stops, n)
    else:
        series = integrals.criterion_partial_sums(parse_sequence_spec(config.seq), config.n)
        n, picks = np.arange(1, config.n + 1), slice(None)
    return {
        "n": n,
        "log_term": series.partial_log_terms[picks],
        "log_partial_sum": series.log_partial_sums[picks],
        "partial_sum": series.partial_sums[picks],
    }


def _run_inequality_check(config: RunConfig) -> dict:
    sizes, lhs, rhs, holds = chebyshev.inequality_trials(config.seed, config.trials)
    return {
        "trial": range(config.trials),
        "n": sizes,
        "lhs": lhs,
        "rhs": rhs,
        "margin": lhs - rhs,
        "holds": holds,
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


# Each command: its runner, its help line and its flags beyond --format and
# --out, each mapped to its type (None: a string), as a required flag, or to
# all of its add_argument keywords.
_COMMANDS = {
    "integrate": (_run_integrate, "exact product integral over [0, eps]",
                  {"--seq": None, "--eps": float, "--n": int}),
    "bound": (_run_bound, "lower-bound certificate (m, log_C, g_log_sum, bound_log)",
              {"--seq": None, "--eps": float, "--n": int}),
    "divergence": (_run_divergence, "certificate growth along checkpoints, with quadrature where affordable",
                   {"--seq": None, "--eps": float, "--checkpoints": _checkpoint_list,
                    "--quadrature-cap": {"type": int, "dest": "quadrature_cap"}}),
    "criterion": (_run_criterion, "partial sums of the covering criterion series",
                  {"--seq": None, "--n": int,
                   "--checkpoints": {"type": _checkpoint_list, "default": None,
                                     "help": "emit only these row indices (default: all)"}}),
    "inequality-check": (_run_inequality_check, "randomized trials of the monotone-family integral inequality",
                         {"--trials": int, "--seed": int}),
    "simulate": (_run_simulate, "coverage probability after n arcs",
                 {"--seq": None, "--n": int, "--reps": int, "--seed": int}),
    "pair-probe": (_run_pair_probe, "exact vs Monte Carlo two-point avoidance probability",
                   {"--seq": None, "--n": int, "--t": float, "--reps": int, "--seed": int}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arccover",
        description="Deterministic tables for random-arc circle covering computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        for flag, spec in flags.items():
            p.add_argument(flag, **(spec if isinstance(spec, dict) else {"type": spec, "required": True}))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    picked = {k: v for k, v in vars(args).items() if k in known and v is not None}
    config = RunConfig(**picked)
    if config.n is not None and config.n < 0:
        raise ValueError(f"n must be nonnegative, got {config.n}")
    if config.reps is not None and config.reps < 1:
        raise ValueError(f"reps must be >= 1, got {config.reps}")
    if config.quadrature_cap < 0:
        raise ValueError(f"quadrature cap must be nonnegative, got {config.quadrature_cap}")
    return config


def run(config: RunConfig) -> str:
    """Execute one validated configuration and return the rendered document."""
    return render(config, _COMMANDS[config.command][0](config))


_PARSER = build_parser()  # once per process: building it costs more than a small command


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _config_from_args(args)
        document = _document(config, _COMMANDS[config.command][0](config))
        fh = None if config.out is None else open(config.out, "w", encoding="utf-8", newline="\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    # Each block is written as it is formed; every column is already computed.
    if fh is None:
        sys.stdout.writelines(document)
    else:
        with fh:
            fh.writelines(document)
    return 0
