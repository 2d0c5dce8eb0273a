"""One pass of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED SMOKE(0|1) TRACE(0|1) KEEP_DOCS(0|1)

Imports ``arccover`` from ``src/`` of the current directory, runs every
operation of the pass in-process (CLI commands through
``arccover.cli.main(argv)`` with stdout captured), and prints one JSON
object: pass wall and CPU time, per-operation wall times, exit codes,
document hashes, peak RSS, the traced layer metrics when TRACE is 1,
and the documents themselves when KEEP_DOCS is 1.  A fresh process per
pass means no cache survives from an earlier pass; the program's own
function caches are also cleared before each operation, because every
CLI invocation starts with them empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cache_clearers(package) -> list:
    """``cache_clear`` of every cached function that the package's modules hold."""
    seen, clearers = set(), []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clearers.append(clear)
    return clearers


def _run_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> int:
    workload, seed, smoke, trace, keep_docs = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1", argv[4] == "1"
    ops = workloads.build(workload, seed, smoke)

    import arccover  # noqa: F401  (the import is set-up, outside the timed pass)
    import arccover.cli as cli
    import arccover.covering as covering
    from arccover.sequences import LengthSequence

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(arccover.__file__).startswith(src + os.sep):
        print(f"arccover imported from {arccover.__file__}, not from {src}", file=sys.stderr)
        return 2

    clearers = _cache_clearers("arccover")
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install("arccover")

    times, codes, results, errors = [], [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.forget_orders()
        start = time.perf_counter()
        if op.argv is not None:
            code, result, error = _run_cli(cli, op.argv)
        else:
            p = op.params
            try:
                seq = LengthSequence(p["seq"]["family"], c=p["seq"]["c"], cap=p["seq"]["cap"])
                result = covering.gap_measure_samples(seq, p["n"], p["reps"], p["seed"])
                code, error = 0, ""
            except Exception as exc:  # reported as a failed operation, like a CLI exit 1
                result, code, error = "", 1, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        codes.append(code)
        results.append(result)
        errors.append(error)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    docs = [r if isinstance(r, str) else "\n".join(map(repr, r.tolist())) + "\n" for r in results]
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "cmd_s": times,
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "errors": [e[-500:] for e in errors],
        "hashes": [hashlib.sha256(d.encode("utf-8")).hexdigest() for d in docs],
        "docs": docs if keep_docs else None,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["absent"] = tracer.absent
        report["uncountable"] = sorted(tracer.uncountable)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
