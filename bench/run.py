"""Benchmark of the arccover CLI, run in-process from a source checkout.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quadrature --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke          # every workload at tiny sizes

A run repeats passes over the workload's operations, each pass in a
fresh interpreter (``bench/worker.py``), until the next pass would end
after ``--seconds``; at least two passes always run.  Between passes,
about every five seconds, a fresh interpreter times
``import arccover, arccover.cli`` for ``setup_s``.  Every operation's
document is hashed in every pass (the same command must give the same
bytes) and the first pass's documents are checked against the oracles
in ``bench/checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of
``bench/tracing.py``; every value is a median over the run's passes
(``setup_s``: over its import samples).  The full record of the run goes
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 5
PROBE_EVERY_S = 5.0
MIN_PASSES = 2
# Every child is killed once the whole run has taken this long.
DEADLINE_S = 170.0
_STARTED = time.monotonic()

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import arccover, arccover.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    # Bytecode caches on, as for an installed package, whatever the caller's setting.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def _time_left() -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - _STARTED))


def probe_import() -> float:
    """Time to import ``arccover`` and ``arccover.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(), check=True,
                         capture_output=True, text=True, timeout=_time_left()).stdout
    return float(out.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, smoke: bool, trace: bool, keep_docs: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(int(smoke)), str(int(trace)), str(int(keep_docs))]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=_time_left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    ops = workloads.build(workload, seed, smoke)
    probe_import()  # writes the bytecode caches; not counted
    setup = [probe_import()]

    # Whole passes only, and none that would end after `seconds`.  Import
    # probes run between passes, so set-up is sampled across the run.
    passes, durations = [], []
    start = last_probe = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            not smoke and time.perf_counter() - start + durations[-1] <= seconds):
        began = time.perf_counter()
        passes.append(run_pass(workload, seed, smoke, trace, keep_docs=not passes))
        durations.append(time.perf_counter() - began)
        if not smoke and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            setup.append(probe_import())
            last_probe = time.perf_counter()
    while len(setup) < (1 if smoke else MIN_SETUP_SAMPLES):
        setup.append(probe_import())

    # An operation fails in every pass when it exits non-zero, when its
    # document differs between passes, or when the document fails a check.
    failures = {}
    for i, op in enumerate(ops):
        why = [f"exit {p['codes'][i]}: {p['errors'][i].strip()}" for p in passes if p["codes"][i] != 0][:1]
        if not why and len({p["hashes"][i] for p in passes}) != 1:
            why = ["document bytes differ between passes"]
        if not why:
            why = checks.check(op, passes[0]["docs"][i])
        if why:
            failures[op.label] = why
    wrong = any(not msg.startswith("exit ") for why in failures.values() for msg in why)

    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "cmd_p50_s": statistics.median(statistics.median(p["cmd_s"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "ops": [op.label for op in ops],
        "passes": len(passes),
        "setup_samples": setup,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "pass_op_s": [p["cmd_s"] for p in passes],
        "op_s_median": {op.label: statistics.median(p["cmd_s"][i] for p in passes)
                        for i, op in enumerate(ops)},
        "end_to_end": end_to_end,
        "failures": failures,
        "correct": not wrong,
        "attempted": len(ops) * len(passes),
        "failed": len(failures) * len(passes),
    }
    if trace:
        names = tracing.metric_names()
        record["layers"] = {name: statistics.median(p["layers"][name] for p in passes) for name in names}
        record["absent"] = passes[0]["absent"]
        record["uncountable"] = passes[0]["uncountable"]
    return record


def result_line(record: dict) -> str:
    if record["trace"]:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in record["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in record["end_to_end"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def _layer_unit(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    return {"self_s": "s", "bytes": "B"}.get(field, "count")


def _save(record: dict, name: str) -> None:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def smoke() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        record = run_workload(workload, seed=1, seconds=0, trace=True, smoke=True)
        _save(record, f"smoke-{workload}.json")
        print(f"{workload}: {record['attempted']} attempted, {record['failed']} failed, "
              f"correct={record['correct']}, {record['passes']} passes, "
              f"wall_s={record['end_to_end']['wall_s']:.3f}")
        for label, why in record["failures"].items():
            print(f"  {label}: {'; '.join(why)}")
        ok = ok and record["correct"] and record["failed"] == 0 and not record["absent"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny sizes, all checks on")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "arccover", "cli.py")):
        print("bench/run.py: run from the root of an arccover checkout (src/arccover not found)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _save(record, f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json")
    for label, why in record["failures"].items():
        print(f"FAILED {label}: {'; '.join(why)}", file=sys.stderr)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
