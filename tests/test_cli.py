import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arccover import _accum, cli
from arccover.chebyshev import random_monotone_family
from arccover.cli import TRIAL_MAX_FUNCTIONS, TRIAL_MAX_SEGMENTS, RunConfig, _cell, main, render
from arccover.sequences import generate, parse_sequence_spec

from conftest import mp_log_product_integral, subprocess_env

GOLDEN_DIR = Path(__file__).parent / "golden"

# Output schema stability: these exact invocations are frozen as golden
# files; a schema change or a verified change of numerical rule must
# regenerate them deliberately (tests/refresh_goldens.py).  Configs that
# would echo machine-specific state (paths) pin it explicitly.
GOLDEN_CASES = {
    "integrate.json": ["integrate", "--seq", "harmonic:c=1,cap=0.49", "--eps", "0.25", "--n", "5",
                       "--format", "json"],
    "bound.csv": ["bound", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25", "--n", "20",
                  "--format", "csv"],
    "divergence.json": ["divergence", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25",
                        "--checkpoints", "0,5,25", "--format", "json"],
    "criterion.csv": ["criterion", "--seq", "constant:c=0.5", "--n", "5", "--format", "csv"],
    # The README command: Sum2 over 10^5 length terms.
    "criterion_readme.csv": ["criterion", "--seq", "harmonic:c=2,cap=0.99", "--n", "100000",
                             "--checkpoints", "10,1000,100000", "--format", "csv"],
    "inequality_check.csv": ["inequality-check", "--trials", "5", "--seed", "7", "--format", "csv"],
    # The README command: 1,000 random families through the array kernel.
    "inequality_check_readme.csv": ["inequality-check", "--trials", "1000", "--seed", "7",
                                    "--format", "csv"],
    "simulate.json": ["simulate", "--seq", "harmonic:c=2,cap=0.99", "--n", "50", "--reps", "100",
                      "--seed", "42", "--format", "json"],
    "pair_probe.csv": ["pair-probe", "--seq", "harmonic:c=0.2,cap=0.3", "--n", "3", "--t", "0.15",
                       "--reps", "1000", "--seed", "11", "--format", "csv"],
    # value overflows: inf in CSV, null in JSON
    "integrate_overflow.csv": ["integrate", "--seq", "constant:c=0.45", "--eps", "0.05",
                               "--n", "1500", "--format", "csv"],
}
# Each case in the other format as well, so both renderers are pinned.
GOLDEN_CASES.update({
    name.rsplit(".", 1)[0] + (".json" if name.endswith(".csv") else ".csv"):
        argv[:-1] + ["json" if name.endswith(".csv") else "csv"]
    for name, argv in list(GOLDEN_CASES.items())
})


def run_cli(argv, capsys) -> str:
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 0, captured.err
    return captured.out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys):
    out = run_cli(GOLDEN_CASES[name], capsys)
    expected = (GOLDEN_DIR / name).read_text()
    assert out == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_repeat_runs_byte_identical(name, capsys):
    first = run_cli(GOLDEN_CASES[name], capsys)
    second = run_cli(GOLDEN_CASES[name], capsys)
    assert first == second


def test_golden_commands_build_no_rule_above_the_cap(rule_orders, capsys):
    for argv in GOLDEN_CASES.values():
        run_cli(argv, capsys)
    assert rule_orders and max(rule_orders) <= _accum.MAX_NODES


def test_main_reuses_one_parser(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main must not build a parser per call")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    for name in ("integrate.json", "inequality_check.csv"):
        assert run_cli(GOLDEN_CASES[name], capsys) == (GOLDEN_DIR / name).read_text()
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_out_flag_writes_same_bytes(tmp_path, capsys):
    target = tmp_path / "doc.json"
    stdout_doc = run_cli(GOLDEN_CASES["integrate.json"], capsys)
    status = main(GOLDEN_CASES["integrate.json"] + ["--out", str(target)])
    capsys.readouterr()
    assert status == 0
    on_disk = target.read_text()
    # only the echoed out path differs
    assert on_disk.replace(json.dumps(str(target)), "null") == stdout_doc
    assert json.loads(on_disk)["rows"] == json.loads(stdout_doc)["rows"]


def test_explicit_file_sequence_deterministic(tmp_path, capsys):
    path = tmp_path / "ls.txt"
    path.write_text("0.4\n0.3\n0.1\n")
    argv = ["simulate", "--seq", f"explicit:file={path}", "--n", "3", "--reps", "50",
            "--seed", "42"]
    assert run_cli(argv, capsys) == run_cli(argv, capsys)


def test_module_entry_point(tmp_path):
    env = subprocess_env()
    cmd = [sys.executable, "-m", "arccover"] + GOLDEN_CASES["criterion.csv"]
    a = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout == (GOLDEN_DIR / "criterion.csv").read_text()


# Environment switches that make a process pick other CPU kernels, as it
# would on a CPU without AVX-512 or FMA, and the goldens each is known to
# move: numpy's AVX-512 float64 log/exp reach the divergence table, and
# glibc's FMA libm reaches the 1,000-trial inequality check through
# `eps ** (n - 1)`.  Names numpy does not dispatch on are ignored with an
# ImportWarning, so one list serves every numpy release and CPU.
KERNEL_SWITCHES = {
    "numpy-without-avx512": (
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX AVX512_SKX "
                                     "AVX512F AVX512CD AVX512VL AVX512BW AVX512DQ X86_V4"},
        {"divergence.csv", "divergence.json"},
    ),
    "glibc-without-fma": (
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-AVX2_Usable,-FMA_Usable"},
        {"inequality_check_readme.csv", "inequality_check_readme.json"},
    ),
}

# Reads {name: argv} on stdin and writes {name: document or null} on stdout.
RUN_COMMANDS = """
import contextlib, io, json, sys
from arccover.cli import main
docs = {}
for name, argv in json.load(sys.stdin).items():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    docs[name] = buffer.getvalue() if status == 0 else None
json.dump(docs, sys.stdout)
"""


@pytest.mark.parametrize("switch", sorted(KERNEL_SWITCHES))
def test_other_cpu_kernels_move_only_known_goldens(switch, tmp_path):
    # Monte Carlo decides on integer words and float basic operations, so
    # no kernel choice may reach the simulate and pair-probe documents.
    variables, known = KERNEL_SWITCHES[switch]
    proc = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c", RUN_COMMANDS],
                          input=json.dumps(GOLDEN_CASES), capture_output=True, text=True,
                          cwd=tmp_path, env={**subprocess_env(), **variables}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    docs = json.loads(proc.stdout)
    assert sorted(docs) == sorted(GOLDEN_CASES)
    assert [name for name, doc in docs.items() if doc is None] == []
    moved = {name for name, doc in docs.items() if doc != (GOLDEN_DIR / name).read_text()}
    assert moved <= known


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import arccover.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_documents_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, some 15 ms, on its first call; no command needs it.
    argvs = [GOLDEN_CASES[name] for name in ("integrate.json", "bound.csv", "divergence.json",
                                             "criterion.csv", "inequality_check.csv")]
    code = ("import contextlib, io, sys\n"
            "import arccover.cli as cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def mp_inequality_lhs(mpmath, family) -> float:
    """eps**(n-1) * integral(prod f_k) by mpmath.quad between merged breakpoints."""
    with mpmath.workdps(40):
        pieces = [(f.breakpoints.tolist(), f.values.tolist()) for f in family]

        def integrand(t):
            out = mpmath.mpf(1)
            for xs, vs in pieces:
                i = max(j for j in range(len(xs) - 1) if xs[j] <= t)
                slope = (mpmath.mpf(vs[i + 1]) - vs[i]) / (mpmath.mpf(xs[i + 1]) - xs[i])
                out *= vs[i] + slope * (t - xs[i])
            return out

        pts = sorted({x for xs, _ in pieces for x in xs})
        eps = mpmath.mpf(pts[-1])
        return float(eps ** (len(family) - 1) * mpmath.quad(integrand, pts, method="gauss-legendre"))


def test_golden_quadrature_cells_match_mpmath():
    # The cells computed through Gauss-Legendre quadrature, checked against
    # an independent high-precision integral of the same float64 lengths.
    mpmath = pytest.importorskip("mpmath")
    integrate = json.loads((GOLDEN_DIR / "integrate.json").read_text())
    (row,) = integrate["rows"]
    lengths = generate(parse_sequence_spec(integrate["config"]["seq"]), row["n"])
    assert abs(row["log_value"] - mp_log_product_integral(mpmath, lengths, row["eps"])) <= 1e-14

    divergence = json.loads((GOLDEN_DIR / "divergence.json").read_text())
    eps = divergence["config"]["eps"]
    seq = parse_sequence_spec(divergence["config"]["seq"])
    checked = [r for r in divergence["rows"] if r["n"] in (5, 25)]
    assert len(checked) == 2
    for row in checked:
        oracle = mp_log_product_integral(mpmath, generate(seq, row["n"]), eps)
        assert abs(row["log_product_integral"] - oracle) <= 1e-14


def replay_families(trials: int, seed: int):
    """The families inequality-check draws: its master draws, then random_monotone_family."""
    master = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(master.integers(1, TRIAL_MAX_FUNCTIONS + 1))
        segments = int(master.integers(1, TRIAL_MAX_SEGMENTS + 1))
        direction = "increasing" if master.integers(2) else "decreasing"
        yield random_monotone_family(int(master.integers(1 << 63)), n, direction, segments)


def test_golden_inequality_lhs_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    argv = GOLDEN_CASES["inequality_check.csv"]
    trials, seed = int(argv[argv.index("--trials") + 1]), int(argv[argv.index("--seed") + 1])
    families = list(replay_families(trials, seed))
    lines = (GOLDEN_DIR / "inequality_check.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if line[:1].isdigit()]
    assert len(rows) == len(families) == 5
    for row, family in zip(rows, families):
        assert int(row[1]) == len(family)
        assert float(row[2]) == pytest.approx(mp_inequality_lhs(mpmath, family), rel=1e-14, abs=0)


class TestSchemas:
    def test_integrate_fields(self, capsys):
        doc = json.loads(run_cli(GOLDEN_CASES["integrate.json"], capsys))
        assert list(doc) == ["config", "rows"]
        assert list(doc["rows"][0]) == ["n", "eps", "value", "log_value",
                                        "segment_count", "nodes_per_segment"]
        assert doc["config"]["seed"] is None

    def test_config_echo_has_all_fields(self, capsys):
        doc = json.loads(run_cli(GOLDEN_CASES["simulate.json"], capsys))
        assert list(doc["config"]) == ["command", "seq", "eps", "n", "checkpoints", "reps",
                                       "seed", "t", "trials", "quadrature_cap",
                                       "format", "out"]
        assert doc["config"]["seed"] == 42

    def test_inequality_csv_header_and_rows(self, capsys):
        out = run_cli(GOLDEN_CASES["inequality_check.csv"], capsys)
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0] == "trial,n,lhs,rhs,margin,holds"
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])

    def test_divergence_absent_cell_is_null(self, capsys):
        argv = ["divergence", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25",
                "--checkpoints", "5,25", "--quadrature-cap", "10"]
        doc = json.loads(run_cli(argv, capsys))
        assert doc["rows"][0]["log_product_integral"] is not None
        assert doc["rows"][1]["log_product_integral"] is None

    def test_csv_without_rows_is_config_only(self, capsys):
        argv = ["criterion", "--seq", "harmonic:c=1", "--n", "10", "--checkpoints", "0",
                "--format", "csv"]
        lines = run_cli(argv, capsys).splitlines()
        assert lines[0] == "# command=criterion"
        assert len(lines) == len(json.loads(run_cli(argv[:-1] + ["json"], capsys))["config"])
        assert all(line.startswith("# ") for line in lines)

    def test_float_formatting_is_17g(self, capsys):
        out = run_cli(GOLDEN_CASES["criterion.csv"], capsys)
        row1 = [line for line in out.splitlines() if line.startswith("1,")][0]
        assert row1.split(",")[3] == "%.17g" % 1.6487212707001282


def cell_rule(value, as_json: bool) -> str:
    """The per-cell rule of the README, applied to one value."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "null" if as_json and not math.isfinite(value) else "%.17g" % value
    return json.dumps(value) if as_json else value


def rows_by_cell_rule(columns: dict, as_json: bool) -> str:
    """The rows of a document, formatted cell by cell and row by row."""
    count = len(next(iter(columns.values())))
    if not as_json:
        lines = [",".join(columns)]
        lines += [",".join(cell_rule(column[i], False) for column in columns.values())
                  for i in range(count)]
        return "\n".join(lines) + "\n"
    docs = []
    for i in range(count):
        members = [f"      {json.dumps(name)}: {cell_rule(column[i], True)}"
                   for name, column in columns.items()]
        docs.append("    {\n" + ",\n".join(members) + "\n    }")
    return '"rows": [\n' + ",\n".join(docs) + "\n  ]\n}\n"


class TestRender:
    def test_numpy_arrays_follow_the_cell_rule(self):
        columns = {
            "flag": np.array([True, False]),
            "count": np.array([7, -(2**62)], dtype=np.int64),
            "x": np.array([0.1, 1e300]),
        }
        lines = render(RunConfig(command="criterion", format="csv"), columns).splitlines()
        assert lines[-2:] == ["true,7,0.10000000000000001", "false,-4611686018427387904,1.0000000000000001e+300"]
        doc = json.loads(render(RunConfig(command="criterion"), columns))
        assert doc["rows"][0] == {"flag": True, "count": 7, "x": 0.1}

    def test_numpy_scalars_follow_the_cell_rule(self):
        assert _cell(np.bool_(True), False) == "true"
        assert _cell(np.bool_(False), True) == "false"
        assert _cell(np.int64(-3), False) == "-3"
        assert _cell(np.float64(np.inf), True) == "null"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_match_the_cell_rule(self, fmt):
        # 10,000 rows cross several row blocks; every column kind appears.
        rng = np.random.default_rng(5)
        count = 10_000
        x = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        x[rng.integers(0, count, 40)] = np.nan
        x[rng.integers(0, count, 40)] = np.inf
        x[rng.integers(0, count, 40)] = -np.inf
        x[rng.integers(0, count, 40)] = -0.0
        maybe = [None if i % 7 == 0 else float(v) for i, v in enumerate(rng.random(count))]
        maybe[3] = float("nan")
        columns = {
            "trial": range(count),
            "flag": rng.random(count) < 0.5,
            "count": rng.integers(-(2**63), 2**63 - 1, count, dtype=np.int64),
            "x": x,
            "maybe": maybe,
            "scalars": [np.float64(v) for v in rng.random(count)],
        }
        document = render(RunConfig(command="criterion", format=fmt), columns)
        expected = rows_by_cell_rule(columns, fmt == "json")
        assert document.endswith(expected)
        if fmt == "csv":
            assert all(f",{word}," in expected for word in ("inf", "-inf", "nan", "-0"))
        else:
            assert len(json.loads(document)["rows"]) == count


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_floats_only_in_a_later_block(self, fmt):
        # Block one holds finite floats only, block two an inf and a nan.
        count = cli._BLOCK_ROWS + 10
        x = np.linspace(-1.0, 1.0, count)
        x[cli._BLOCK_ROWS + 3] = np.inf
        x[cli._BLOCK_ROWS + 7] = np.nan
        columns = {"x": x, "as_list": x.tolist()}
        document = render(RunConfig(command="criterion", format=fmt), columns)
        assert document.endswith(rows_by_cell_rule(columns, fmt == "json"))
        if fmt == "json":
            rows = json.loads(document)["rows"]
            assert rows[cli._BLOCK_ROWS + 3]["x"] is None and rows[cli._BLOCK_ROWS + 7]["as_list"] is None
        else:
            assert "\ninf,inf\n" in document and "\nnan,nan\n" in document

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_int64_and_bool_columns_across_a_block_edge(self, fmt):
        count = cli._BLOCK_ROWS + 5
        columns = {
            "count": np.arange(-2, count - 2, dtype=np.int64) * (2**40),
            "flag": np.arange(count) % 3 == 0,
            "trial": range(count),
        }
        document = render(RunConfig(command="criterion", format=fmt), columns)
        assert document.endswith(rows_by_cell_rule(columns, fmt == "json"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_column_name_with_percent(self, fmt):
        columns = {"%d": [1, 2], "50%s": [0.5, float("inf")], "x%%": ["a%sb", "%"]}
        document = render(RunConfig(command="criterion", format=fmt), columns)
        assert document.endswith(rows_by_cell_rule(columns, fmt == "json"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("trials", [6, 7, 8])
def test_inequality_chunks_keep_the_bytes(trials, fmt, monkeypatch, capsys):
    # Trials run in chunks of cli._TRIAL_CHUNK; 6, 7 and 8 trials in chunks
    # of 7 give the bytes of one whole chunk.
    argv = ["inequality-check", "--trials", str(trials), "--seed", "3", "--format", fmt]
    whole = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "_TRIAL_CHUNK", 7)
    assert run_cli(argv, capsys) == whole


class TestExitCodes:
    def test_domain_error_is_two(self, capsys):
        status = main(["integrate", "--seq", "harmonic:c=1,cap=0.99", "--eps", "0.25", "--n", "5"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "eps" in captured.err

    def test_missing_seed_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seq", "constant:c=0.5", "--n", "2", "--reps", "5"])
        assert exc.value.code == 2

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_missing_sequence_file_is_two(self, capsys):
        status = main(["simulate", "--seq", "explicit:file=/no/such/file.txt", "--n", "2",
                       "--reps", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert status == 2
        assert "file" in captured.err

    def test_bad_trials_is_two(self, capsys):
        status = main(["inequality-check", "--trials", "0", "--seed", "1"])
        capsys.readouterr()
        assert status == 2

    def test_threads_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seq", "constant:c=0.5", "--n", "2", "--reps", "5", "--seed", "1",
                  "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("checkpoints", ["5,3", "3,3", "-2,2"],
                             ids=["past-n", "duplicate", "negative"])
    def test_bad_criterion_checkpoints_are_two(self, checkpoints, capsys):
        status = main(["criterion", "--seq", "harmonic:c=2", "--n", "4",
                       f"--checkpoints={checkpoints}"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "checkpoints" in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seq", "constant:c=0.5", "--n", "2", "--reps", "5", "--seed", "-1"],
        ["pair-probe", "--seq", "constant:c=0.2", "--n", "2", "--t", "0.1", "--reps", "5",
         "--seed", "-3"],
        ["inequality-check", "--trials", "2", "--seed", "-1"],
    ], ids=["simulate", "pair-probe", "inequality-check"])
    def test_negative_seed_is_two(self, argv, capsys):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be a non-negative integer")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("seq", [
        "power-decay:c=1,alpha=nan", "harmonic:c=5e-324", "power-decay:c=1,alpha=1e300",
    ], ids=["nan-alpha", "subnormal-c", "huge-alpha"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "10", "--reps", "5", "--seed", "1"],
        ["criterion", "--n", "3"],
    ], ids=["simulate", "criterion"])
    def test_lengths_outside_unit_interval_are_two(self, seq, command, capsys):
        status = main(command[:1] + ["--seq", seq] + command[1:])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_environment_seed_not_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCCOVER_SEED", "123")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seq", "constant:c=0.5", "--n", "2", "--reps", "5"])
        assert exc.value.code == 2
