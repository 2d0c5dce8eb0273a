import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccover import _accum, chebyshev, cli, integrals
from arccover.chebyshev import random_monotone_family
from arccover.cli import RunConfig, _cell, main, render
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


def test_commands_take_every_rule_from_the_table(rule_orders, monkeypatch, capsys):
    """No golden and no smoke-size benchmark command asks for a rule the table does not hold."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    import workloads

    bench_ops = [op.argv for workload in workloads.WORKLOADS
                 for op in workloads.build(workload, 1, smoke=True) if op.argv is not None]
    for argv in [*GOLDEN_CASES.values(), *bench_ops]:
        run_cli(list(argv), capsys)
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


def test_out_flag_to_a_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.json"
    assert main(GOLDEN_CASES["integrate.json"] + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert str(target) in captured.err
    assert not target.parent.exists()


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


def test_import_loads_no_numpy_random(tmp_path):
    # numpy.random costs about 12 ms to import; the covering draws load it
    # inside the call, so only commands that draw pay for it.
    code = "import arccover, arccover.cli, sys; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_fractions(tmp_path):
    # The byte kernel forms its powers of ten from Python ints when a block
    # asks for them, and builds no table at import; the Gauss-Legendre rules
    # are float constants, built in decimal by the tests only.
    code = "import arccover, arccover.cli, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
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
        n = int(master.integers(1, chebyshev.TRIAL_MAX_FUNCTIONS + 1))
        segments = int(master.integers(1, chebyshev.TRIAL_MAX_SEGMENTS + 1))
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

    def test_criterion_checkpoints_in_any_order_are_the_full_rows(self, monkeypatch):
        # Blocks of 7 terms: the rows fall on, before and after block edges.
        monkeypatch.setattr(integrals, "_CHUNK_ELEMENTS", 7)
        full = cli._run_criterion(RunConfig(command="criterion", seq="harmonic:c=2", n=50))
        checkpoints = (50, 7, 1, 0, 8, 14, 15)
        rows = cli._run_criterion(RunConfig(command="criterion", seq="harmonic:c=2", n=50,
                                            checkpoints=checkpoints))
        picks = [c - 1 for c in checkpoints if c >= 1]
        assert rows["n"].tolist() == full["n"][picks].tolist() == [50, 7, 1, 8, 14, 15]
        for name in ("log_term", "log_partial_sum", "partial_sum"):
            assert rows[name].view(np.uint64).tolist() == full[name][picks].view(np.uint64).tolist()

    def test_criterion_checkpoint_memory_does_not_grow_with_n(self):
        # At n = 10**6 a full-length column alone would take 8 MB.
        peaks = []
        for n in (10**5, 10**6):
            config = RunConfig(command="criterion", seq="harmonic:c=2,cap=0.99", n=n,
                               checkpoints=(n, 10, n // 10, 1000))
            tracemalloc.start()
            try:
                cli._run_criterion(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks

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

    def test_columns_of_unequal_length_are_refused(self):
        config = RunConfig(command="criterion", format="csv")
        with pytest.raises(ValueError, match="a=3, b=1"):
            render(config, {"a": [1, 2, 3], "b": [0.5]})
        with pytest.raises(ValueError, match="a=3, b=1"):
            render(config, {"a": np.arange(3), "b": np.ones(1)})

    def test_main_writes_each_block_as_it_is_formed(self, monkeypatch, capsys):
        argv = ["criterion", "--seq", "harmonic:c=2", "--n", "50", "--format", "csv"]
        whole = run_cli(argv, capsys)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
        writes = []
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(argv) == 0
        monkeypatch.undo()
        assert len(writes) == 1 + 7  # the head, then 7 blocks of at most 8 rows
        assert "".join(writes) == whole


# Floats whose "%.17g" the byte kernel must match, or leave to the scalar rule:
# ties of the 17th digit, signed zeros, subnormals, non-finite values, the %g
# layout's edges (exponents -5, -4, -1, 0, 16 and 17) and three-digit
# exponents; KERNEL_FLOATS adds every power of ten with both neighbours.
HAND_FLOATS = [
    1000000000000000.25, 1000000000000000.75, 2.5e16, 123456789012345678.0, 0.5, 1.5,
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan,
    1.2345e-5, 9.87654321e-5, 1e-4, 0.00012345, 0.1, 0.3, 1.0, 2.0, 9.5, 12345.678,
    1234567890123456.7, 9999999999999998.0, 12345678901234567.0, 1.7976931348623157e308,
    -1.5e-300, 3.14e-150, -2.5e150, 6.02214076e23, 1e290, 9.9999999999999e289, 1e-290,
]
_POWERS = np.array([float(f"1e{e}") for e in range(-323, 309)])
KERNEL_FLOATS = np.concatenate([_POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf), HAND_FLOATS])
KERNEL_FLOATS = np.concatenate([KERNEL_FLOATS, -KERNEL_FLOATS, KERNEL_FLOATS * 0.3, KERNEL_FLOATS / 7.0])
KERNEL_INTS = np.array([0, 1, -1, 7, -10, 10**9, -(10**9) - 1, 10**18, 2**62, 2**63 - 1, -(2**63),
                        -(2**63) + 1, 1 - 10**18, 99999999999999999], dtype=np.int64)


def kernel_columns() -> dict:
    """Every cell class the byte kernel writes or leaves to the cell rule, in one table."""
    count = KERNEL_FLOATS.size
    return {
        "x": KERNEL_FLOATS,
        "as_list": KERNEL_FLOATS[::-1].tolist(),
        "count": np.resize(KERNEL_INTS, count),
        "ints": np.resize(KERNEL_INTS, count)[::-1].tolist(),
        "flag": np.arange(count) % 3 == 0,
        "maybe": [None if i % 5 == 0 else float(v) for i, v in enumerate(KERNEL_FLOATS)],
        "trial": range(count),
    }


def typed_columns() -> dict:
    """kernel_columns() without its None column: every cell class of the kernel's own bands."""
    columns = kernel_columns()
    del columns["maybe"]
    return columns


class TestByteKernel:
    """The byte kernel against the scalar cell rule, with the cutoff at 1 row."""

    @pytest.fixture(autouse=True)
    def every_block_takes_the_kernel(self, monkeypatch):
        monkeypatch.setattr(cli, "_KERNEL_MIN_ROWS", 1)

    @pytest.fixture
    def kernel_blocks(self, monkeypatch) -> list:
        """The row count of each block the byte kernel writes."""
        blocks, kernel = [], cli._block_bytes
        monkeypatch.setattr(cli, "_block_bytes", lambda *args: blocks.append(args[-1]) or kernel(*args))
        return blocks

    @staticmethod
    def assert_cell_rule(columns: dict):
        for fmt in ("csv", "json"):
            document = render(RunConfig(command="criterion", format=fmt), columns)
            assert document.endswith(rows_by_cell_rule(columns, fmt == "json")), fmt

    def test_every_cell_class(self, kernel_blocks):
        self.assert_cell_rule(typed_columns())
        assert kernel_blocks == [KERNEL_FLOATS.size] * 2

    def test_a_none_column_goes_by_rows(self, kernel_blocks):
        self.assert_cell_rule(kernel_columns())
        assert kernel_blocks == []

    @pytest.mark.parametrize("value", HAND_FLOATS)
    def test_each_hand_float_alone(self, value):
        # A one-row block has one exponent, the kernel's shortest path.
        self.assert_cell_rule({"x": np.array([value]), "neg": np.array([-value])})

    def test_float_slots_match_17g(self):
        # The kernel's own cells, before any fallback is patched in.
        out = np.zeros((cli._FLOAT_SLOTS + 1, KERNEL_FLOATS.size), dtype=np.uint8)
        out[-1] = ord("\n")
        fallback = set(cli._float_slots(out[:-1], KERNEL_FLOATS).tolist())
        cells = out.T.tobytes().translate(None, b"\0").decode().split("\n")
        kept = [i for i in range(KERNEL_FLOATS.size) if i not in fallback]
        assert [cells[i] for i in kept] == ["%.17g" % KERNEL_FLOATS[i] for i in kept]
        assert len(kept) > KERNEL_FLOATS.size // 3
        # Zeros, subnormals, huge and non-finite values and ties go to the cell rule.
        for value in (0.0, 5e-324, 1e300, math.inf, 1000000000000000.25):
            assert np.flatnonzero(KERNEL_FLOATS == value)[0] in fallback
        assert np.flatnonzero(np.isnan(KERNEL_FLOATS))[0] in fallback

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, values):
        self.assert_cell_rule({"x": np.array(values), "as_list": values})

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_int64(self, values):
        self.assert_cell_rule({"count": np.array(values, dtype=np.int64), "ints": values,
                               "x": np.zeros(len(values))})

    def test_ints_beyond_int64_keep_the_cell_rule(self):
        self.assert_cell_rule({"big": [2**63, -1, -(2**63) - 1, 2**70], "x": [0.5, 1.5, 2.5, 3.5],
                               "unsigned": np.array([2**64 - 1, 0, 1, 2], dtype=np.uint64)})

    def test_non_ascii_cells_keep_the_cell_rule(self):
        self.assert_cell_rule({"name": ["\u00e9", "a\0b"], "x": [0.5, 1.5]})

    @pytest.mark.parametrize("c", [1.5, 2.0, 2.5])
    def test_benchmark_criterion_cells_rarely_fall_back(self, c):
        config = RunConfig(command="criterion", seq=f"harmonic:c={c},cap=0.99", n=100_000)
        for name, column in cli._run_criterion(config).items():
            if column.dtype.kind == "f":
                out = np.empty((cli._FLOAT_SLOTS, column.size), dtype=np.uint8)
                assert cli._float_slots(out, column).size <= column.size // 10_000, name


# Renders typed_columns() through the byte kernel and by rows, in both
# formats, and prints whether they agree; argv[1] is the tests directory.
KERNEL_AGREES = """
import sys
sys.path.insert(0, sys.argv[1])
from arccover import cli
from test_cli import typed_columns
columns = typed_columns()
blocks, kernel = [], cli._block_bytes
cli._block_bytes = lambda *args: blocks.append(args[-1]) or kernel(*args)
for fmt in ("csv", "json"):
    config = cli.RunConfig(command="criterion", format=fmt)
    cli._KERNEL_MIN_ROWS = 1
    by_kernel = cli.render(config, columns)
    assert blocks, fmt
    blocks.clear()
    cli._KERNEL_MIN_ROWS = 10**9
    assert by_kernel == cli.render(config, columns), fmt
    assert not blocks, fmt
print("agree")
"""


@pytest.mark.parametrize("switch", sorted(KERNEL_SWITCHES))
def test_byte_kernel_under_other_cpu_kernels(switch, tmp_path):
    # No golden is long enough to reach the kernel.  log10 is only its
    # checked estimate, so no kernel choice may move a cell.
    variables, _ = KERNEL_SWITCHES[switch]
    proc = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c", KERNEL_AGREES,
                           str(Path(__file__).parent)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**subprocess_env(), **variables}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "agree"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("trials", [6, 7, 8])
def test_inequality_chunks_keep_the_bytes(trials, fmt, monkeypatch, capsys):
    # Trials run in chunks of chebyshev._TRIAL_CHUNK; 6, 7 and 8 trials in
    # chunks of 7 give the bytes of one whole chunk.
    argv = ["inequality-check", "--trials", str(trials), "--seed", "3", "--format", fmt]
    whole = run_cli(argv, capsys)
    monkeypatch.setattr(chebyshev, "_TRIAL_CHUNK", 7)
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

    @pytest.mark.parametrize("spec, message", [
        ("harmonic:c=1,c=0.5,cap=0.49", "duplicate sequence parameter"),
        ("harmonic:c=1,alpha=3,cap=0.49", "power-decay family only"),
    ], ids=["duplicate", "alpha-off-power-decay"])
    def test_ambiguous_sequence_is_two(self, spec, message, capsys):
        status = main(["integrate", "--seq", spec, "--eps", "0.25", "--n", "5"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

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
