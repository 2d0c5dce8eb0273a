"""The operations of each benchmark workload, made from the benchmark seed.

An operation is one README-style CLI invocation (``argv`` for
``arccover.cli.main``) or one library call that has no command
(``gap_measure_samples``).  Each carries ``params``: what the output
checks need to know about its inputs, written down here rather than read
back from the program.  The seed moves input values (scales, windows,
RNG seeds) but never a size, so every seed costs about the same work.
``smoke`` gives the same operations at tiny sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("quadrature", "tables", "montecarlo")


@dataclass(frozen=True)
class Op:
    label: str
    check: str
    params: dict
    argv: tuple[str, ...] | None = None  # None: the gap_measure_samples library call


def spec(family: str, c: float, cap: float | None = None, alpha: float | None = None) -> str:
    """CLI sequence spec for the benchmark's own sequence parameters."""
    parts = [f"c={c!r}"]
    if alpha is not None:
        parts.append(f"alpha={alpha!r}")
    if cap is not None:
        parts.append(f"cap={cap!r}")
    return f"{family}:{','.join(parts)}"


def _seq(family: str, c: float, cap: float = 0.99, alpha: float = 0.0) -> dict:
    return {"family": family, "c": c, "cap": cap, "alpha": alpha}


def _pick(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _quadrature(rng: random.Random, smoke: bool) -> list[Op]:
    # The README divergence table: product_integral at n = 10, 100, 1000
    # (order-501 rule) carries almost all of the pass.
    checkpoints = (10, 100, 1000, 10000) if not smoke else (10, 40, 100)
    seq = _seq("inverse-sqrt", 1.0, cap=0.49)
    ops = [Op(
        label="divergence-readme",
        check="divergence",
        params={"seq": seq, "eps": 0.25, "checkpoints": checkpoints, "quadrature_cap": 2000},
        argv=("divergence", "--seq", spec("inverse-sqrt", 1.0, cap=0.49), "--eps", "0.25",
              "--checkpoints", ",".join(map(str, checkpoints)), "--quadrature-cap", "2000"),
    )]
    for n in ((300, 600) if not smoke else (30, 60)):
        c, eps = _pick(rng, 0.8, 1.2), _pick(rng, 0.2, 0.3)
        ops.append(Op(
            label=f"integrate-harmonic-n{n}",
            check="integrate",
            params={"seq": _seq("harmonic", c, cap=0.49), "eps": eps, "n": n},
            argv=("integrate", "--seq", spec("harmonic", c, cap=0.49), "--eps", repr(eps),
                  "--n", str(n)),
        ))
    return ops


def _tables(rng: random.Random, smoke: bool) -> list[Op]:
    big, full = (10**6, 10**5) if not smoke else (2000, 500)
    ops = []
    c = _pick(rng, 1.5, 2.5)
    checkpoints = (10, 1000, big // 10, big)
    ops.append(Op(
        label="criterion-checkpoints",
        check="criterion",
        params={"seq": _seq("harmonic", c), "n": big, "checkpoints": checkpoints},
        argv=("criterion", "--seq", spec("harmonic", c, cap=0.99), "--n", str(big),
              "--checkpoints", ",".join(map(str, checkpoints))),
    ))
    c = _pick(rng, 1.5, 2.5)
    ops.append(Op(
        label="criterion-full-csv",
        check="criterion",
        params={"seq": _seq("harmonic", c), "n": full, "checkpoints": None},
        argv=("criterion", "--seq", spec("harmonic", c, cap=0.99), "--n", str(full),
              "--format", "csv"),
    ))
    c, eps = _pick(rng, 0.8, 1.2), _pick(rng, 0.2, 0.3)
    checkpoints = tuple(10**k for k in range(1, 7)) if not smoke else (10, 100, 1000)
    ops.append(Op(
        label="divergence-certificate",
        check="divergence",
        params={"seq": _seq("inverse-sqrt", c, cap=0.49), "eps": eps,
                "checkpoints": checkpoints, "quadrature_cap": 0},
        argv=("divergence", "--seq", spec("inverse-sqrt", c, cap=0.49), "--eps", repr(eps),
              "--checkpoints", ",".join(map(str, checkpoints)), "--quadrature-cap", "0"),
    ))
    c, eps = _pick(rng, 0.8, 1.2), _pick(rng, 0.2, 0.3)
    n = 1000 if not smoke else 100
    ops.append(Op(
        label="bound",
        check="bound",
        params={"seq": _seq("inverse-sqrt", c, cap=0.49), "eps": eps, "n": n},
        argv=("bound", "--seq", spec("inverse-sqrt", c, cap=0.49), "--eps", repr(eps),
              "--n", str(n), "--format", "csv"),
    ))
    trials, seed = (1000 if not smoke else 50), rng.randrange(1 << 31)
    ops.append(Op(
        label="inequality-check",
        check="inequality",
        params={"trials": trials, "seed": seed},
        argv=("inequality-check", "--trials", str(trials), "--seed", str(seed),
              "--format", "csv"),
    ))
    # Many small documents: product_integral at n <= 50, where per-call
    # overhead rather than quadrature work sets the time.
    families = (
        ("constant", _seq("constant", 0.3), spec("constant", 0.3)),
        ("harmonic", _seq("harmonic", 1.0, cap=0.49), spec("harmonic", 1.0, cap=0.49)),
        ("inverse-sqrt", _seq("inverse-sqrt", 1.0, cap=0.49), spec("inverse-sqrt", 1.0, cap=0.49)),
        ("power-decay", _seq("power-decay", 1.0, cap=0.49, alpha=0.75),
         spec("power-decay", 1.0, cap=0.49, alpha=0.75)),
    )
    for name, seq, text in families:
        for n in ((5, 20, 50) if not smoke else (5, 20)):
            for band in ((0.05, 0.15), (0.15, 0.3), (0.3, 0.45)):
                eps = _pick(rng, *band)
                ops.append(Op(
                    label=f"integrate-{name}-n{n}-eps{eps}",
                    check="integrate",
                    params={"seq": seq, "eps": eps, "n": n},
                    argv=("integrate", "--seq", text, "--eps", repr(eps), "--n", str(n),
                          "--format", "csv"),
                ))
    return ops


def _montecarlo(rng: random.Random, smoke: bool) -> list[Op]:
    ops = []
    # Near the covering threshold: few replications cover, so the gap
    # lists stay long for all 5000 arcs.
    (n, reps), seed = (5000, 200) if not smoke else (500, 40), rng.randrange(1 << 31)
    ops.append(Op(
        label="simulate-near-threshold",
        check="simulate_threshold",
        params={"seq": _seq("harmonic", 0.5), "n": n, "reps": reps, "seed": seed},
        argv=("simulate", "--seq", spec("harmonic", 0.5, cap=0.99), "--n", str(n),
              "--reps", str(reps), "--seed", str(seed)),
    ))
    # Equal arcs, n=12: each replication is short, so per-replication RNG
    # set-up and pool dispatch dominate.  Stevens' formula is exact here.
    reps, seed = 20000 if not smoke else 500, rng.randrange(1 << 31)
    ops.append(Op(
        label="simulate-equal-arcs",
        check="simulate_stevens",
        params={"seq": _seq("constant", 0.3), "n": 12, "reps": reps, "seed": seed},
        argv=("simulate", "--seq", spec("constant", 0.3), "--n", "12", "--reps", str(reps),
              "--seed", str(seed)),
    ))
    n, reps = (40, 200000) if not smoke else (10, 5000)
    t, seed = _pick(rng, 0.05, 0.15), rng.randrange(1 << 31)
    ops.append(Op(
        label="pair-probe",
        check="pair_probe",
        params={"seq": _seq("harmonic", 0.3), "n": n, "t": t, "reps": reps, "seed": seed},
        argv=("pair-probe", "--seq", spec("harmonic", 0.3, cap=0.99), "--n", str(n),
              "--t", repr(t), "--reps", str(reps), "--seed", str(seed), "--format", "csv"),
    ))
    (n, reps), seed = (2000, 200) if not smoke else (200, 40), rng.randrange(1 << 31)
    ops.append(Op(
        label="gap-measure-samples",
        check="gap_measure",
        params={"seq": _seq("harmonic", 0.5), "n": n, "reps": reps, "seed": seed},
    ))
    return ops


_OPS_OF = {"quadrature": _quadrature, "tables": _tables, "montecarlo": _montecarlo}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """Operations of one pass; the same (workload, seed, smoke) gives the same list."""
    return _OPS_OF[workload](random.Random(f"{workload}:{seed}"), smoke)
