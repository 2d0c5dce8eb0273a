"""Print a sha256 of every document the goldens and the benchmark produce.

One ``sha256 label`` line per document: each ``GOLDEN_CASES`` command,
then each operation of ``bench/workloads.build`` at seeds 1, 7 and 101,
at full and at smoke size, then ``gap_measure_samples`` of
``EARLY_COVER`` at each of those seeds, whose replications cover at
different prefixes of their arcs (the benchmark's shape covers none
early), then the inequality engine on families of more than 23
functions, whose segments the product rule cuts into log-drop pieces:
``check_inequality`` of ``random_monotone_family(seed, n, direction, 6)``
for n in ``LARGE_FAMILIES``, both directions, at each seed; the
``product_integral_pl`` of 1000 Shepp factor polylines; and one stacked
``chebyshev._sides`` batch of families of ``MIXED_BATCH`` functions.
Then come the documents of the byte kernel in ``arccover.cli``: a
10**5-row ``criterion`` in JSON (the benchmark's is CSV), and
``kernel_columns()`` of ``test_cli``, a table of every cell class
(floats at the %g layout's edges, ties, zeros, subnormals, non-finite
values, ints near 2**63, booleans and None), through ``cli.render`` in
CSV and in JSON, then ``typed_columns()``, the same table without its
None column, whose block the kernel writes.  Then the integer word
ranges with which ``covering._miss_words`` decides ``pair_uncovered_mc``,
one line per (lengths, t) case of ``test_covering.pair_cases``, every
kind (adversarial included).  Then the long series at their real block
edges (``integrals._CHUNK_ELEMENTS`` = 65536 terms): a ``divergence``
certificate with checkpoints on, before and after the first two edges,
a ``criterion`` with checkpoints out of order around them, and a full
``criterion`` of 131073 rows in CSV.  Last, the Gauss-Legendre rule of
each order 1..``MAX_NODES + 1``: every order of ``_accum``'s table, and
the first order above it from ``conftest.built_gauss_legendre``, the
decimal builder that the tests keep as the table's reference.  A CLI operation's document is its standard
output; a ``gap_measure_samples`` document is its samples, one ``repr``
a line, as ``bench/worker.py`` renders them; an inequality document is
its results, one ``float.hex`` each, and a rule document is its nodes,
then its weights, the same way.  A change that must not move any byte
runs this before and after, and diffs the two outputs:

    PYTHONPATH=src python tests/document_hashes.py > before.txt
    (apply the change)
    PYTHONPATH=src python tests/document_hashes.py > after.txt
    diff before.txt after.txt

Run from the repository root.  pytest does not collect this file.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from arccover import chebyshev
from arccover._accum import MAX_NODES, gauss_legendre
from arccover.cli import RunConfig, main, render
from arccover.covering import _miss_words, gap_measure_samples
from arccover.sequences import LengthSequence, generate

TESTS = Path(__file__).parent
sys.path.insert(0, str(TESTS))
sys.path.insert(0, str(TESTS.parent / "bench"))
from conftest import built_gauss_legendre, shepp_factor_polyline  # noqa: E402
from test_cli import GOLDEN_CASES, kernel_columns, typed_columns  # noqa: E402
from test_covering import PAIR_KINDS, pair_cases  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (1, 7, 101)
EARLY_COVER = {"seq": {"family": "harmonic", "c": 0.7, "cap": 0.99}, "n": 3000, "reps": 120}
LARGE_FAMILIES = (24, 50, 500)
CRITERION_JSON = ("criterion", "--seq", "harmonic:c=2.0,cap=0.99", "--n", "100000", "--format", "json")
MIXED_BATCH = (1, 10, 22, 23, 24, 30, 50)
MISS_WORD_CASES = 400
BLOCK_EDGES = {
    "divergence-certificate": ("divergence", "--seq", "inverse-sqrt:c=1,cap=0.49", "--eps", "0.25",
                               "--checkpoints", "1,65535,65536,65537,131072,200000", "--quadrature-cap", "0"),
    "criterion-checkpoints": ("criterion", "--seq", "harmonic:c=2.0,cap=0.99", "--n", "131073",
                              "--checkpoints", "131073,65536,1,65537"),
    "criterion-131073.csv": ("criterion", "--seq", "harmonic:c=2.0,cap=0.99", "--n", "131073", "--format", "csv"),
}


def document(argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(list(argv))
    if status != 0:
        raise SystemExit(f"{' '.join(argv)}: exited with {status}")
    return buffer.getvalue()


def samples_document(params: dict) -> str:
    seq = LengthSequence(params["seq"]["family"], c=params["seq"]["c"], cap=params["seq"]["cap"])
    samples = gap_measure_samples(seq, params["n"], params["reps"], params["seed"])
    return "\n".join(map(repr, samples.tolist())) + "\n"


def hex_document(values) -> str:
    return "".join(f"{float(x).hex()}\n" for x in values)


def inequality_document(seed: int, n: int, direction: str) -> str:
    result = chebyshev.check_inequality(chebyshev.random_monotone_family(seed, n, direction, 6))
    return hex_document([result.lhs, result.rhs, result.holds, result.margin])


def shepp_document() -> str:
    eps = 0.25
    lengths = generate(LengthSequence.inverse_sqrt(c=1, cap=0.49), 1000)
    return hex_document([chebyshev.product_integral_pl([shepp_factor_polyline(float(l), eps) for l in lengths])])


def mixed_batch_document() -> str:
    ns = np.array(MIXED_BATCH)
    increasing = np.arange(ns.size) % 2 == 0
    b, v = chebyshev._family_batch(range(ns.size), ns, increasing, np.full(ns.size, 6))
    lhs, rhs = chebyshev._sides(b, v, ns)
    return hex_document([*lhs, *rhs])


def miss_words_document(kind: str) -> str:
    lines = []
    for lengths, t in pair_cases(kind, MISS_WORD_CASES, seed=7000 + PAIR_KINDS.index(kind)):
        starts, widths = _miss_words(np.asarray(lengths), t)
        lines.append(" ".join(map(str, [*starts.ravel().tolist(), *widths.ravel().tolist()])))
    return "\n".join(lines) + "\n"


def documents():
    """(label, text) of every document, goldens first."""
    for name, argv in sorted(GOLDEN_CASES.items()):
        yield f"golden/{name}", document(argv)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for size, smoke in (("full", False), ("smoke", True)):
                for op in build(workload, seed, smoke):
                    label = f"{workload}/seed{seed}/{size}/{op.label}"
                    if op.argv is not None:
                        yield label, document(op.argv)
                    else:
                        yield label, samples_document(op.params)
    for seed in SEEDS:
        yield f"early-cover/seed{seed}/gap-measure-samples", samples_document({**EARLY_COVER, "seed": seed})
    for seed in SEEDS:
        for n in LARGE_FAMILIES:
            for direction in chebyshev.DIRECTIONS:
                yield f"inequality/seed{seed}/n{n}/{direction}", inequality_document(seed, n, direction)
    yield "inequality/shepp-1000/product-integral-pl", shepp_document()
    yield "inequality/mixed-batch/sides", mixed_batch_document()
    yield "render/criterion-100000.json", document(CRITERION_JSON)
    for name, table in (("kernel-columns", kernel_columns()), ("typed-columns", typed_columns())):
        for fmt in ("csv", "json"):
            yield f"render/{name}.{fmt}", render(RunConfig(command="criterion", format=fmt), table)
    for kind in PAIR_KINDS:
        yield f"pair-probe/miss-words/{kind}", miss_words_document(kind)
    for name, argv in BLOCK_EDGES.items():
        yield f"block-edges/{name}", document(argv)
    for order in range(1, MAX_NODES + 2):
        rule = gauss_legendre(order) if order <= MAX_NODES else built_gauss_legendre(order)
        yield f"gauss-legendre/order{order}", hex_document(np.concatenate(rule))


if __name__ == "__main__":
    for label, text in documents():
        print(hashlib.sha256(text.encode()).hexdigest(), label, flush=True)
