"""Print a sha256 of every document the goldens and the benchmark produce.

One ``sha256 label`` line per document: each ``GOLDEN_CASES`` command,
then each operation of ``bench/workloads.build`` at seeds 1, 7 and 101,
at full and at smoke size, then ``gap_measure_samples`` of
``EARLY_COVER`` at each of those seeds, whose replications cover at
different prefixes of their arcs (the benchmark's shape covers none
early).  A CLI operation's document is its standard output; a
``gap_measure_samples`` document is its samples, one ``repr`` a line,
as ``bench/worker.py`` renders them.  A change
that must not move any byte runs this before and after, and diffs the
two outputs:

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

from arccover.cli import main
from arccover.covering import gap_measure_samples
from arccover.sequences import LengthSequence

TESTS = Path(__file__).parent
sys.path.insert(0, str(TESTS))
sys.path.insert(0, str(TESTS.parent / "bench"))
from test_cli import GOLDEN_CASES  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (1, 7, 101)
EARLY_COVER = {"seq": {"family": "harmonic", "c": 0.7, "cap": 0.99}, "n": 3000, "reps": 120}


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


if __name__ == "__main__":
    for label, text in documents():
        print(hashlib.sha256(text.encode()).hexdigest(), label, flush=True)
