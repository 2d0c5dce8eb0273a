"""Every function the benchmark's tracer wraps still exists under its name.

``bench/tracing.py`` reports a renamed or deleted function as an absent
layer with zero counts, so only a benchmark run would notice.  This test
imports what ``bench/worker.py`` imports and looks each ``LAYERS`` name up
where the tracer does: as an attribute of its module in ``sys.modules``.
"""

import importlib.util
import sys
from pathlib import Path

import arccover  # noqa: F401
import arccover.cli  # noqa: F401
import arccover.covering  # noqa: F401
import arccover.sequences  # noqa: F401

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_traced_function_is_callable_in_its_module():
    missing = [f"{module}.{function}"
               for module, functions in traced_layers().items()
               for function in functions
               if not callable(getattr(sys.modules.get(f"arccover.{module}"), function, None))]
    assert not missing, missing
