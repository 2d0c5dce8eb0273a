"""Per-layer timing wrappers for the traced run.

Each public function named in ``LAYERS`` is replaced, in every
``arccover`` module namespace that holds it, by a wrapper that counts
calls, measures self time (duration minus the time covered by wrapped
children on the same thread) and derives work counts from the call's
arguments and result.  Nothing inside the program changes.  A name that
its module no longer defines is reported as absent, with zero counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time


def _arg(name):
    return lambda args, result: args[name]


def _length(name):
    return lambda args, result: len(args[name])


def _product_of(*names):
    def count(args, result):
        total = 1
        for name in names:
            value = args[name]
            total *= value if isinstance(value, int) else len(value)
        return total
    return count


def _points(args, result):
    return result.segment_count * result.nodes_per_segment


def _factor_evals(args, result):
    return _points(args, result) * len(args["lengths"])


def _bytes(args, result):
    return len(result.encode("utf-8"))


# module -> function -> {count name: count(bound arguments, result)}.
# gauss_legendre's "orders_built" is kept by the tracer itself.
LAYERS = {
    "sequences": {
        "generate": {"terms": _arg("n")},
        "parse_sequence_spec": {},
    },
    "_accum": {
        "gauss_legendre": {},
        "kahan_cumsum": {"terms": _length("values")},
    },
    "integrals": {
        "product_integral": {"points": _points, "factor_evals": _factor_evals},
        "divergence_table": {},
        "shepp_lower_bound": {"terms": _length("lengths")},
        "criterion_partial_sums": {"terms": _arg("N")},
    },
    "chebyshev": {
        "random_monotone_family": {"functions": _arg("n")},
        "check_inequality": {"functions": _length("fs")},
    },
    "covering": {
        "coverage_probability": {"arcs_offered": _product_of("reps", "n")},
        "gap_measure_samples": {"arcs_offered": _product_of("reps", "n")},
        "pair_uncovered_mc": {"draws": _product_of("reps", "lengths")},
        "pair_uncovered_exact": {},
    },
    "cli": {
        "main": {},
        "render": {"bytes": _bytes},
    },
}

ORDERS_BUILT = "orders_built"


def layer_name(module: str, function: str) -> str:
    """Metric prefix of one function: ``accum.gauss_legendre`` for ``_accum``."""
    return f"{module.lstrip('_')}.{function}"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, functions in LAYERS.items():
        for function, counts in functions.items():
            prefix = layer_name(module, function)
            names += [f"{prefix}.calls", f"{prefix}.self_s"]
            extra = [ORDERS_BUILT] if function == "gauss_legendre" else list(counts)
            names += [f"{prefix}.{count}" for count in extra]
    return names


class Tracer:
    """Aggregated spans per wrapped function, kept in memory for one pass."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._orders_seen: set = set()
        self.uncountable: set[str] = set()

    def forget_orders(self) -> None:
        """Called when the program's caches are cleared, as for a new CLI invocation."""
        self._orders_seen.clear()

    def install(self, package: str = "arccover") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module, functions in LAYERS.items():
            home = sys.modules.get(f"{package}.{module}")
            for function, counts in functions.items():
                prefix = layer_name(module, function)
                original = getattr(home, function, None) if home is not None else None
                if not callable(original):
                    self.absent.append(prefix)
                    continue
                self.stats[prefix] = {"calls": 0, "self_s": 0.0, **{c: 0 for c in counts}}
                if function == "gauss_legendre":
                    self.stats[prefix][ORDERS_BUILT] = 0
                wrapper = self._wrap(prefix, original, counts, function == "gauss_legendre")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, prefix, fn, counts, is_rule):
        signature = inspect.signature(fn)
        stats = self.stats[prefix]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    stats["calls"] += 1
                    stats["self_s"] += duration - children
            if counts or is_rule:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    for name, count in counts.items():
                        try:
                            stats[name] += int(count(bound.arguments, result))
                        except (KeyError, AttributeError, TypeError):
                            self.uncountable.add(f"{prefix}.{name}")
                    if is_rule:
                        key = tuple(bound.arguments.values())
                        if key not in self._orders_seen:
                            self._orders_seen.add(key)
                            stats[ORDERS_BUILT] += 1
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<field>`` values of this pass; absent layers read 0."""
        flat = {name: 0 for name in metric_names()}
        for prefix, fields in self.stats.items():
            for name, value in fields.items():
                flat[f"{prefix}.{name}"] = value
        return flat
