"""Span tracer for the benchmark's traced run.

The package has no instrumentation of its own, so the tracer wraps its public
functions from outside: each wrapper records a span (name, start, end,
parent) in memory, and the spans are written out when the run ends.  A
function is replaced under every name a ``gaussent`` module holds it by (for
example ``evolve`` in ``dynamics``, ``experiments``, ``cli`` and the package
namespace), so calls between modules are seen as well as calls from the
benchmark.  ``CovarianceMatrix.__init__`` is wrapped on the class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Public functions traced per layer; span names are "<layer>.<function>".
TRACED = {
    "core": ("thermal_environment", "validate_diffusion", "check_physical_state"),
    "dynamics": ("evolve", "propagator", "steady_covariance"),
    "entanglement": ("simon_function", "log_negativity", "metrics", "asymptotic_simon"),
    "experiments": ("sweep", "classify_phase", "asymptotic_phase_diagram"),
    "cli": ("main", "build_config", "run"),
}

#: Per-layer metrics reported by the traced run, with their units.
PER_LAYER = {
    "core.CovarianceMatrix.calls": "count",
    "core.CovarianceMatrix.self_s": "s",
    "core.thermal_environment.calls": "count",
    "core.thermal_environment.self_s": "s",
    "core.validate_diffusion.self_s": "s",
    "core.check_physical_state.self_s": "s",
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.self_s": "s",
    "dynamics.propagator.self_s": "s",
    "dynamics.steady_covariance.calls": "count",
    "dynamics.steady_covariance.self_s": "s",
    "entanglement.simon_function.calls": "count",
    "entanglement.simon_function.self_s": "s",
    "entanglement.log_negativity.calls": "count",
    "entanglement.log_negativity.self_s": "s",
    "entanglement.metrics.self_s": "s",
    "entanglement.asymptotic_simon.calls": "count",
    "entanglement.asymptotic_simon.self_s": "s",
    "experiments.sweep.self_s": "s",
    "experiments.simon_evals_per_cell": "evals/cell",
    "experiments.steady_solves_per_column": "solves/column",
    "experiments.classify_phase.calls": "count",
    "experiments.classify_phase.self_s": "s",
    "experiments.bisection_evals": "count",
    "experiments.events": "count",
    "experiments.asymptotic_phase_diagram.self_s": "s",
    "cli.main.self_s": "s",
    "cli.build_config.self_s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _on_classify(counters: dict, bound: inspect.BoundArguments, result) -> None:
    counters["events"] += len(result.event_times)
    counters["grid_samples"] += int(bound.arguments["n_t"])


def _on_sweep(counters: dict, bound: inspect.BoundArguments, result) -> None:
    counters["sweep_cells"] += int(result.simon.size)
    counters["sweep_columns"] += len(result.thermal_cs)


def _on_run(counters: dict, bound: inspect.BoundArguments, result) -> None:
    counters["output_bytes"] += len(result.encode("utf-8"))


#: Work counters read off a traced call's arguments and result.
_HOOKS = {
    "experiments.classify_phase": _on_classify,
    "experiments.sweep": _on_sweep,
    "cli.run": _on_run,
}

_COUNTERS = ("events", "grid_samples", "sweep_cells", "sweep_columns", "output_bytes")


class Tracer:
    """In-memory span store; spans are indexed in the order they start."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.passes: list[tuple[int, int, dict]] = []
        self._pass_start = 0

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def begin_pass(self) -> None:
        self._pass_start = len(self.start)
        for key in self.counters:
            self.counters[key] = 0

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.start), dict(self.counters)))

    def write(self, path: Path) -> None:
        """Write every span as arrays: name index, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def pass_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced pass (without the overhead entry)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=np.float64)
        ends = np.frombuffer(self.end, dtype=np.float64)
        durations = ends - starts
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        self_time = durations - child
        ids = {name: i for i, name in enumerate(self.names)}
        n_names = len(self.names)

        def under(outer: str, inner: str, lo: int, hi: int) -> int:
            """Spans named ``inner`` inside spans named ``outer``, within [lo, hi)."""
            total = 0
            for idx in np.nonzero(names[lo:hi] == ids[outer])[0] + lo:
                last = int(np.searchsorted(starts, ends[idx], side="right"))
                total += int(np.count_nonzero(names[idx + 1 : last] == ids[inner]))
            return total

        out = []
        for lo, hi, counters in self.passes:
            calls = np.bincount(names[lo:hi], minlength=n_names)
            selfs = np.bincount(names[lo:hi], weights=self_time[lo:hi], minlength=n_names)
            row: dict[str, float] = {}
            for metric in PER_LAYER:
                span, _, field = metric.rpartition(".")
                if span in ids and field == "calls":
                    row[metric] = int(calls[ids[span]])
                elif span in ids and field == "self_s":
                    row[metric] = float(selfs[ids[span]])
            simon_in_sweep = under("experiments.sweep", "entanglement.simon_function", lo, hi)
            steady_in_sweep = under("experiments.sweep", "dynamics.steady_covariance", lo, hi)
            simon_in_classify = under(
                "experiments.classify_phase", "entanglement.simon_function", lo, hi
            )
            cells, columns = counters["sweep_cells"], counters["sweep_columns"]
            row["experiments.simon_evals_per_cell"] = simon_in_sweep / cells if cells else 0.0
            row["experiments.steady_solves_per_column"] = (
                steady_in_sweep / columns if columns else 0.0
            )
            row["experiments.bisection_evals"] = simon_in_classify - counters["grid_samples"]
            row["experiments.events"] = counters["events"]
            row["cli.output_bytes"] = counters["output_bytes"]
            out.append(row)
        return out


def summarize(rows: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each time over the traced passes; counts must agree exactly.

    Returns the summary and whether every count repeated across passes.
    """
    summary: dict[str, float] = {}
    repeated = True
    for metric, unit in PER_LAYER.items():
        if metric not in rows[0]:
            continue
        values = [row[metric] for row in rows]
        if unit == "s":
            summary[metric] = statistics.median(values)
        else:
            repeated &= all(value == values[0] for value in values)
            summary[metric] = values[0]
    return summary, repeated


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    homes = {layer: importlib.import_module(f"gaussent.{layer}") for layer in TRACED}
    modules = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "gaussent"]
    replaced: list[tuple[object, str, object]] = []
    for layer, functions in TRACED.items():
        home = homes[layer]
        for fname in functions:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    cls = homes["core"].CovarianceMatrix
    original_init = cls.__init__
    cls.__init__ = tracer.wrap("core.CovarianceMatrix", original_init)
    try:
        yield tracer
    finally:
        cls.__init__ = original_init
        for mod, attr, original in replaced:
            setattr(mod, attr, original)
