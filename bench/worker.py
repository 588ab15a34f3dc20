"""One workload process of the benchmark; ``run.py`` starts it and reads its result.

Set-up is measured from just before ``import gaussent`` to the end of the
workload's first call, with input generation excluded.  The timed passes
follow; the worker reports per pass its time and the percentiles of its
request ("query") and column times.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced, so the difference of their
median pass times is the tracing overhead.  With ``--check`` the outputs are
checked after the passes, outside every timed region; every worker reports a
digest of its outputs.  Prints one JSON object.

Host-speed normalization.  The machines this runs on are shared, and their
speed drifts by tens of percent over seconds to minutes, which no median
over one run can hide.  So between requests (at most every PROBE_EVERY_S) the
worker times a fixed probe kernel that does not touch gaussent, and every
measured time is scaled by PROBE_NOMINAL_S / (median of the PROBE_NEIGHBOURS
probes nearest in time).  Reported times therefore read as seconds on a host
where the probe takes PROBE_NOMINAL_S; a change to gaussent moves them as it
moves wall time, while a slow spell of the host moves probe and workload
alike.  The raw medians are reported beside them.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: About what the probe kernel takes on an unloaded 2.1 GHz Xeon core.
PROBE_NOMINAL_S = 1.2e-3
PROBE_EVERY_S = 0.1
PROBE_NEIGHBOURS = 5


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, 0 <= q <= 1."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class HostSpeed:
    """Probe timings over a run, and the scale factor they give at any instant."""

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._parser = argparse.ArgumentParser()
        self._parser.add_argument("command")
        self._parser.add_argument("--set", action="append")
        self.at: list[float] = []
        self.durations: list[float] = []
        self._kernel()  # first use of each numpy path is not representative

    def _kernel(self) -> float:
        """Fixed mix like gaussent's own: 4x4 numpy calls, float formatting,
        dicts, and argument parsing."""
        np = self._np
        acc = 0.0
        m = np.eye(4) + 0.25
        for k in range(250):
            p = m @ m.T
            acc += float(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])
            acc += len(format(acc, ".17g")) + len({"k": k, "acc": acc})
        for _ in range(30):
            acc += len(self._parser.parse_args(["x", "--set", "a=1", "--set", "b=2"]).set)
        return acc

    def measure(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.durations.append(end - start)

    @property
    def last(self) -> float:
        return self.at[-1] if self.at else -float("inf")

    def factor(self, when: float) -> float:
        i = bisect.bisect(self.at, when)
        lo = max(0, min(i - PROBE_NEIGHBOURS // 2, len(self.at) - PROBE_NEIGHBOURS))
        return PROBE_NOMINAL_S / statistics.median(self.durations[lo : lo + PROBE_NEIGHBOURS])


class Passes:
    """Timed passes of one workload.

    Each pass is kept as (start, raw seconds) per request.  The first pass's
    outputs are kept for the checks; every later pass is compared with them
    item by item, and its own outputs are dropped.
    """

    def __init__(self, workload, speed: HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.outputs = None
        self.differing = 0

    def run(self, seconds: float, tracer=None) -> list[list[tuple[float, float]]]:
        """Passes until ``seconds`` have elapsed, at least one."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            items, outputs = [], []
            if tracer is not None:
                tracer.begin_pass()
            for request in self.workload.requests:
                if time.perf_counter() - self.speed.last >= PROBE_EVERY_S:
                    self.speed.measure()
                begin = time.perf_counter()
                outputs.append(request())
                items.append((begin, time.perf_counter() - begin))
            if tracer is not None:
                tracer.end_pass()
            self.speed.measure()
            if self.outputs is None:
                self.outputs = outputs
            else:
                self.differing += sum(a != b for a, b in zip(self.outputs, outputs))
            passes.append(items)
        return passes

    def scaled(self, items: list[tuple[float, float]]) -> list[float]:
        return [raw * self.speed.factor(begin + 0.5 * raw) for begin, raw in items]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true", help="check the outputs")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import_start = time.perf_counter()
    import gaussent  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - import_start
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    begin = time.perf_counter()
    importlib.import_module(cls.entry)
    import_s += time.perf_counter() - begin
    workload = cls(args.seed, args.smoke)
    begin = time.perf_counter()
    workload.requests[0]()
    first_call_s = time.perf_counter() - begin
    speed = HostSpeed()
    result = {"setup_raw_s": import_s + first_call_s}

    passes = Passes(workload, speed)
    if args.trace:
        import tracer as tracing

        untraced = passes.run(args.seconds / 2)
        spans = tracing.Tracer()
        with tracing.traced(spans):
            traced = passes.run(args.seconds / 2, spans)
        runs = untraced + traced
        layer, repeated = tracing.summarize(spans.pass_metrics())
        layer["trace.overhead_s"] = statistics.median(
            sum(passes.scaled(p)) for p in traced
        ) - statistics.median(sum(passes.scaled(p)) for p in untraced)
        spans.write(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
        result.update(per_layer=layer, counts_repeat=repeated, spans=len(spans.start))
    else:
        runs = passes.run(args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The probes scale the compute-bound first call only, not the import, which
    # also waits on the file system.  One first call is a single sample, so it
    # is scaled by the host speed over this worker's whole run.
    result["setup_s"] = import_s + first_call_s * PROBE_NOMINAL_S / statistics.median(speed.durations)

    if args.check:
        report = workload.check(passes.outputs)
        result.update(attempted=report.attempted, failed=report.failed, sound=report.sound, notes=report.notes)
    scaled = [passes.scaled(p) for p in runs]
    columns = [workload.columns(p) for p in scaled]
    result.update(
        digest=hashlib.sha256(repr(passes.outputs).encode()).hexdigest(),
        differing=passes.differing,
        queries_per_pass=len(scaled[0]),
        columns_per_pass=len(columns[0]),
        wall_s=[sum(p) for p in scaled],
        query_p50_us=[percentile(p, 0.5) * 1e6 for p in scaled],
        query_p99_us=[percentile(p, 0.99) * 1e6 for p in scaled],
        column_p50_ms=[percentile(c, 0.5) * 1e3 for c in columns],
        column_p90_ms=[percentile(c, 0.9) * 1e3 for c in columns],
        raw_wall_s=[sum(raw for _, raw in p) for p in runs],
        probe_s=speed.durations,
        numpy=sys.modules["numpy"].__version__,
        blas_threads={k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
