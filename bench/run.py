"""gaussent benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from any directory; the package is imported from ``src/`` and the test
oracles from ``tests/helpers.py`` of the same checkout.  Each run starts the
workload in fresh single-threaded processes one after another (``worker.py``,
BLAS pinned to one thread); each is a closed loop with one client, sending a
request when the previous one has returned.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it records the environment, the tail latencies and the raw
(unscaled) times; times in the metrics are scaled to host speed, as
``worker.py`` explains.  A report per run is written to ``.bench_out/``.

``correct`` is false when any output is wrong.  ``failed`` counts the items
whose check failed, and also the ``classify`` columns that are right as far
as they go but miss crossings a 50x finer grid finds (the grid dependence of
``classify_phase``).

``--smoke`` runs every workload on tiny grids, untraced and traced, and prints
two lines per run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("surface", "classify", "point", "phase-map")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_us": "us",
    "column_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Fresh worker processes per untraced run.  Each measures set-up, then runs
#: passes for an equal share of the time.  Medians over all their passes even
#: out what differs between processes (such as memory layout) as well as what
#: drifts in time.
WORKERS = 4

#: Every process started by one run ends within this many seconds.
RUN_LIMIT_S = 170.0

_PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **_PINNED)
    env.pop("PYTHONPATH", None)
    return env


def _python(args: list[str], deadline: float) -> str:
    """Run a Python child to completion (killed at the deadline); return its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _numpy_import_s(deadline: float) -> float:
    code = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    return float(_python(["-c", code], deadline))


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    numpy_floor = _numpy_import_s(deadline)
    n_workers = 1 if trace else 2 if smoke else WORKERS
    outs = []
    for k in range(n_workers):
        args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
        args += ["--seconds", str(seconds / n_workers), "--trace", str(trace)]
        args += ["--smoke"] * smoke + ["--check"] * (k == 0)
        outs.append(json.loads(_python(args, deadline)))
    first = outs[0]

    def pooled(key: str) -> float:
        """Median over every pass of every worker."""
        return statistics.median(value for out in outs for value in out[key])

    if trace:
        metrics = {name: {"value": first["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(out["setup_s"] for out in outs),
            "wall_s": pooled("wall_s"),
            "query_p50_us": pooled("query_p50_us"),
            "column_p50_ms": pooled("column_p50_ms"),
            "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    differing = sum(out["differing"] for out in outs)
    same_outputs = all(out["digest"] == first["digest"] for out in outs)
    notes = first["notes"] + [f"{differing} outputs differ between passes"] * bool(differing)
    notes += ["outputs differ between worker processes"] * (not same_outputs)
    result = {
        "correct": bool(first["sound"] and first.get("counts_repeat", True) and same_outputs and not differing),
        "attempted": first["attempted"],
        "failed": first["failed"] + differing,
        "metrics": metrics,
    }
    env = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": first["blas_threads"],
        "numpy_import_s": numpy_floor,
        "setup_s": [out["setup_s"] for out in outs],
        "setup_raw_s": [out["setup_raw_s"] for out in outs],
        "workers": n_workers,
        "passes": sum(len(out["wall_s"]) for out in outs),
        "queries_per_pass": first["queries_per_pass"],
        "columns_per_pass": first["columns_per_pass"],
        # the tails are recorded, not gated: on a shared host they follow its
        # short stalls and vary from run to run by more than any allowed bound
        "query_p99_us": pooled("query_p99_us"),
        "column_p90_ms": pooled("column_p90_ms"),
        "raw_wall_s": pooled("raw_wall_s"),
        "probe_s": pooled("probe_s"),
        "notes": notes,
    }
    if trace:
        env["spans"] = first["spans"]
    return result, env


def _write_report(result: dict, env: dict) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    (out_dir / name).write_text(json.dumps({"env": env, "result": result}, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one pass")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    missing = [p for p in ("src/gaussent/__init__.py", "tests/helpers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    compileall.compile_file(ROOT / "tests" / "helpers.py", quiet=1)

    if args.smoke:
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        seconds = 0.0
    else:
        runs = [(args.workload, args.trace)]
        seconds = args.seconds
    try:
        for workload, trace in runs:
            result, env = run_once(workload, args.seed, seconds, trace, args.smoke)
            _write_report(result, env)
            print(json.dumps({"env": env}))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
