"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    spec = _spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    seen = set()
    for env_line, result in zip(lines[::2], lines[1::2]):
        env = env_line["env"]
        seen.add((env["workload"], env["trace"]))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == expected[env["trace"]]
        if env["trace"] == 0:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert seen == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_counts_on_the_paper_bath_are_exact():
    """fig1 at the CLI defaults (d_xpy = 0.049, C in [1, 1.5], 500 x 20)."""
    spans = tracer.Tracer()
    with tracer.traced(spans):
        for _ in range(2):
            spans.begin_pass()
            workloads._cli(["sweep", "--set", "initial=fig1"])
            spans.end_pass()
    rows = spans.pass_metrics()
    summary, repeated = tracer.summarize(rows)
    assert repeated
    assert summary["entanglement.simon_function.calls"] == 21_296
    assert summary["dynamics.steady_covariance.calls"] == 40
    assert summary["experiments.steady_solves_per_column"] == 2.0
    assert round(summary["experiments.simon_evals_per_cell"], 2) == 2.13
