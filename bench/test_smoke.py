"""Smoke test: each workload runs a few ops, passes its checks and emits
exactly the metrics that ``BENCHMARK.json`` declares, with their units.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics(workload, trace):
    record = run.run_workload(workload, seed=7, seconds=0.0, trace=trace, max_ops=3)
    declared = {(m["name"], m["unit"]) for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {(name, m["unit"]) for name, m in record["metrics"].items()}
    assert emitted == declared
    assert record["attempted"] >= 3
    assert record["failed"] == 0, record["failures"]
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (
        run.run_workload("state_queries", seed=7, seconds=0.0, trace=True, max_ops=6)
        for _ in range(2)
    )
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if n.endswith((".calls_per_item", ".errors"))}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["core.restricted_svd.calls_per_item"] > 0


def test_missing_package_exits_nonzero():
    """A directory holding only BENCHMARK.json and bench/ gives no result."""
    bare = run.BENCH / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(
            run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__")
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "trajectory", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
