"""The tracer's exact counters repeat bit-for-bit across fresh traced runs.

Runs each workload twice at the tiny scale (alpha <= 2), each time in a
fresh interpreter as the benchmark does, and compares every metric that is
a count or a ratio of counts.  Run from the repository root:

    python3 -m pytest -q bench/test_exact_counters.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMED_SUFFIXES = ("_s",)


def traced_tiny_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--scale", "tiny", "--trace"],
        capture_output=True, text=True, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith(TIMED_SUFFIXES)}


@pytest.mark.parametrize("workload", ["build4", "certify3"])
def test_exact_counters_repeat(workload):
    first = traced_tiny_run(workload)
    second = traced_tiny_run(workload)
    assert first["failed"] == 0 and second["failed"] == 0, first["notes"] + second["notes"]
    assert exact(first["metrics"]) == exact(second["metrics"])


def test_reduce_counters_match_the_table_build_stats():
    metrics = traced_tiny_run("build4")["metrics"]
    sys.path.insert(0, str(ROOT / "src"))
    from rookalg import structure_table

    stats = structure_table(2, use_cache=False).build_stats
    assert metrics["algebra.reduce_states"] == stats["states"]
    assert metrics["algebra.reduce_cache_hits"] == stats["cache_hits"]
    for rule in ("square", "swap", "erase"):
        assert metrics[f"algebra.rule_{rule}"] == stats[rule]
