"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced; the test checks the result
line's shape, that the output checks ran, and that every printed metric
is declared in ``BENCHMARK.json`` with the same unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {
    0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
    1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
}
LISTED = [w["name"] for w in BENCHMARK["workloads"]]
#: Runnable but not listed (perfbench/README.md says why).
UNLISTED = ["batch-stateful", "session-snapshots"]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "0.1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", LISTED + UNLISTED)
def test_workload_runs_checks_and_prints_declared_metrics(workload, trace):
    detail, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert detail["checks"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == DECLARED[trace]
    if workload in LISTED:
        assert result["correct"], detail["failures"]


def test_refuses_to_run_without_the_library():
    """In a directory holding only the benchmark, it exits non-zero silently."""
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as scratch:
        bare = Path(scratch)
        (bare / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            (bare / "perfbench" / path.name).write_text(path.read_text())
        (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", LISTED[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert completed.returncode != 0
    assert completed.stdout == ""
