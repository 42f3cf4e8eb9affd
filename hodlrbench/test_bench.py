"""Self-test of the benchmark at smoke size: ``python3 -m pytest hodlrbench``.

Every workload runs once untraced and once traced on small problems; the
test checks the output contract (every metric named in ``BENCHMARK.json``
is emitted with its unit and a sample count) and that the traced layer
attribution adds up.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hodlrbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _outputs(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace):
    report, result = _outputs(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])
        assert report["metrics"][m["name"]]["n"] >= 1
    assert report["host"]["cpu_count"] >= 1
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        _check_attribution(report, result)


def _check_attribution(report, result):
    """Layer self times add up to the time the spans cover, and that to the total.

    ``covered_s`` is the union of the span intervals, worked out apart from
    the nesting bookkeeping behind the self times, so broken nesting or a
    span counted twice makes the two disagree.
    """
    m = {k: v["value"] for k, v in result["metrics"].items()}
    notes = report["notes"]
    self_times = notes["layer_self_s"]
    assert min(self_times.values()) >= 0.0
    assert {"kernels", "cluster_tree", "hodlr", "factor_plan", "solve_plan",
            "apply_plan", "update", "facade"} <= set(self_times)
    assert sum(self_times.values()) == pytest.approx(notes["covered_s"], abs=1e-6)
    assert 0.0 <= m["trace.unattributed_s"] <= 0.05 * m["trace.total_s"]
    assert 0.0 <= m["hodlr.self_s"] <= m["hodlr.busy_s"]
    assert m["hodlr.self_s"] + m["kernels.busy_s"] >= m["hodlr.busy_s"] - 1e-6
    assert m["facade.overhead_s"] >= 0.0
    assert report["host"]["blas_threads"] == 1
    assert notes["baseline_nt_blas_threads"] == os.cpu_count()


def test_fails_without_library(tmp_path):
    """A checkout holding only the benchmark exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "hodlrbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
