"""Smoke runs of every workload at a reduced ``--runs``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_passes_the_gate(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                "0", "--trace", str(trace), "--runs", "5")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 4
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in section
    }
    assert not (ROOT / ".perfbench-tmp").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", "all-default", "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout == ""
