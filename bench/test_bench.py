"""Smoke test: every workload at tiny size through the benchmark's entry point.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import host

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("seed", [0, 1], ids=["default_seed", "held_out_seed"])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(workload, trace, seed):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--min-clips", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "eval_short", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_tolerance():
    out = []
    golden._diff({"a": [1.0, 2.0, 3]}, {"a": [1.0 + 1e-13, 2.0 * (1 + 1e-13), 3]}, "x", out)
    assert out == []
    golden._diff({"a": [1.0, 2.0, 3]}, {"a": [1.0 + 3e-12, 2.0, 4]}, "x", out)
    assert len(out) == 2


def test_host_adjustment_scales_to_the_reference_kernel_time():
    k = host.K_REF_MS
    adjusted = host.host_adjusted([10.0, 10.0, 30.0], [k, 2 * k, 2 * k], [k, 2 * k, 4 * k])
    assert adjusted.tolist() == pytest.approx([10.0, 5.0, 10.0])
