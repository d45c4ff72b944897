"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

Run from the repository root:  python3 -m pytest -q perfbench/tests
Each test runs the benchmark in a fresh process at 64x64 (``--smoke``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace=0, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_and_outputs_correct(workload, trace):
    result, info = result_of(run_bench(workload, trace))
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["cli.main.calls"] == 1.0
        assert 0.9 < metrics["trace.self_coverage_ratio"] <= 1.0
        assert metrics["trace.overhead_ratio"] > 0
    else:
        assert all(value > 0 for value in metrics.values()), metrics
        assert metrics["ok_ratio"] == 1.0
    assert info["environment"]["seed"] == 1 and info["environment"]["cpu_pinning"] == "none"


def test_inputs_follow_the_seed():
    fingerprints = [result_of(run_bench("bench-512", seed=s))[1]["fingerprints_sha256"]
                    for s in (1, 1, 2)]
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0]["bench.noise.csv"] != fingerprints[2]["bench.noise.csv"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("roundtrip-1024", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
