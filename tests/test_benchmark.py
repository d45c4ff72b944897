"""The benchmark's output checks run in Tier-1.

``perfbench/run.py --smoke`` runs a workload at 64x64 and checks every
output (exit codes, the marked file's shape and printed PSNR, bit-exact
clean extraction, the bench CSV's rows), so a change that breaks what the
benchmark measures fails here, not only when the benchmark is run.  The
three workloads cover the P6 round trip, the bench sweep and the P3 path,
where the mark's band is the whole image; each runs untraced and traced
(``--trace 1``, whose tracer wraps the program's functions by name).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


_WORKLOADS = ["roundtrip-1024", "bench-512", "ascii-256"]


@pytest.mark.parametrize(
    "workload, trace",
    [pytest.param(w, "0", id=w) for w in _WORKLOADS]
    + [pytest.param(w, "1", id=f"{w}-trace") for w in _WORKLOADS],
)
def test_smoke_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--smoke", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout.strip().splitlines()[-2]
    assert result["failed"] == 0 and result["attempted"] >= 1
