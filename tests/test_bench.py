"""The benchmark harness runs every workload at its tiny size, traced, and
passes every gate: a wrong result, a failed check or a traced layer that
reads zero fails the run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--tiny", "--trace", "1", "--seconds", "0.3"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "fail_frac 0 ratio" in proc.stdout.splitlines()
