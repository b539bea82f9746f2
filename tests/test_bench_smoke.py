"""The benchmark's d <= 4 smoke runs of the jump-operator and relaxation
workloads, untraced and traced."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_smoke(workload, *flags):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return result


def test_jump_large_smoke_run_is_correct():
    run_smoke("jump-large")


def test_relax_large_smoke_run_is_correct():
    run_smoke("relax-large")


def test_jump_large_traced_smoke_run_counts_bohr_bins():
    # the tracer wraps library functions by name and reads result.n_bins
    result = run_smoke("jump-large", "--trace", "1")
    assert result["metrics"]["kernels.bohr_bins"]["value"] > 0
