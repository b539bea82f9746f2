"""The benchmark's d <= 4 smoke runs of every workload, untraced, and of
the jump-operator, relaxation and memory-kernel workloads traced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["box-sweep", "jump-large", "relax-large",
                                      "memory-kernel"])
def test_smoke_run_is_correct(workload):
    run_smoke(workload)


@pytest.mark.parametrize("workload, counter", [
    ("jump-large", "kernels.bohr_bins"),
    ("memory-kernel", "dynamics.memory_nodes"),
    ("relax-large", "dynamics.expm_calls"),
], ids=["jump-large", "memory-kernel", "relax-large"])
def test_traced_smoke_run_counts_work(workload, counter):
    # the tracer wraps library functions by name and reads their results
    # (result.n_bins), arguments (the tau nodes of _memory_kernels) or
    # calls (expm, called once per size group and run of steps)
    result = run_smoke(workload, "--trace", "1")
    assert result["metrics"][counter]["value"] > 0
