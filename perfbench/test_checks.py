"""Self-tests of the benchmark: the output checks pass on correct
outputs, catch deliberately wrong ones, and every workload still runs.

    python3 -m pytest perfbench -q

Runs the d <= 4 smoke job lists only; a few seconds in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from qmekit.cli import main as cli_main, parse_config  # noqa: E402
from qmekit.diagnostics import flip_gain_sign  # noqa: E402
from qmekit.io import complex_matrix_to_json  # noqa: E402
from qmekit.kernels import kernel_to_csv  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, read_kernel_csv  # noqa: E402


def run_job(job, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(job["doc"]))
    out = tmp_path / "out"
    rc = cli_main([job["command"], "--config", str(cfg), "--out", str(out), *job["flags"]])
    assert rc == 0
    return out


def find(workload, command, **meta):
    jobs = workloads.jobs_for(workload, 0, smoke=True)
    for job in jobs:
        if job["command"] == command and all(job["meta"][k] == v for k, v in meta.items()):
            return Checker(), job
    raise LookupError(command, meta)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_correct_outputs_pass(workload, tmp_path):
    jobs = workloads.jobs_for(workload, 0, smoke=True)
    checker = Checker()
    for i, job in enumerate(jobs):
        out = run_job(job, tmp_path / str(i))
        assert checker.check(job, out) == [], job["name"]


def test_flip_gain_sign_kernel_is_caught(tmp_path):
    checker, job = find("jump-large", "build-kernel", family="generic")
    out = run_job(job, tmp_path)
    cfg = parse_config(job["doc"])
    kernel_to_csv(flip_gain_sign(cfg.spectrum, cfg.couplings, cfg.bath),
                  out / "kernel-lindblad.csv")
    faults = checker.check(job, out)
    assert any("trace condition" in f for f in faults), faults
    assert any("energy_conserving_kernel" in f for f in faults), faults


def test_one_sign_flipped_csv_entry_is_caught(tmp_path):
    checker, job = find("jump-large", "build-kernel", family="harmonic")
    out = run_job(job, tmp_path)
    path = out / "kernel-lindblad.csv"
    lines = path.read_text().splitlines()
    k = read_kernel_csv(path).ravel()
    i = int(np.argmax(np.abs(k.real)))
    idx, re, im = lines[i + 1].split(",")
    lines[i + 1] = ",".join([idx, re[1:] if re.startswith("-") else "-" + re, im])
    path.write_text("\n".join(lines) + "\n")
    assert checker.check(job, out) != []


def test_wrong_steady_state_is_caught(tmp_path):
    checker, job = find("relax-large", "steady-state", bath="thermal-ohmic")
    out = run_job(job, tmp_path)
    path = out / "steady-state.json"
    rep = json.loads(path.read_text())
    d = job["meta"]["d"]
    rep["states"][0]["matrix"] = complex_matrix_to_json(np.eye(d) / d)
    path.write_text(json.dumps(rep))
    faults = checker.check(job, out)
    assert any("null space" in f for f in faults), faults


def test_drifting_trajectory_is_caught(tmp_path):
    checker, job = find("relax-large", "evolve", bath="flat")
    out = run_job(job, tmp_path)
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)         # Re rho_00 at the last time
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    faults = checker.check(job, out)
    assert any("expm" in f for f in faults), faults
    assert any("trace drift" in f for f in faults), faults


def test_tampered_compare_report_is_caught(tmp_path):
    checker, job = find("jump-large", "compare", family="generic")
    out = run_job(job, tmp_path)
    path = out / "compare.json"
    rep = json.loads(path.read_text())
    rep["in_out"]["population_block_touched"] = True
    rep["ec_equals_lindblad"] = False
    path.write_text(json.dumps(rep))
    assert len(checker.check(job, out)) == 2


def test_flipped_block_flag_is_caught(tmp_path):
    checker, job = find("box-sweep", "block-report")
    out = run_job(job, tmp_path)
    path = out / "block-report.json"
    rep = json.loads(path.read_text())
    rep["populations_feed_coherences"] = not rep["populations_feed_coherences"]
    path.write_text(json.dumps(rep))
    assert any("flags" in f for f in checker.check(job, out))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {"setup_s", "jobs_per_s", "job_p50_s",
                                      "job_tail_s", "peak_rss_mb"}
