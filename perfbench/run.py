#!/usr/bin/env python3
"""qmekit benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload box-sweep --seed 0 --seconds 16 --trace 0

A worker process (``worker.py``) imports ``qmekit.cli`` from this
checkout's ``src/`` and runs the workload's fixed job list, one
``qmekit.cli.main(argv)`` call at a time, in whole passes: as many as
``--seconds`` over the first pass's job time, rounded, and at least
enough for 64 jobs, so that every run has a tail above its median.
Job times are scaled to a reference machine speed (``speed.py``).
After each job this process checks the job's output files
(``checks.py``) before asking for the next one.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs half the time untraced and
half traced and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress and faults go to
standard error.  ``--smoke`` runs the d <= 4 job lists for a quick
self-test; ``--manifest`` runs one pass and writes the sha256 of every
output file (see README.md).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3            # worker starts per run; setup_s is their median
MIN_JOBS = 64         # four passes of a 16-job list: steady medians, and
                      # more than 40 samples, so a tail lies above the median
WALL_LIMIT = 90.0     # no new pass after this much wall time (slow host)


class Worker:
    """One worker process; its start-up time is measured until it is ready."""

    def __init__(self, workload, seed, work, smoke):
        argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(work)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv + (["--smoke"] if smoke else []), cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not ready:
            self.close()
            raise RuntimeError("worker exited during set-up")

    def ask(self, **req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited while handling {req}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def digest(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


class Run:
    """Job loop state: timings, failures and the first-pass output hashes."""

    def __init__(self, worker, jobs, checker, out_dir):
        self.worker, self.jobs, self.checker, self.out_dir = worker, jobs, checker, out_dir
        self.attempted, self.failed = 0, 0
        self.raw = {job["name"]: [] for job in jobs}      # job seconds as measured
        self.scaled = {job["name"]: [] for job in jobs}   # ... at reference speed
        self.hashes = {}       # job -> sha256 of each output file, first run
        self.verdicts = {}     # job -> faults found in its first run's outputs
        self.faults = []

    def job(self, i):
        job = self.jobs[i]
        reply = self.worker.ask(op="run", job=i)
        if reply["rc"] != 0:
            return reply, [f"exit code {reply['rc']}: {reply['err'].strip()[-300:]}"]
        hashes = digest(self.out_dir)
        if i not in self.hashes:
            self.hashes[i] = hashes
            self.verdicts[i] = self.checker.check(job, self.out_dir)
        if hashes != self.hashes[i]:
            return reply, ["output files not byte-identical to the first run of this job"]
        return reply, self.verdicts[i]      # same bytes, same verdict

    def passes(self, budget, min_jobs, started):
        """Whole passes: budget over the first pass's scaled job time,
        rounded, and at least enough for min_jobs jobs.  Returns the jobs'
        times scaled to the reference speed, and their calibrations."""
        scaled, cals, raw, target = [], [], 0.0, 1
        while len(scaled) < target * len(self.jobs) and (
                not scaled or time.monotonic() - started < WALL_LIMIT):
            for i, job in enumerate(self.jobs):
                reply, faults = self.job(i)
                self.attempted += 1
                self.raw[job["name"]].append(reply["dt"])
                scaled.append(reply["dt"] * REFERENCE_S / reply["cal"])
                self.scaled[job["name"]].append(scaled[-1])
                cals.append(reply["cal"])
                raw += reply["dt"]
                if faults:
                    self.failed += 1
                    self.faults.append(f"{job['name']}: {'; '.join(faults)}")
            if len(scaled) == len(self.jobs):
                print(f"first pass {sum(scaled):.2f} s scaled, {raw:.2f} s raw",
                      file=sys.stderr)
                target = max(1, round(budget / sum(scaled)), -(-min_jobs // len(self.jobs)))
        return scaled, cals


def tail(times):
    """Highest sample that still has ten samples above it (the upper
    median when there are too few samples for that to lie above it)."""
    s = sorted(times)
    return s[max(len(s) - 11, len(s) // 2)]


def final_checks(run, jobs, checker):
    """Untimed: rerun the smallest job for byte-identity; on a nonlocal
    job, also the order of accuracy of the memory propagator."""
    i = min(range(len(jobs)), key=lambda k: jobs[k]["meta"]["d"])
    reply, faults = run.job(i)
    if reply["rc"] == 0 and jobs[i]["doc"]["experiment"].get("nonlocal"):
        faults += checker.nonlocal_order(jobs[i], run.out_dir)
    return [f"rerun of {jobs[i]['name']}: {f}" for f in faults]


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="d <= 4 job lists, one pass")
    ap.add_argument("--manifest", action="store_true",
                    help="one pass; write sha256 of every output file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qmekit" / "cli.py").is_file():
        print(f"error: no qmekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from checks import Checker

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    started = time.monotonic()
    jobs = workloads.jobs_for(args.workload, args.seed, args.smoke)
    checker = Checker()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}"
    worker = None
    try:
        setups = []
        for _ in range(1 if args.trace or args.smoke or args.manifest else SETUPS):
            if worker is not None:
                worker.close()
            worker = Worker(args.workload, args.seed, work, args.smoke)
            setups.append(worker.setup_s)
        run = Run(worker, jobs, checker, work / "out")
        budget = 0.0 if (args.smoke or args.manifest) else args.seconds
        min_jobs = 0 if (args.smoke or args.manifest or args.trace) else MIN_JOBS
        times, _ = run.passes(budget / 2 if args.trace else budget, min_jobs, started)
        global_faults = final_checks(run, jobs, checker)
        if args.trace:
            worker.ask(op="trace")
            traced, traced_cals = run.passes(budget / 2, 0, started)
        done = worker.ask(op="finish",
                          trace_file=str(OUT / f"trace-{tag}.json") if args.trace else None)
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.manifest:
        path = OUT / f"manifest-{tag}.json"
        files = {jobs[i]["name"]: h for i, h in sorted(run.hashes.items())}
        overall = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
        path.write_text(json.dumps({"src_lines": src_lines(), "outputs_sha256": overall,
                                    "jobs": files}, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: outputs_sha256 {overall}, "
              f"src lines {src_lines()}", file=sys.stderr)
    if args.trace:
        scale = REFERENCE_S / statistics.median(traced_cals)
        metrics = {k: {"value": v * scale, "unit": "s"} if k.endswith("_s")
                   else {"value": v, "unit": "count"} for k, v in done["layers"].items()}
        for k in ("io.json_bytes", "io.csv_bytes"):
            metrics[k]["unit"] = "bytes"
        untraced, traced = len(times) / sum(times), len(traced) / sum(traced)
        metrics["trace.jobs_per_s_untraced"] = {"value": untraced, "unit": "1/s"}
        metrics["trace.jobs_per_s_traced"] = {"value": traced, "unit": "1/s"}
        metrics["trace.overhead"] = {"value": traced / untraced, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "job_tail_s": {"value": tail(times), "unit": "s"},
            "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
        }
    for f in run.faults + global_faults:
        print(f"FAULT {f}", file=sys.stderr)
    result = {"correct": run.failed == 0 and not global_faults,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(f"{args.workload}: {run.attempted} jobs, {run.failed} failed, "
          f"{time.monotonic() - started:.1f} s wall", file=sys.stderr)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(
        dict(result, faults=run.faults + global_faults,
             job_median_s={k: statistics.median(v) for k, v in run.scaled.items() if v},
             raw_job_median_s={k: statistics.median(v) for k, v in run.raw.items() if v}),
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
