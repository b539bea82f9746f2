"""Benchmark worker: one process that runs a workload's CLI jobs in turn.

Started by ``run.py``.  It pins BLAS/OpenMP to one thread, imports
``qmekit.cli`` from the checkout's ``src/``, writes the workload's
config files, then answers one JSON request per stdin line with one
JSON reply line:

    {"op": "run", "job": i}      -> {"rc": .., "dt": .., "cal": .., "err": ..}
    {"op": "trace"}              -> {} and every later job is traced
    {"op": "finish", "trace_file": path or null}
                                 -> {"peak_rss_mb": .., "layers": {..}}

A job is one ``qmekit.cli.main(argv)`` call; ``dt`` is its wall time and
nothing else.  ``cal`` is the machine-speed calibration (``speed.py``)
that goes with the job: the latest one, redone before a job once 0.25 s
have passed since the last, and for a job over 0.05 s averaged with one
made right after it.  The output directory is emptied before each job,
outside the timed call, and is left in place for the checker to read.

Usage: worker.py WORKLOAD SEED WORK_DIR [--smoke]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qmekit.cli  # noqa: E402  (timed as part of set-up)

import workloads  # noqa: E402
from speed import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402

CALIBRATE_EVERY = 0.25    # seconds of wall time between speed calibrations
BRACKET_JOBS_OVER = 0.05  # a longer job is also calibrated right after


def main(argv):
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    smoke = "--smoke" in argv
    if not Path(qmekit.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qmekit imported from {qmekit.cli.__file__}, not {ROOT / 'src'}")
    reply = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)

    jobs = workloads.jobs_for(workload, seed, smoke)
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / "out"
    argvs = []
    for i, job in enumerate(jobs):
        cfg = work / f"config-{i:03d}.json"
        cfg.write_text(json.dumps(job["doc"]))
        argvs.append([job["command"], "--config", str(cfg), "--out", str(out_dir),
                      *job["flags"]])
    reply.write(json.dumps({"ready": len(jobs)}) + "\n")

    tracer = None
    job_times = {}
    cal, cal_at = None, -float("inf")
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "run":
            shutil.rmtree(out_dir, ignore_errors=True)
            if time.perf_counter() - cal_at >= CALIBRATE_EVERY:
                cal, cal_at = calibrate(), time.perf_counter()
            before = cal
            captured = io.StringIO()
            if tracer is not None:
                tracer.job = len(job_times)
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                t0 = time.perf_counter()
                try:
                    rc = qmekit.cli.main(argvs[req["job"]])
                except Exception as exc:          # a crash is a failed job, not a dead worker
                    print(f"{type(exc).__name__}: {exc}")
                    rc = -1
                dt = time.perf_counter() - t0
            if tracer is not None:
                job_times[tracer.job] = dt
            if dt >= BRACKET_JOBS_OVER:
                cal, cal_at = calibrate(), time.perf_counter()
            reply.write(json.dumps({"rc": rc, "dt": dt, "cal": (before + cal) / 2,
                                    "err": captured.getvalue()[-2000:]}) + "\n")
        elif req["op"] == "trace":
            tracer = Tracer()
            tracer.install()
            reply.write("{}\n")
        elif req["op"] == "finish":
            layers = {}
            if tracer is not None:
                tracer.uninstall()
                layers = tracer.per_job(job_times)
                if req.get("trace_file"):
                    Path(req["trace_file"]).write_text(json.dumps({
                        "fields": ["name", "start", "end", "parent", "job"],
                        "spans": tracer.spans,
                        "jobs": {str(k): v for k, v in job_times.items()},
                        "counts": [[job, c, v] for (job, c), v in tracer.counts.items()],
                    }))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reply.write(json.dumps({"peak_rss_mb": peak, "layers": layers}) + "\n")
            break


if __name__ == "__main__":
    main(sys.argv[1:])
