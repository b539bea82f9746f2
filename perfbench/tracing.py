"""Spans and counters around the program's layer boundaries.

The tracer replaces each traced function in every ``qmekit`` module
namespace that holds it (the module that defines it and the modules that
imported it by name), so a call is caught at its call site whichever
import path it took.  Nothing under ``src/`` changes; ``uninstall``
puts the original objects back.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index
of the enclosing span in ``spans`` (-1 for a span directly under the
job) and ``job`` the job id set by the worker.  Spans stay in memory
until the worker writes them out at the end of the run.
"""

import functools
import os
import sys
import time
from collections import defaultdict

# (span name, defining module, function name, counter or None).  The span
# name doubles as the per-layer metric stem: "<name>_s" is its self time.
SPANS = (
    ("cli.parse_config", "cli", "parse_config", None),
    ("cli.serialize_config", "cli", "serialize_config", None),
    ("io.sha256_of", "io", "sha256_of", None),
    ("io.canonical_dumps", "io", "canonical_dumps", None),
    ("io.write_json", "io", "write_json", "io.json_bytes"),
    ("io.complex_matrix_to_json", "io", "complex_matrix_to_json", None),
    ("core.decompose_jump_operators", "core", "decompose_jump_operators", "kernels.bohr_bins"),
    ("kernels.lindblad_kernel", "kernels", "lindblad_kernel", None),
    ("kernels.energy_conserving_kernel", "kernels", "energy_conserving_kernel", None),
    ("kernels.redfield_kernel", "kernels", "redfield_kernel", None),
    ("kernels.born_kernel_frequency", "kernels", "born_kernel_frequency", None),
    ("kernels.trace_condition_residual", "kernels", "trace_condition_residual", None),
    ("kernels.kernel_provenance", "kernels", "kernel_provenance", None),
    ("kernels.kernel_to_csv", "kernels", "kernel_to_csv", "io.csv_bytes"),
    ("diagnostics.equivalence_report", "diagnostics", "equivalence_report", None),
    ("dynamics.build_liouvillian", "dynamics", "build_liouvillian", None),
    ("dynamics.evolve_markov", "dynamics", "evolve_markov", None),
    ("dynamics.steady_state", "dynamics", "steady_state", None),
    ("dynamics.evolve_nonlocal", "dynamics", "evolve_nonlocal", None),
    ("dynamics.memory_kernels", "dynamics", "_memory_kernels", "dynamics.memory_nodes"),
    ("dynamics.block_structure_report", "dynamics", "block_structure_report", None),
    ("dynamics.trajectory_to_csv", "dynamics", "trajectory_to_csv", "io.csv_bytes"),
    ("bath.time_correlation", "bath", "time_correlation", None),
    ("oracle.exact_reduced_evolution", "oracle", "exact_reduced_evolution", None),
)

# (counter name, module namespace, attribute): counted at that one call
# site, without a span, so the propagators' self time keeps their work
COUNTS = (
    ("dynamics.expm_calls", "dynamics", "expm"),
    ("dynamics.rk_nfev", "dynamics", "solve_ivp"),
    ("dynamics.trace_distance_calls", "cli", "trace_distance"),
)

COUNTERS = sorted({c for *_, c in SPANS if c} | {c for c, *_ in COUNTS})


def _amount(counter, args, result):
    """How much one call adds to its counter."""
    if counter == "kernels.bohr_bins":
        return result.n_bins
    if counter == "dynamics.memory_nodes":
        return len(args[3])
    if counter == "dynamics.rk_nfev":
        return result.nfev
    if counter == "io.json_bytes":            # write_json(path, obj)
        return os.path.getsize(args[0])
    if counter == "io.csv_bytes":             # *_to_csv(obj, path)
        return os.path.getsize(args[1])
    return 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)      # (job, counter) -> amount
        self.job = None
        self._stack = []
        self._undo = []

    def _span(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                self.counts[self.job, counter] += _amount(counter, args, result)
            return result
        return traced

    def _count(self, counter, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[self.job, counter] += _amount(counter, args, result)
            return result
        return counted

    def _replace(self, namespaces, original, wrapper):
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "qmekit" or n.startswith("qmekit.")]
        for name, mod_name, attr, counter in SPANS:
            fn = getattr(sys.modules[f"qmekit.{mod_name}"], attr)
            self._replace(mods, fn, self._span(name, fn, counter))
        for counter, mod_name, attr in COUNTS:
            mod = sys.modules[f"qmekit.{mod_name}"]
            fn = getattr(mod, attr)
            self._replace([mod], fn, self._count(counter, fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def per_job(self, job_times):
        """Per-layer figures averaged over the traced jobs.

        ``job_times`` maps job id -> wall time of the whole CLI call.
        Self time is a span's duration minus its direct children's.
        """
        self_time = defaultdict(float)
        covered = defaultdict(float)
        for rec in self.spans:
            name, start, end, parent, job = rec
            dur = end - start
            self_time[name] += dur
            if parent >= 0:
                self_time[self.spans[parent][0]] -= dur
            else:
                covered[job] += dur
        n = max(len(job_times), 1)
        out = {f"{name}_s": self_time[name] / n for name, *_ in SPANS}
        for counter in COUNTERS:
            out[counter] = sum(v for (job, c), v in self.counts.items()
                               if c == counter) / n
        out["job.unattributed_s"] = sum(
            t - covered[job] for job, t in job_times.items()) / n
        return out
