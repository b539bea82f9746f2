"""Output checks for the benchmark's CLI jobs.

Every check compares a job's files against a computation made apart
from the CLI run, or against a property the method must have; none
compares against a stored copy of earlier output.  References (kernels,
generators, exponentials) are built here, in the checking process, from
the library functions, so the worker's memory figure covers only the
program's own jobs.  They are cached per config, so a job list repeated
pass after pass pays for them once, outside the timed calls.

``Checker.check(job, out_dir)`` returns a list of fault strings; an
empty list means the job's outputs are correct.
"""

import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from qmekit.cli import parse_config
from qmekit.dynamics import evolve_nonlocal
from qmekit.bath import time_correlation
from qmekit.kernels import build_kernel, energy_conserving_kernel, redfield_kernel

from workloads import COVARIANT

# relative to max|K| (kernels) or absolute on unit-trace states
KERNEL_RTOL = 1e-12
STATE_TOL = 1e-10
EXPM_TOL = 1e-8
STEADY_TOL = 1e-8
NULL_RTOL = 1e-9
ORDER_BAND = (3.0, 5.0)      # error ratio per halving of h for an O(h^2) method


def _complex(nested):
    a = np.asarray(nested, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def read_kernel_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = int(round(np.sqrt(len(data))))
    if n * n != len(data) or not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{Path(path).name}: index column is not 0..d^4-1")
    return (data[:, 1] + 1j * data[:, 2]).reshape(n, n)


def read_trajectory_csv(path, d):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    re, im = data[:, 1:1 + 2 * d * d:2], data[:, 2:2 + 2 * d * d:2]
    return data[:, 0], (re + 1j * im).reshape(-1, d, d)


def generator(spectrum, kernel):
    """L = -i E_{pp'} + K on the flat pair index p*d + p'."""
    e = spectrum.snapped
    return np.diag(-1j * (e[:, None] - e[None, :]).ravel()) + kernel


def kernel_faults(k, spectrum, variant, ec_ref=None):
    """Properties of a d^2 x d^2 kernel K[(p,p'),(q,q')].

    Every variant conserves trace and (at omega = 0) hermiticity; the
    covariant ones vanish off the mass shell E_p - E_p' = E_q - E_q' and
    equal the energy-conserving kernel (the paper's identity).
    """
    d = spectrum.dim
    t = k.reshape(d, d, d, d)
    scale = max(float(np.max(np.abs(k))), 1e-300)
    lim = KERNEL_RTOL * scale
    faults = []
    trace = float(np.max(np.abs(np.einsum("ppqr->qr", t))))
    if trace > lim:
        faults.append(f"trace condition {trace:.3g} > {lim:.3g}")
    herm = float(np.max(np.abs(t - t.transpose(1, 0, 3, 2).conj())))
    if herm > lim:
        faults.append(f"hermiticity preservation {herm:.3g} > {lim:.3g}")
    if variant in COVARIANT:
        e = spectrum.snapped
        w = e[:, None] - e[None, :]
        off = np.abs(w[:, :, None, None] - w[None, None, :, :]) > 4 * spectrum.eps_deg
        leak = float(np.max(np.abs(t[off]), initial=0.0))
        if leak > lim:
            faults.append(f"covariance: off-shell entry {leak:.3g} > {lim:.3g}")
        if ec_ref is not None:
            diff = float(np.max(np.abs(k - ec_ref)))
            if diff > lim:
                faults.append(f"differs from energy_conserving_kernel by {diff:.3g} > {lim:.3g}")
    return faults


def state_faults(states, what, positive=False):
    tr = float(np.max(np.abs(np.einsum("tii->t", states) - 1.0)))
    herm = float(np.max(np.abs(states - states.conj().transpose(0, 2, 1))))
    faults = []
    if tr > STATE_TOL:
        faults.append(f"{what}: trace drift {tr:.3g}")
    if herm > STATE_TOL:
        faults.append(f"{what}: hermiticity defect {herm:.3g}")
    if positive:
        low = float(np.min(np.linalg.eigvalsh((states + states.conj().transpose(0, 2, 1)) / 2)))
        if low < -STATE_TOL:
            faults.append(f"{what}: negative eigenvalue {low:.3g}")
    return faults


def trace_distance(a, b):
    diff = a - b
    return 0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().swapaxes(-1, -2)) / 2)).sum(-1)


class Checker:
    def __init__(self):
        self._cache = {}

    def _ref(self, job, what, build):
        key = (id(job["doc"]), what)
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _cfg(self, job):
        return self._ref(job, "cfg", lambda: parse_config(job["doc"]))

    def _kernel(self, job, variant):
        cfg = self._cfg(job)
        return self._ref(job, ("kernel", variant), lambda: build_kernel(
            cfg.spectrum, cfg.couplings, cfg.bath, variant,
            omega=cfg.experiment.omega if variant == "born" else None).data)

    def _ec(self, job):
        cfg = self._cfg(job)
        return self._ref(job, "ec", lambda: energy_conserving_kernel(
            cfg.spectrum, cfg.couplings, cfg.bath).data)

    def _generator(self, job):
        cfg = self._cfg(job)
        return self._ref(job, "L", lambda: generator(
            cfg.spectrum, self._kernel(job, cfg.experiment.variant)))

    def check(self, job, out_dir):
        out_dir = Path(out_dir)
        try:
            return getattr(self, "_" + job["command"].replace("-", "_"))(job, out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    # -- commands ----------------------------------------------------------

    def _build_kernel(self, job, out):
        cfg = self._cfg(job)
        flags = job["flags"]
        variant = flags[flags.index("--variant") + 1] if "--variant" in flags \
            else cfg.experiment.variant
        if "json" in flags:
            env = json.loads((out / f"kernel-{variant}.json").read_text())
            k = _complex(env["entries"])
        else:
            k = read_kernel_csv(out / f"kernel-{variant}.csv")
        ec = self._ec(job) if variant in COVARIANT else None
        return kernel_faults(k, cfg.spectrum, variant, ec)

    def _evolve(self, job, out):
        cfg = self._cfg(job)
        exp = cfg.experiment
        d = cfg.spectrum.dim
        if "json" in job["flags"]:
            doc = json.loads((out / "trajectory.json").read_text())
            times, states = np.asarray(doc["times"]), _complex(doc["states"])
        else:
            times, states = read_trajectory_csv(out / "trajectory.csv", d)
        faults = []
        if not np.allclose(times, exp.t_grid, rtol=0, atol=1e-12):
            faults.append("time grid differs from the config")
        faults += state_faults(states, "markov", positive=exp.variant in COVARIANT)
        final = self._ref(job, "expm", lambda: (expm(self._generator(job) * (
            exp.t_grid[-1] - exp.t_grid[0])) @ exp.initial_state.ravel()).reshape(d, d))
        err = float(np.max(np.abs(states[-1] - final)))
        if err > EXPM_TOL:
            faults.append(f"final state differs from expm propagation by {err:.3g}")
        if exp.nonlocal_params:
            _, nl = read_trajectory_csv(out / "trajectory-nonlocal.csv", d)
            faults += state_faults(nl, "nonlocal")
            diag = json.loads((out / "evolve-diagnostics.json").read_text())
            td = float(np.max(trace_distance(nl, states)))
            got = diag["nonlocal"]["max_trace_distance_to_markov"]
            if abs(td - got) > 1e-10:
                faults.append(f"reported distance to markov {got:.6g}, files give {td:.6g}")
        return faults

    def _steady_state(self, job, out):
        cfg = self._cfg(job)
        meta = job["meta"]
        d = cfg.spectrum.dim
        rep = json.loads((out / "steady-state.json").read_text())
        lmat = self._generator(job)
        lim = NULL_RTOL * float(np.max(np.abs(lmat)))
        faults = []
        states = [_complex(s["matrix"]) for s in rep["states"]]
        if len(states) != rep["multiplicity"] or not states:
            return [f"{len(states)} states for multiplicity {rep['multiplicity']}"]
        for i, rho in enumerate(states):
            res = float(np.max(np.abs(lmat @ rho.ravel())))
            if res > lim * max(1.0, float(np.max(np.abs(rho)))):
                faults.append(f"state {i} off the null space: |L rho| = {res:.3g}")
        if rep["multiplicity"] == 1 and not meta["degenerate"]:
            rho = states[0]
            if meta["bath"] == "flat":
                expect = np.eye(d) / d
            elif meta["bath"] == "thermal-ohmic" and meta["variant"] in COVARIANT:
                w = np.exp(-cfg.bath.beta * (cfg.spectrum.snapped - cfg.spectrum.snapped.min()))
                expect = np.diag(w / w.sum())
            else:
                return faults
            err = float(np.max(np.abs(rho - expect)))
            if err > STEADY_TOL:
                faults.append(f"steady state differs from the expected fixed point by {err:.3g}")
        return faults

    def _compare(self, job, out):
        cfg = self._cfg(job)
        rep = json.loads((out / "compare.json").read_text())
        args = (cfg.spectrum, cfg.couplings, cfg.bath)
        kin = self._ref(job, "in", lambda: redfield_kernel(*args, "in").data)
        kout = self._ref(job, "out", lambda: redfield_kernel(*args, "out").data)
        d = cfg.spectrum.dim
        lim = KERNEL_RTOL * rep["scale"]
        pop = np.einsum("ppqq->pq", (kin - kout).reshape(d, d, d, d))
        faults = []
        if float(np.max(np.abs(pop))) > lim:
            faults.append(f"redfield in/out differ on the population block by "
                          f"{float(np.max(np.abs(pop))):.3g}")
        if rep["in_out"]["population_block_touched"]:
            faults.append("report says the population block differs")
        got = rep["pairs"]["redfield-in|redfield-out"]["max_abs_diff"]
        if abs(got - float(np.max(np.abs(kin - kout)))) > lim:
            faults.append(f"reported in/out difference {got:.6g} disagrees with the kernels")
        if not rep["ec_equals_lindblad"] or rep["ec_lindblad_diff"] > lim:
            faults.append(f"energy-conserving != lindblad: {rep['ec_lindblad_diff']:.3g}")
        return faults

    def _block_report(self, job, out):
        cfg = self._cfg(job)
        meta = job["meta"]
        rep = json.loads((out / "block-report.json").read_text())
        d = cfg.spectrum.dim
        t = np.abs(self._kernel(job, cfg.experiment.variant)).reshape(d, d, d, d)
        thr = rep["threshold"]
        off = ~np.eye(d, dtype=bool)
        coh_to_pop = np.einsum("ppqr->pqr", t)[:, off] > thr
        pop_to_coh = np.einsum("pqrr->pqr", t)[off, :] > thr
        faults = []
        if bool(coh_to_pop.any()) != rep["coherences_feed_populations"] \
                or bool(pop_to_coh.any()) != rep["populations_feed_coherences"]:
            faults.append("population/coherence flags disagree with the kernel")
        if len(rep["cross_entries"]) != int(coh_to_pop.sum() + pop_to_coh.sum()):
            faults.append("cross-entry count disagrees with the kernel")
        if meta["variant"] in COVARIANT and not meta["degenerate"] and (
                rep["coherences_feed_populations"] or rep["populations_feed_coherences"]):
            faults.append("covariant kernel of a nondegenerate spectrum mixes "
                          "populations and coherences")
        return faults

    def _validate(self, job, out):
        cfg = self._cfg(job)
        rep = json.loads((out / "validate.json").read_text())
        tds = [p["trace_distance"] for p in rep["points"]]
        faults = []
        if [p["scale"] for p in rep["points"]] != cfg.validate_params["scales"]:
            faults.append("validated scales differ from the config")
        ratios = [a / b for a, b in zip(tds, tds[1:])]
        if not np.allclose(ratios, rep["ratios"], rtol=1e-12, atol=0):
            faults.append("reported ratios disagree with the reported distances")
        if not rep["in_band"] or not all(ORDER_BAND[0] <= r <= ORDER_BAND[1] for r in ratios):
            faults.append(f"contraction ratios {ratios} outside {ORDER_BAND}")
        return faults

    # -- once per run ------------------------------------------------------

    def nonlocal_order(self, job, out_dir):
        """Second-order convergence of the memory propagator in h.

        The CLI's trajectory at step h is set against library runs at h/2
        and h/4 on the same correlation grid (whose spacing divides h/4);
        successive differences at the final time must shrink about four
        times per halving.
        """
        cfg = self._cfg(job)
        exp = cfg.experiment
        d = cfg.spectrum.dim
        _, coarse = read_trajectory_csv(Path(out_dir) / "trajectory-nonlocal.csv", d)
        corr = time_correlation(cfg.bath, exp.nonlocal_params["tau_grid"],
                                exp.nonlocal_params["tau_memory"],
                                adjoint_map=cfg.couplings.adjoint_map)
        t0, t1, n = exp.t_grid[0], exp.t_grid[-1], exp.t_grid.size
        finals = [coarse[-1]]
        for refine in (2, 4):
            grid = np.linspace(t0, t1, refine * (n - 1) + 1)
            finals.append(evolve_nonlocal(cfg.spectrum, cfg.couplings, corr,
                                          exp.initial_state, grid).states[-1])
        e1 = float(np.max(np.abs(finals[0] - finals[1])))
        e2 = float(np.max(np.abs(finals[1] - finals[2])))
        ratio = e1 / e2 if e2 > 0 else float("inf")
        if not ORDER_BAND[0] <= ratio <= ORDER_BAND[1]:
            return [f"nonlocal error ratio per halving of h is {ratio:.3g}, "
                    f"not in {ORDER_BAND}"]
        return []
