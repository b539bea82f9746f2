"""Complete-positivity probes and variant comparison reports.

A generator is probed, not certified: the Choi matrix of exp(L t) is
examined at a few relaxation-scale times, and a family of states is
pushed through the map looking for a negative eigenvalue.  A negative
Choi eigenvalue alone proves the map is not CP but not that any state
goes bad (positive non-CP maps exist), so the verdicts distinguish the
two situations instead of collapsing them.  Each probe set is one
stack of propagators, and both probes are array operations on it.
"""

import numpy as np
from dataclasses import dataclass

from .core import InputError
from .dynamics import expm
from .kernels import _jump_kernel, build_kernel, kernel_difference, trace_condition_residual
from . import io as _io

__all__ = [
    "MapCheck",
    "choi_matrix",
    "choi_spectrum",
    "default_probe_times",
    "positivity_scan",
    "map_check",
    "flip_gain_sign",
    "equivalence_report",
]

CHOI_TOL = 1e-8
# energy-conserving and lindblad kernels coincide within this fraction
# of the largest kernel entry
EC_AGREEMENT_LIMIT = 1e-12


def choi_matrix(superop_data, dim):
    """Choi matrix of a superoperator given on the flat pair index, or
    the stack of Choi matrices of a (..., d^2, d^2) stack.

    Row index (p, q), column (p', q'): C[(p q), (p' q')] = T[p p', q q'].
    The map is CP iff C is positive semidefinite; hermiticity
    preservation of the map is hermiticity of C.
    """
    d = int(dim)
    t = np.asarray(superop_data, dtype=complex)
    c = t.reshape(-1, d, d, d, d).swapaxes(2, 3)
    return c.reshape(t.shape[:-2] + (d * d, d * d))


def default_probe_times(kernel):
    """Probe times 0.1, 1 and 10 in units of the slowest kernel rate.

    The rate is the smallest nonzero eigenvalue magnitude of the
    dissipative kernel, so the probes straddle the relaxation knee.
    """
    evals = np.linalg.eigvals(kernel.data)
    mags = np.abs(evals)
    floor = 1e-12 * max(float(mags.max()), 1e-300)
    nonzero = mags[mags > floor]
    if nonzero.size == 0:
        raise InputError("kernel is numerically zero; no rate to set probe times")
    rate = float(nonzero.min())
    return (0.1 / rate, 1.0 / rate, 10.0 / rate)


def _propagators(liouv, t_probes):
    t = np.asarray(t_probes, dtype=float)
    if t.size == 0:
        raise InputError("t_probes is empty: there is no probe time to check")
    return t, expm(liouv.data * t[:, None, None])


def choi_spectrum(liouv, t_probes):
    """Smallest Choi eigenvalue of exp(L t) at each probe time.

    Returns (min_eigs, herm_defects); the defect is how far each Choi
    matrix sits from hermitian, reported rather than silently absorbed
    by the hermitization that precedes the eigensolve.
    """
    return _choi_spectrum(_propagators(liouv, t_probes)[1], liouv.dim)


def _choi_spectrum(props, d):
    c = choi_matrix(props, d)
    ch = c.conj().swapaxes(1, 2)
    return np.linalg.eigvalsh((c + ch) / 2)[:, 0], np.max(np.abs(c - ch), axis=(1, 2))


def _probe_states(dim, n_random, seed):
    # the basis kets, then random kets: each draws its real part, then its imaginary part
    raw = np.random.default_rng(seed).standard_normal((n_random, 2, dim))
    v = raw[:, 0] + 1j * raw[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([np.eye(dim, dtype=complex), v])


def positivity_scan(liouv, t_probes, n_random=64, seed=0):
    """Push pure states through exp(L t) and track the worst eigenvalue.

    Returns (min_eig, witness) with witness = (ket, time); replaying the
    witness through the same propagator reproduces min_eig, which makes
    a reported violation checkable instead of anecdotal.
    """
    t, props = _propagators(liouv, t_probes)
    return _scan(t, props, _probe_states(liouv.dim, n_random, seed))


def _scan(t, props, kets):
    """Every ket through every propagator; the first minimum in (time, ket) order wins."""
    n, d = kets.shape
    rho = (kets[:, :, None] * kets.conj()[:, None, :]).reshape(n, d * d)
    out = (props @ rho.T).swapaxes(1, 2).reshape(len(t), n, d, d)
    low = np.linalg.eigvalsh((out + out.conj().swapaxes(2, 3)) / 2)[..., 0]
    it, ik = np.unravel_index(np.argmin(low), low.shape)
    return float(low[it, ik]), (kets[ik].copy(), float(t[it]))


@dataclass(frozen=True)
class MapCheck:
    """Outcome of the CP/positivity probe of a generator."""

    verdict: str           # "cp-consistent" | "positivity-violating" | "inconclusive"
    probe_times: tuple
    choi_min: np.ndarray   # per probe
    choi_herm_defect: np.ndarray
    scan_min: float
    witness_ket: np.ndarray
    witness_time: float

    def as_dict(self):
        rep = {
            "verdict": self.verdict,
            "probe_times": self.probe_times,
            "choi_min": self.choi_min,
            "choi_herm_defect": self.choi_herm_defect,
            "scan_min_eigenvalue": self.scan_min,
            "tolerance": CHOI_TOL,
            "version": _io.PACKAGE_VERSION,
        }
        if self.witness_ket is not None:
            rep["witness"] = {
                "ket": self.witness_ket,
                "time": self.witness_time,
            }
        return rep


def map_check(liouv, kernel, t_probes=None, n_random=64, seed=0):
    """Classify a generator by Choi spectra plus a state-level scan.

    cp-consistent: no Choi eigenvalue below -1e-8 at any probe.
    positivity-violating: some evolved state has an eigenvalue below
    -1e-8; a concrete (ket, time) witness is attached.
    inconclusive: the Choi matrix dips negative but no probed state
    does, which is what a positive non-CP map looks like from here.
    """
    if t_probes is None:
        t_probes = default_probe_times(kernel)
    t, props = _propagators(liouv, t_probes)
    choi_min, defects = _choi_spectrum(props, liouv.dim)
    scan_min, (wk, wt) = _scan(t, props, _probe_states(liouv.dim, n_random, seed))
    if np.all(choi_min >= -CHOI_TOL):
        verdict, wk, wt = "cp-consistent", None, float("nan")
    else:
        verdict = "positivity-violating" if scan_min < -CHOI_TOL else "inconclusive"
    return MapCheck(
        verdict=verdict, probe_times=tuple(t.tolist()),
        choi_min=choi_min, choi_herm_defect=defects,
        scan_min=scan_min, witness_ket=wk, witness_time=wt,
    )


def flip_gain_sign(spectrum, couplings, bath_spec):
    """Jump-form kernel rebuilt with the sandwich (gain) term negated.

    Deliberately broken: the result violates trace conservation and
    positivity by construction.  It exists so the diagnostics have a
    known-guilty generator to convict in tests and demos.
    """
    return _jump_kernel(spectrum, couplings, bath_spec, gain_sign=-1.0)


def equivalence_report(spectrum, couplings, bath_spec, omega=0.0):
    """Pairwise comparison of the four Markov kernels plus the resolved
    kernel at a chosen frequency.

    Asserts nothing; reports max |difference| per pair, whether the
    energy-conserving and jump constructions coincide below
    EC_AGREEMENT_LIMIT times the largest kernel entry, and where the
    in/out entries that differ by more than that much live relative to
    the population block.
    """
    tags = ("redfield-in", "redfield-out", "energy-conserving", "lindblad")
    kernels = {tag: build_kernel(spectrum, couplings, bath_spec, tag) for tag in tags}
    kernels["born"] = build_kernel(spectrum, couplings, bath_spec, "born", omega=omega)
    scale = max(float(np.max(np.abs(k.data))) for k in kernels.values())
    pairs = {}
    names = list(kernels)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            diff, where = kernel_difference(kernels[a], kernels[b])
            pairs[f"{a}|{b}"] = {"max_abs_diff": diff, "at": [list(where[0]), list(where[1])]}
    ec_diff = pairs["energy-conserving|lindblad"]["max_abs_diff"]
    limit = EC_AGREEMENT_LIMIT * max(scale, 1e-300)
    in_out = _in_out_entries(kernels["redfield-in"], kernels["redfield-out"],
                             threshold=limit)
    return {
        "dim": spectrum.dim,
        "born_omega": float(omega),
        "scale": scale,
        "pairs": pairs,
        "ec_equals_lindblad": bool(ec_diff <= limit),
        "ec_lindblad_diff": ec_diff,
        "in_out": in_out,
        "trace_residuals": {tag: trace_condition_residual(k)
                            for tag, k in kernels.items()},
        "version": _io.PACKAGE_VERSION,
    }


def _in_out_entries(kernel_in, kernel_out, threshold):
    diff = np.abs(kernel_in.tensor() - kernel_out.tensor())
    hits = np.argwhere(diff > threshold)               # C order
    values = diff[tuple(hits.T)]
    on_pop = (hits[:, 0] == hits[:, 1]) & (hits[:, 2] == hits[:, 3])
    entries = [
        {"row": hits[n, :2].tolist(), "col": hits[n, 2:].tolist(),
         "abs_diff": float(values[n]), "population_block": bool(on_pop[n])}
        for n in np.argsort(-values, kind="stable")[:32]
    ]
    return {
        "max_abs_diff": float(diff.max()),
        "n_entries": len(hits),
        "entries": entries,
        "population_block_touched": bool(on_pop.any()),
        "threshold": float(threshold),
    }
