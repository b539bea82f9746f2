"""Propagation, steady states and block structure.

The full generator is L = L_H + K with (L_H rho)_{pp'} = -i E_{pp'}
rho_{pp'} diagonal in the flat pair index (snapped energies, consistent
with the kernels).  Markovian propagation uses matrix exponentials for
small systems and an adaptive high-order Runge-Kutta beyond; both paths
agree to 1e-8 where they overlap and that agreement is part of the test
suite.  Non-Markovian propagation integrates the time-nonlocal memory
kernel with a Heun predictor-corrector and trapezoid memory quadrature.
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg import expm
from scipy.integrate import solve_ivp

from .core import DensityMatrix, InputError, InvariantError, Superoperator, lrmul
from . import io as _io

__all__ = [
    "Liouvillian",
    "Trajectory",
    "SteadyStateResult",
    "BlockReport",
    "build_liouvillian",
    "evolve_markov",
    "evolve_nonlocal",
    "steady_state",
    "block_structure_report",
    "trace_distance",
    "trajectory_to_csv",
    "steady_result_json",
]

EXPM_DIM_LIMIT = 16       # largest d propagated by dense matrix exponentials


@dataclass(frozen=True)
class Liouvillian:
    """Full generator L = L_H + K on the flat pair index."""

    dim: int
    data: np.ndarray
    kernel_tag: str = ""

    def __post_init__(self):
        d2 = self.dim * self.dim
        m = np.asarray(self.data, dtype=complex)
        if m.shape != (d2, d2):
            raise InputError(f"Liouvillian data must be {d2} x {d2}")
        object.__setattr__(self, "data", m)

    def apply(self, rho):
        return (self.data @ np.asarray(rho, dtype=complex).ravel()).reshape(self.dim, self.dim)


def build_liouvillian(spectrum, kernel, tag=""):
    """Attach the coherent part -i E_{pp'} to a dissipative kernel."""
    if kernel.dim != spectrum.dim:
        raise InputError("kernel dimension does not match spectrum")
    lh = -1j * spectrum.bohr_matrix().ravel()
    return Liouvillian(spectrum.dim, np.diag(lh) + kernel.data, tag or "kernel")


@dataclass(frozen=True)
class Trajectory:
    """States on a time grid plus per-step health diagnostics."""

    times: np.ndarray             # (n,)
    states: np.ndarray            # (n, d, d) complex
    trace_drift: np.ndarray       # |tr rho - 1|
    herm_defect: np.ndarray       # max |rho - rho^dagger|
    min_eigenvalue: np.ndarray    # smallest eigenvalue of hermitized rho
    method: str = ""

    @property
    def dim(self):
        return self.states.shape[1]

    def final(self):
        return self.states[-1]


def _diagnostics(states):
    tr = np.einsum("tii->t", states)
    drift = np.abs(tr - 1.0)
    herm = np.max(np.abs(states - np.conj(np.swapaxes(states, 1, 2))), axis=(1, 2))
    hermitized = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
    mineig = np.linalg.eigvalsh(hermitized)[:, 0]
    return drift, herm, mineig


def _as_state(rho0):
    if isinstance(rho0, DensityMatrix):
        return rho0.matrix
    return DensityMatrix(np.asarray(rho0, dtype=complex)).matrix


def _check_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise InputError("time grid must be strictly increasing with >= 2 points")
    return t


def evolve_markov(liouv, rho0, t_grid, method="auto"):
    """Propagate rho0 along t_grid under a time-independent generator.

    method: "auto" picks matrix exponentials up to d=16 and the adaptive
    DOP853 integrator beyond; "expm" / "rk" force a path (the forced
    paths exist so their 1e-8 agreement stays testable).
    """
    t = _check_grid(t_grid)
    rho = _as_state(rho0)
    d = liouv.dim
    if rho.shape != (d, d):
        raise InputError("initial state dimension does not match Liouvillian")
    if method == "auto":
        method = "expm" if d <= EXPM_DIM_LIMIT else "rk"
    if method not in ("expm", "rk"):
        raise InputError(f"unknown method {method!r}")

    vecs = np.empty((t.size, d * d), dtype=complex)
    vecs[0] = rho.ravel()
    if method == "expm":
        # one exponential per distinct step size; uniform grids pay once
        props = {}
        for i in range(1, t.size):
            dt = t[i] - t[i - 1]
            key = round(dt / (t[-1] - t[0]), 15)
            if key not in props:
                props[key] = expm(liouv.data * dt)
            vecs[i] = props[key] @ vecs[i - 1]
    else:
        sol = solve_ivp(
            lambda _, y: liouv.data @ y,
            (t[0], t[-1]), vecs[0],
            t_eval=t, method="DOP853", rtol=1e-10, atol=1e-12,
        )
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else t[0]
            raise InvariantError(
                f"adaptive integration failed after t={reached:g}: {sol.message}"
            )
        vecs = sol.y.T.astype(complex)

    states = vecs.reshape(t.size, d, d)
    drift, herm, mineig = _diagnostics(states)
    return Trajectory(t, states, drift, herm, mineig, method)


# ---------------------------------------------------------------------------
# time-nonlocal propagation

NONLOCAL_DIM_LIMIT = 12


def _memory_kernels(spectrum, couplings, corr, taus):
    """Superoperator memory kernel K(tau) at each tau node.

    Four-term second-order kernel with the free propagators diagonal in
    the energy basis; the retarded step function is taken at its one-
    sided tau -> 0+ limit, the trapezoid endpoint weight handles the
    boundary.
    """
    esnap = spectrum.snapped
    s = couplings.matrices
    n = couplings.n_channels
    d = spectrum.dim
    out = np.empty((len(taus), d * d, d * d), dtype=complex)
    for idx, tau in enumerate(taus):
        u = np.diag(np.exp(-1j * esnap * tau))
        ud = u.conj()
        dp = corr.at(tau)
        dm = corr.at(-tau)
        k = np.zeros((d * d, d * d), dtype=complex)
        for a in range(n):
            for b in range(n):
                sa, sb = s[a], s[b]
                k -= dp[a, b] * lrmul(sa @ u @ sb, ud)
                k -= dm[a, b] * lrmul(u, sa @ ud @ sb)
                k += dm[a, b] * lrmul(sb @ u, sa @ ud)
                k += dp[a, b] * lrmul(u @ sb, ud @ sa)
        out[idx] = k
    return out


def evolve_nonlocal(spectrum, couplings, corr, rho0, t_grid):
    """Integrate the time-nonlocal master equation

        d rho / dt = -i [H_S, rho]
                     + int_{max(t0, t - tau_mem)}^{t} K(t - t') rho(t') dt'

    on a uniform grid.  Heun predictor-corrector, trapezoid memory, both
    O(h^2).  The memory integral is truncated at the trajectory start
    for early times (no history is invented before t0), so the first
    few steps carry the documented initial transient.
    """
    t = _check_grid(t_grid)
    h = t[1] - t[0]
    if np.any(np.abs(np.diff(t) - h) > 1e-9 * h):
        raise InputError("nonlocal propagation needs a uniform time grid")
    d = spectrum.dim
    if d > NONLOCAL_DIM_LIMIT:
        raise InputError(f"nonlocal propagation supports d <= {NONLOCAL_DIM_LIMIT}")
    if couplings.dim != d:
        raise InputError("coupling dimension does not match spectrum")
    if corr.n_channels != couplings.n_channels:
        raise InputError("correlation/coupling channel mismatch")
    if tuple(corr.adjoint_map) != tuple(couplings.adjoint_map):
        raise InputError(
            "correlation function was built with a different channel adjoint "
            "map than the couplings; rebuild it with the matching map"
        )
    rho = _as_state(rho0)

    m = max(int(round(corr.tau_memory / h)), 1)
    kt = _memory_kernels(spectrum, couplings, corr, np.arange(m + 1) * h)
    lh = -1j * spectrum.bohr_matrix().ravel()

    hist = np.empty((t.size, d * d), dtype=complex)
    hist[0] = rho.ravel()

    def deriv(i, head):
        # time derivative at node i with hist[i] replaced by head
        if i == 0:
            return lh * head
        j = min(i, m)
        w = np.ones(j + 1)
        w[0] = w[-1] = 0.5
        window = np.empty((j + 1, d * d), dtype=complex)
        window[0] = head
        window[1:] = hist[i - j:i][::-1]
        mem = h * np.einsum("j,jab,jb->a", w, kt[: j + 1], window)
        return lh * head + mem

    for i in range(t.size - 1):
        f0 = deriv(i, hist[i])
        pred = hist[i] + h * f0
        f1 = deriv(i + 1, pred)
        hist[i + 1] = hist[i] + 0.5 * h * (f0 + f1)

    states = hist.reshape(t.size, d, d)
    drift, herm, mineig = _diagnostics(states)
    return Trajectory(t, states, drift, herm, mineig, "heun-nonlocal")


# ---------------------------------------------------------------------------
# steady states

@dataclass(frozen=True)
class SteadyStateResult:
    """Null space of the generator, post-processed into candidate states."""

    states: list                 # (d, d) arrays
    normalized: list             # bool per state (trace-normalized or flagged)
    traces: list                 # complex trace before normalization
    multiplicity: int
    singular_values: np.ndarray  # ascending, the smallest few
    threshold: float

    def state(self):
        """The unique normalized steady state, when there is one."""
        if self.multiplicity != 1:
            raise InvariantError(
                f"steady state is not unique (multiplicity {self.multiplicity})"
            )
        if not self.normalized[0]:
            raise InvariantError("unique null vector is traceless")
        return self.states[0]


def steady_state(liouv, rel_threshold=1e-10, gap_factor=10.0):
    """Null space of L by SVD.

    Singular values below rel_threshold * ||L||_2 count as zero; the
    smallest surviving one must clear the cutoff by gap_factor, since a
    borderline value means the rank decision would be a guess.

    :raises InvariantError: no null vector, or no clean gap.
    """
    d = liouv.dim
    _, svals, vh = np.linalg.svd(liouv.data)
    norm = svals[0] if svals.size else 0.0
    cut = rel_threshold * norm
    null_idx = np.flatnonzero(svals <= cut)
    mult = int(null_idx.size)
    if mult == 0:
        raise InvariantError(
            f"no singular value below {cut:g} (smallest is {svals[-1]:g}); "
            f"the generator has no steady state at this threshold"
        )
    if mult < svals.size:
        smallest_kept = svals[null_idx[0] - 1]
        if smallest_kept <= gap_factor * cut:
            raise InvariantError(
                f"no clean spectral gap: sigma={smallest_kept:g} sits within "
                f"{gap_factor:g}x of the null cutoff {cut:g}"
            )
    states, flags, traces = [], [], []
    for i in null_idx:
        rho = vh[i].conj().reshape(d, d)
        rho = (rho + rho.conj().T) / 2
        fn = np.linalg.norm(rho)
        if fn > 0:
            rho = rho / fn
        tr = complex(np.trace(rho))
        traces.append(tr)
        if abs(tr) > 1e-10:
            states.append(rho / tr)
            flags.append(True)
        else:
            states.append(rho)
            flags.append(False)
    return SteadyStateResult(
        states=states, normalized=flags, traces=traces, multiplicity=mult,
        singular_values=svals[::-1][: max(mult + 2, 4)].copy(), threshold=float(cut),
    )


# ---------------------------------------------------------------------------
# block structure

@dataclass(frozen=True)
class BlockReport:
    """Population/coherence coupling structure of a kernel."""

    coherences_feed_populations: bool   # some K[pp, qq'] with q != q'
    populations_feed_coherences: bool   # some K[pp', qq] with p != p'
    cross_entries: list                 # ((p, p'), (q, q'), magnitude)
    degeneracy_classes: list
    threshold: float


def block_structure_report(spectrum, kernel, threshold=1e-12):
    """Scan the population rows/columns of a kernel for cross coupling."""
    if kernel.dim != spectrum.dim:
        raise InputError("kernel dimension does not match spectrum")
    d = kernel.dim
    t = kernel.tensor()
    rng = np.arange(d)
    off = rng[:, None] != rng[None, :]
    rows, cols = t[rng, rng], t[:, :, rng, rng]   # K[pp, qq'], K[pp', qq]
    # hypot rounds like the scalar abs() of the reports; np.abs may not
    into_pop = np.hypot(rows.real, rows.imag)     # [p, q, q']
    from_pop = np.hypot(cols.real, cols.imag)     # [p, p', q]
    into = [((p, p), (q, q2), float(into_pop[p, q, q2])) for p, q, q2 in
            np.argwhere((into_pop > threshold) & off[None]).tolist()]
    out = [((p, p2), (q, q), float(from_pop[p, p2, q])) for p, p2, q in
           np.argwhere((from_pop > threshold) & off[:, :, None]).tolist()]
    return BlockReport(
        coherences_feed_populations=bool(into),
        populations_feed_coherences=bool(out),
        cross_entries=into + out,
        degeneracy_classes=[list(map(int, c)) for c in spectrum.classes()],
        threshold=float(threshold),
    )


# ---------------------------------------------------------------------------
# helpers and exports

def trace_distance(a, b):
    """(1/2) trace norm of the difference of two hermitian matrices."""
    diff = np.asarray(a) - np.asarray(b)
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def trajectory_to_csv(traj, path):
    """Columns: t, Re/Im of each rho_{pq} row-major, trace, min eigenvalue."""
    d = traj.dim
    cols = ["t"] + [f"{part}_rho_{p}_{q}" for p in range(d) for q in range(d)
                    for part in ("re", "im")] + ["trace", "min_eig"]
    states = np.ascontiguousarray(traj.states).reshape(len(traj.times), -1)
    trace = [np.trace(s).real for s in traj.states]
    table = np.column_stack([traj.times, states.view(float), trace,
                             traj.min_eigenvalue])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        _io.write_csv_rows(fh, table)


def steady_result_json(result):
    return {
        "multiplicity": result.multiplicity,
        "threshold": result.threshold,
        "singular_values": [float(s) for s in result.singular_values],
        "states": [
            {
                "matrix": _io.complex_matrix_to_json(s),
                "trace_normalized": bool(f),
                "raw_trace": [t.real, t.imag],
            }
            for s, f, t in zip(result.states, result.normalized, result.traces)
        ],
    }
