"""Propagation, steady states and block structure.

The full generator is L = L_H + K with (L_H rho)_{pp'} = -i E_{pp'}
rho_{pp'} diagonal in the flat pair index (snapped energies, consistent
with the kernels).  Markovian propagation uses matrix exponentials while
the generator's largest block (below) has at most EXPM_DIM_LIMIT**2
pairs, and an adaptive high-order Runge-Kutta beyond; both paths agree
to 1e-8 where they overlap and that agreement is part of the test
suite.  Steady states and exponentials work per block of the generator
(``Superoperator.blocks``), which its builder declares.  Covariant
generators (energy-conserving, lindblad) map a level pair only to pairs
of the same Bohr frequency, so each Bohr bin is one block; their builders
hand over the blocks, and no d^4 matrix is built.  A dense generator
(redfield, born) is one block, a stack of one for the same code, even
where its coupling splits the nonzero pattern; the zero kernel is d^2
one-pair blocks.  The split is exact, because off-block entries are
structural zeros.  Non-Markovian propagation builds all memory-kernel
nodes in one array pass and integrates with a Heun predictor-corrector
and trapezoid memory quadrature.  That recurrence is linear and time-invariant, so the
kernel window is folded in place into one step matrix: one matrix-vector
product per step.  scipy is imported on first use (``expm``, ``solve_ivp``
below), so only the propagating commands load it.
"""

import numpy as np
from dataclasses import dataclass

from .core import DensityMatrix, InputError, InvariantError, Superoperator
from . import io as _io

__all__ = [
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

NULL_REL_THRESHOLD = 1e-10     # steady_state: zero singular values, relative
GAP_FACTOR = 10.0              # ... and the margin the next one must clear

# largest d propagated by dense matrix exponentials; a generator that
# splits into blocks takes them while its largest block has at most
# EXPM_DIM_LIMIT**2 pairs, whatever d
EXPM_DIM_LIMIT = 16


def expm(a):
    """scipy.linalg.expm, imported on first use, so that the commands
    that do not propagate load no scipy."""
    from scipy.linalg import expm as _expm
    return _expm(a)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: only the rk path
    needs it, and it is the largest import of the package."""
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


def build_liouvillian(spectrum, kernel):
    """Full generator L = L_H + K: the coherent part -i E_{pp'} attached
    to a dissipative kernel, as a Superoperator on the flat pair index.
    The coherent part is diagonal, so L has the blocks of K: each block
    is copied once with -i E_{pp'} added on its diagonal."""
    if kernel.dim != spectrum.dim:
        raise InputError("kernel dimension does not match spectrum")
    coherent = -1j * spectrum.bohr_matrix().ravel()
    blocks = []
    for idx, vals in kernel.blocks:
        vals = vals.copy()
        np.einsum("bii->bi", vals)[...] += coherent[idx]
        blocks.append((idx, vals))
    return Superoperator(spectrum.dim, blocks=blocks)


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


def _trajectory(t, states, method):
    """Trajectory with its diagnostics; raises InvariantError naming the
    first time whose state is not finite (a propagator that overflowed)."""
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        raise InvariantError(
            f"propagated state is not finite from t={t[np.argmin(finite)]:g} on")
    drift = np.abs(np.einsum("tii->t", states) - 1.0)
    herm = np.max(np.abs(states - np.conj(np.swapaxes(states, 1, 2))), axis=(1, 2))
    hermitized = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
    mineig = np.linalg.eigvalsh(hermitized)[:, 0]
    return Trajectory(t, states, drift, herm, mineig, method)


def _as_state(rho0):
    if isinstance(rho0, DensityMatrix):
        return rho0.matrix
    return DensityMatrix(np.asarray(rho0, dtype=complex)).matrix


def _check_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise InputError("time grid must be strictly increasing with >= 2 points")
    return t


def evolve_markov(liouv, rho0, t_grid):
    """Propagate rho0 along t_grid under a time-independent generator.

    Matrix exponentials of each block (method "expm") while the largest
    block has at most EXPM_DIM_LIMIT**2 pairs (d <= 16 for one block),
    adaptive DOP853 (method "rk") beyond; the paths agree to 1e-8.  Steps
    of one relative size (to 15 decimals) share an exponential, taken
    with one expm call per block size and run of consecutive steps; a run
    holds as many distinct sizes as have propagators no larger than the
    trajectory (two at least).  So a uniform grid, or a linspace grid
    that rounds to two sizes, pays once, and memory does not grow with
    the number of distinct steps.
    """
    t = _check_grid(t_grid)
    rho = _as_state(rho0)
    d = liouv.dim
    if rho.shape != (d, d):
        raise InputError("initial state dimension does not match Liouvillian")
    blocks = liouv.blocks
    method = "expm" if blocks[-1][0].shape[1] <= EXPM_DIM_LIMIT ** 2 else "rk"

    vecs = np.empty((t.size, d * d), dtype=complex)
    vecs[0] = rho.ravel()
    if method == "expm":
        steps = np.diff(t)
        _, first, step_id = np.unique(np.round(steps / (t[-1] - t[0]), 15),
                                      return_index=True, return_inverse=True)
        step_id = step_id.tolist()
        for idx, sub in blocks:
            width = max(2, vecs.size // sub.size)
            xs = np.empty((t.size, *idx.shape, 1), dtype=complex)
            xs[0, ..., 0] = vecs[0, idx]
            i = 0
            while i < steps.size:
                run, j = {}, i                  # step id -> its propagator's slot
                while j < steps.size and (step_id[j] in run or len(run) < width):
                    run.setdefault(step_id[j], len(run))
                    j += 1
                props = expm(sub * steps[first[list(run)]][:, None, None, None])
                for k in range(i, j):
                    np.matmul(props[run[step_id[k]]], xs[k], out=xs[k + 1])
                i = j
            vecs[:, idx] = xs[..., 0]
    else:
        sol = solve_ivp(
            lambda _, y: liouv.data @ y,
            (t[0], t[-1]), vecs[0],
            t_eval=t, method="DOP853", rtol=1e-12, atol=1e-14,
        )
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else t[0]
            raise InvariantError(
                f"adaptive integration failed after t={reached:g}: {sol.message}"
            )
        vecs = sol.y.T.astype(complex)

    return _trajectory(t, vecs.reshape(t.size, d, d), method)


# ---------------------------------------------------------------------------
# time-nonlocal propagation

NONLOCAL_DIM_LIMIT = 12


def _memory_kernels(spectrum, couplings, corr, taus):
    """Superoperator memory kernel K(tau) at each tau node, all at once.

    Four-term second-order kernel with the free propagators diagonal in
    the energy basis; the retarded step function is taken at its one-
    sided tau -> 0+ limit, the trapezoid endpoint weight handles the
    boundary.  The (T, d^2, d^2) stack is a view of a (d^2, T, d^2)
    buffer, so the nodes side by side are a reshape, not a copy.
    """
    taus = np.asarray(taus, dtype=float)
    s = couplings.matrices
    d = spectrum.dim
    ph = np.exp(-1j * np.multiply.outer(taus, spectrum.snapped))   # U(tau) diagonals
    phc = ph.conj()
    dp, dm = corr.at(taus), corr.at(-taus)
    # gains rho -> S_b U rho S_a U^dag (weight D^{ab}(-tau)) and
    # U S_b rho U^dag S_a (weight D^{ab}(tau)), stacked on one channel
    # axis so that a single einsum sums both
    left = np.concatenate([s * ph[:, None, None, :], ph[:, None, :, None] * s], axis=1)
    right = np.concatenate([np.einsum("tab,aqp,tp->tbqp", dm, s, phc),
                            np.einsum("tab,tq,aqp->tbqp", dp, phc, s)], axis=1)
    k = np.empty((d, d, taus.size, d, d), dtype=complex)
    np.einsum("tcpq,tcQP->pPtqQ", left, right, out=k)
    # losses rho -> S_a U S_b rho U^dag and U rho S_a U^dag S_b, on the
    # diagonals P = Q and p = q (einsum diagonals are writeable views)
    diag = np.einsum("pPtqP->pPtq", k)
    diag -= np.einsum("tab,apr,tr,brq->ptq", dp, s, ph, s)[:, None] * phc.T[:, :, None]
    diag = np.einsum("pPtpQ->pPtQ", k)
    diag -= ph.T[:, None, :, None] * np.einsum("tab,aqr,tr,brp->ptq", dm, s, phc, s)
    return k.reshape(d * d, taus.size, d * d).transpose(1, 0, 2)


def evolve_nonlocal(spectrum, couplings, corr, rho0, t_grid):
    """Integrate the time-nonlocal master equation

        d rho / dt = -i [H_S, rho]
                     + int_{max(t0, t - tau_mem)}^{t} K(t - t') rho(t') dt'

    on a uniform grid.  Heun predictor-corrector, trapezoid memory, both
    O(h^2).  The memory integral is truncated at the trajectory start
    for early times (no history is invented before t0), so the first
    few steps carry the documented initial transient.
    The kernel is stored once, times h, as the window [K(m h) ... K(0)],
    and m zero rows precede t0 in the history, so a node's memory sum
    mu_i is one product with a contiguous slice.  The Heun step is linear
    and the same at every node: with H the coherent part plus h K(0) / 2,
    x_{i+1} = A x_i + B mu_i + (h/2) mu_{i+1}, A = I + h H + (h H)^2 / 2
    and B = (h/2) (I + h H).  The window is folded in place into that
    step matrix over the m + 1 latest nodes, less the identity, so each
    step after the first is one matrix-vector product for the increment
    x_{i+1} - x_i; adding x_i after it keeps the rounding, and the trace
    drift, at the size of the increment.
    """
    t = _check_grid(t_grid)
    h = t[1] - t[0]
    if np.any(np.abs(np.diff(t) - h) > 1e-9 * h):
        raise InputError("nonlocal propagation needs a uniform time grid")
    d = spectrum.dim
    if d > NONLOCAL_DIM_LIMIT:
        raise InputError(f"nonlocal propagation supports d <= {NONLOCAL_DIM_LIMIT}")
    corr.check_system(spectrum, couplings)
    rho = _as_state(rho0)

    m = max(int(round(corr.tau_memory / h)), 1)
    dd = d * d
    win = _memory_kernels(spectrum, couplings, corr, h * np.arange(m, -1, -1))
    win = win.transpose(1, 0, 2).reshape(dd, (m + 1) * dd)
    win *= h
    blk = win.reshape(dd, m + 1, dd)                      # blk[:, m - j] = h K(j h)
    # the node's own state enters with the coherent part and half of K(0)
    head = 0.5 * blk[:, m]
    head.flat[::dd + 1] += -1j * spectrum.bohr_matrix().ravel()
    hist = np.zeros((m + t.size, dd), dtype=complex)      # node i at row m + i
    x0 = hist[m] = rho.ravel()
    with np.errstate(over="ignore", invalid="ignore"):   # _trajectory reports it
        # the first step unfused: node 0 has no memory, so its far end is
        # itself and cancels the head's half of K(0) exactly, and A's H^2
        # may overflow where this state is still finite
        f0 = head @ x0 - 0.5 * (blk[:, m] @ x0)
        hist[m + 1] = x0 + 0.5 * h * (f0 + head @ (x0 + h * f0) + 0.5 * (blk[:, m - 1] @ x0))
        # mu_i is the window, far end halved, times rows i .. i + m - 1;
        # while t0 is inside the window (0 < i < m) it takes c[i] =
        # -h K(i h) x0 / 2 more, which enters x_{i+1} as the row
        # early[i - 1] = B c[i] + (h/2) c[i + 1]
        c = -0.5 * np.einsum("akb,b->ka", blk[:, ::-1], x0)
        c[m] = 0.0
        a = h * head @ (np.eye(dd) + 0.5 * h * head)          # A - I
        b = 0.5 * h * (np.eye(dd) + h * head)
        early = c[1:m] @ b.T + 0.5 * h * c[2:]
        # fold right to left: block k = B mu-block k + (h/2) mu-block k - 1,
        # and the node's own block m also takes A - I
        blk[:, 0] *= 0.5
        blk[:, m] = a + 0.5 * h * blk[:, m - 1]
        for k in range(m - 1, 0, -1):
            blk[:, k] = b @ blk[:, k] + 0.5 * h * blk[:, k - 1]
        blk[:, 0] = b @ blk[:, 0]
        for i in range(1, t.size - 1):
            np.dot(win, hist[i:i + m + 1].ravel(), out=hist[m + i + 1])
            hist[m + i + 1] += hist[m + i]
            if i < m:
                hist[m + i + 1] += early[i - 1]
    return _trajectory(t, hist[m:].reshape(t.size, d, d), "heun-nonlocal")


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


def steady_state(liouv):
    """Null space of L by SVD.

    Singular values below NULL_REL_THRESHOLD * ||L||_2 count as zero; the
    smallest surviving one must clear the cutoff by GAP_FACTOR, since a
    borderline value means the rank decision would be a guess.  A
    generator that splits into blocks runs one stacked SVD per block
    size; the union of their singular values is that of L.

    :raises InvariantError: no null vector, or no clean gap.
    """
    d = liouv.dim
    blocks = liouv.blocks
    svds = [np.linalg.svd(vals)[1:] for _, vals in blocks]
    svals = np.concatenate([sv.ravel() for sv, _ in svds])
    order = np.argsort(-svals, kind="stable")
    svals = svals[order]
    norm = svals[0] if svals.size else 0.0
    cut = NULL_REL_THRESHOLD * norm
    null_idx = np.flatnonzero(svals <= cut)
    mult = int(null_idx.size)
    if mult == 0:
        raise InvariantError(
            f"no singular value below {cut:g} (smallest is {svals[-1]:g}); "
            f"the generator has no steady state at this threshold"
        )
    if mult < svals.size:
        smallest_kept = svals[null_idx[0] - 1]
        if smallest_kept <= GAP_FACTOR * cut:
            raise InvariantError(
                f"no clean spectral gap: sigma={smallest_kept:g} sits within "
                f"{GAP_FACTOR:g}x of the null cutoff {cut:g}"
            )
    # scatter each block's null vector back onto the full pair index
    offsets = np.cumsum([0] + [sv.size for sv, _ in svds])
    null = np.zeros((mult, d * d), dtype=complex)
    for row, pos in zip(null, order[null_idx]):
        g = np.searchsorted(offsets, pos, side="right") - 1
        idx = blocks[g][0]
        b, r = divmod(int(pos - offsets[g]), idx.shape[1])
        row[idx[b]] = svds[g][1][b, r]
    states, flags, traces = [], [], []
    for v in null:
        rho = v.conj().reshape(d, d)
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
    """(1/2) trace norm of the difference of two hermitian matrices.

    Works on the last two axes: two (..., d, d) stacks give an array of
    distances, two matrices a float.
    """
    diff = np.asarray(a) - np.asarray(b)
    diff = (diff + np.swapaxes(diff, -1, -2).conj()) / 2
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def trajectory_to_csv(traj, path):
    """Columns: t, Re/Im of each rho_{pq} row-major, trace, min eigenvalue."""
    d = traj.dim
    cols = ["t"] + [f"{part}_rho_{p}_{q}" for p in range(d) for q in range(d)
                    for part in ("re", "im")] + ["trace", "min_eig"]
    states = np.ascontiguousarray(traj.states).reshape(len(traj.times), -1)
    trace = np.trace(traj.states, axis1=1, axis2=2).real
    table = np.column_stack([traj.times, states.view(float), trace,
                             traj.min_eigenvalue])
    _io.write_csv_rows(path, cols, table)


def steady_result_json(result):
    return {
        "multiplicity": result.multiplicity,
        "threshold": result.threshold,
        "singular_values": result.singular_values,
        "states": [
            {
                "matrix": s,
                "trace_normalized": bool(f),
                "raw_trace": [t.real, t.imag],
            }
            for s, f, t in zip(result.states, result.normalized, result.traces)
        ],
    }
