"""Propagation, steady states and block structure.

The full generator is L = L_H + K with (L_H rho)_{pp'} = -i E_{pp'}
rho_{pp'} diagonal in the flat pair index (snapped energies, consistent
with the kernels).  Markovian propagation takes each size group of the
generator's blocks (below) by matrix exponentials while its blocks have
at most EXPM_DIM_LIMIT**2 pairs, and by an adaptive high-order
Runge-Kutta beyond; both paths agree to 1e-8 where they overlap, as the
tests check.  The exponentials are ``expm`` below: scaling and squaring
with Pade approximants in numpy alone, one degree and scaling per block.
Stretches of equal steps are filled by doubling where that saves matmul
calls.  Steady states and propagators work per block of the generator
(``Superoperator.blocks``), which its builder declares.
Covariant generators (energy-conserving, lindblad) map a level pair only
to pairs of the same Bohr frequency, so each Bohr bin is one block;
their builders hand over the blocks, and no d^4 matrix is built.  A dense
generator (redfield, born) is one block, a stack of one for the same
code, even where its coupling splits the nonzero pattern; the zero
kernel is a population block and one-pair blocks.  The split is exact,
off-block entries being structural zeros.  A block rho(0) leaves empty stays
empty: a covariant generator commutes with the free evolution, every
Bohr sector is invariant, and a start with populations only stays in
the zero bin with no coherence between distinct energies (the Pauli
sector).  Markovian propagation takes only the occupied blocks, and the
diagnostics of a trajectory whose states are all diagonal are read off
the diagonal.  ``steady_state`` returns the steady-state document: a
state per null vector of L, one SVD per block size, with singular
values up to 16 m eps ||L||_2, the rounding level, counted as
zero (m the largest block size).  ``block_structure_report`` returns
the block-report document: the kernel's entries that join populations
and coherences, read off the rows and columns of the populations,
which one block holds.  Non-Markovian propagation builds the
memory-kernel nodes in array passes and integrates with a Heun
predictor-corrector and trapezoid memory quadrature.  That recurrence is
linear and time-invariant, so the kernel window is folded in place into
one step matrix, applied to a block of steps at a time in a real basis of
hermitian matrices (``evolve_nonlocal`` below).  scipy is imported
on first use by the Runge-Kutta path alone (``solve_ivp`` below), so
the exponential path loads none of it.
"""

import numpy as np
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .core import DensityMatrix, InputError, InvariantError, Superoperator
from . import io as _io

__all__ = [
    "Trajectory",
    "build_liouvillian",
    "evolve_markov",
    "evolve_nonlocal",
    "check_nonlocal_grid",
    "steady_state",
    "block_structure_report",
    "trace_distance",
    "trajectory_to_csv",
]

GAP_FACTOR = 10.0              # steady_state: the margin over the null cutoff
CROSS_THRESHOLD = 1e-12        # block_structure_report: smallest |K| listed

# largest d propagated by dense matrix exponentials; a generator that
# splits into blocks takes them for each size group whose blocks have at
# most EXPM_DIM_LIMIT**2 pairs, whatever d, and DOP853 for the others
EXPM_DIM_LIMIT = 16
# one matmul call's cost in complex multiply-adds (one BLAS thread): n
# equal steps on blocks of m pairs are filled by doubling when its 2 b
# calls and b m^3 squarings, b = n.bit_length(), cost less than n calls
MATMUL_CALL_COST = 6000


# Higham (2005), Table 2.3: the largest 1-norm theta_m at which the degree-m
# diagonal Pade approximant of exp has backward error below unit roundoff
# in double precision, and its coefficients b_k = (2m - k)! / (k! (m - k)!)
PADE = tuple((theta, [float(factorial(2 * m - k) // (factorial(k) * factorial(m - k)))
                      for k in range(m + 1)])
             for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                              (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                              (13, 5.371920351148152e0)))
# expm takes a stack in chunks of at most this many entries (one slice if
# larger), so its temporaries, about ten chunks, stay near 0.6 MB
EXPM_CHUNK = 4096


def expm(a):
    """exp of each m x m slice of a stack (..., m, m), by scaling and
    squaring with diagonal Pade approximants (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179, 2005), in numpy alone.

    Each slice takes its own degree, the lowest m with ||A||_1 <= theta_m,
    else 13 after scaling by 2^-s, s = ceil(log2(||A||_1 / theta_13)), then
    s squarings.  Every step acts on each slice alone, so a slice has the
    same bits alone as in any stack.  Each squaring may double the
    rounding, so a slice agrees with scipy.linalg.expm (Al-Mohy & Higham,
    ibid. 31, 970, 2009, which picks s by sharper norm bounds) to about
    2^s eps relative.  A slice whose norm is not finite, or that needs
    s >= 52 squarings (2^s eps >= 1: no digit is left), comes out NaN,
    which the propagators report as a breach.  1 x 1 slices are np.exp.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    m = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if m == 1:
            return np.exp(a)
        stack = a.reshape(-1, m, m)
        out = np.empty_like(stack)
        step = max(1, EXPM_CHUNK // (m * m))
        for i in range(0, len(stack), step):
            out[i:i + step] = _scaled_pade(stack[i:i + step])
    return out.reshape(a.shape)


def _scaled_pade(a):
    """expm of a stack of slices, each with its own degree and scaling."""
    norm = np.abs(a).sum(axis=1).max(axis=1)
    theta = [th for th, _ in PADE]
    deg = np.minimum(np.searchsorted(theta, norm), len(PADE) - 1)
    s = np.ceil(np.log2(np.maximum(norm, theta[-1]) / theta[-1]))
    bad = ~(s < 52)                     # 2^s eps >= 1, or a norm not finite
    s = np.where(bad, 0, s).astype(int)
    r = np.full_like(a, np.nan)
    for g in np.unique(deg[~bad]):
        sel = (deg == g) & ~bad
        r[sel] = _pade(a[sel] * np.ldexp(1.0, -s[sel])[:, None, None], PADE[g][1])
    for j in range(s.max(initial=0)):
        sel = s > j
        q = r[sel]
        r[sel] = q @ q
    return r


def _pade(a, b):
    """(V - U)^-1 (V + U), the Pade approximant with coefficients b of exp
    on a stack: U = A sum_k b_{2k+1} A^2k, V = sum_k b_2k A^2k, degree 13
    taking A^8 .. A^13 as A^6 times A^2, A^4, A^6 (Higham 2005, Alg. 2.3)."""
    low, high = (b[:8], b[8:]) if len(b) == 14 else (b, [])
    powers = [np.eye(a.shape[-1]), a @ a]
    while len(powers) < len(low) // 2:
        powers.append(powers[-1] @ powers[1])
    u = sum(c * p for c, p in zip(low[1::2], powers))
    v = sum(c * p for c, p in zip(low[::2], powers))
    if high:
        u += powers[3] @ sum(c * p for c, p in zip(high[1::2], powers[1:]))
        v += powers[3] @ sum(c * p for c, p in zip(high[::2], powers[1:]))
    u = a @ u
    return np.linalg.solve(v - u, v + u)


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


def _trajectory(t, states, method):
    """Trajectory with its diagnostics; raises InvariantError naming the
    first time whose state is not finite (a propagator that overflowed).

    If every state is diagonal, the Hermiticity defect is max |2 Im
    rho_pp| and the smallest eigenvalue min Re rho_pp: the bits of the
    dense formulas below, as rho - rho^dagger is then 2i Im rho_pp and
    zheevd returns a diagonal's entries exactly.  (Where zheevd rescales,
    entries below 1.5e-146 or above 6.7e145, it may be 1 ulp off them.)
    """
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        raise InvariantError(
            f"propagated state is not finite from t={t[np.argmin(finite)]:g} on")
    drift = np.abs(np.einsum("tii->t", states) - 1.0)
    diag = np.einsum("tii->ti", states)
    if np.count_nonzero(states) == np.count_nonzero(diag):     # diagonal states
        herm = np.max(np.abs(2 * diag.imag), axis=1)
        mineig = np.min(diag.real, axis=1) + 0.0       # -0.0 reads +0.0, as in eigvalsh
    else:
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

    Each size group takes matrix exponentials of its blocks while they
    have at most EXPM_DIM_LIMIT**2 pairs (d <= 16 for one block), else
    adaptive DOP853 as one ODE over its stacked blocks; the method is "rk"
    when the largest group took DOP853.  The paths agree to 1e-8.  Steps
    of one relative size (to 15 decimals) share an exponential: one expm
    call per block size and run of stretches of equal steps, a run holding
    as many sizes as have propagators no larger than the trajectory (two
    at least), so a uniform grid pays once and memory does not grow with
    the number of distinct steps.  Where MATMUL_CALL_COST says so, a
    stretch is filled by doubling (P^s times the s states filled gives
    the next s, then P^s is squared), else by one product per step.

    Only the blocks that rho0 occupies (any nonzero pair) are propagated,
    on either path; the generator maps no other block into them, so every
    other entry stays exactly 0, and a group with no occupied block takes
    no exponential.  The method label is read from the generator's
    largest group, which holds the zero bin that every state occupies.
    """
    t = _check_grid(t_grid)
    rho = _as_state(rho0)
    d = liouv.dim
    if rho.shape != (d, d):
        raise InputError("initial state dimension does not match Liouvillian")
    steps = np.diff(t)
    _, first, step_id = np.unique(np.round(steps / (t[-1] - t[0]), 15),
                                  return_index=True, return_inverse=True)
    bounds = np.flatnonzero(np.diff(step_id, prepend=-1, append=-1)).tolist()
    ids = step_id[bounds[:-1]].tolist()     # stretch k: steps bounds[k] .. bounds[k+1]-1
    vecs = np.zeros((t.size, d * d), dtype=complex)
    vecs[0] = rho.ravel()
    for idx, sub in liouv.blocks:
        occupied = vecs[0, idx].any(axis=1)     # a block rho0 leaves empty stays 0
        if not occupied.all():
            idx, sub = idx[occupied], sub[occupied]
        n_blocks, m = idx.shape
        if n_blocks == 0:
            continue
        if m > EXPM_DIM_LIMIT ** 2:             # one ODE over the stacked blocks
            sol = solve_ivp(lambda _, y: np.matmul(sub, y.reshape(n_blocks, m, 1)).ravel(),
                            (t[0], t[-1]), vecs[0, idx].ravel(), t_eval=t,
                            method="DOP853", rtol=1e-12, atol=1e-14)
            if not sol.success:
                reached = sol.t[-1] if sol.t.size else t[0]
                raise InvariantError(
                    f"adaptive integration failed after t={reached:g}: {sol.message}"
                )
            vecs[:, idx] = sol.y.T.reshape(t.size, n_blocks, m)
            continue
        width = max(2, vecs.size // sub.size)
        cols = np.empty((t.size, n_blocks, m), dtype=complex).transpose(1, 2, 0)
        cols[..., 0] = vecs[0, idx]             # states as columns, each contiguous
        i = 0
        while i < len(ids):
            run, j = {}, i                      # step id -> its propagator's slot
            while j < len(ids) and (ids[j] in run or len(run) < width):
                run.setdefault(ids[j], len(run))
                j += 1
            props = expm(sub * steps[first[list(run)]][:, None, None, None])
            for a, b, key in zip(bounds[i:j], bounds[i + 1:j + 1], ids[i:j]):
                q, n, s = props[run[key]], b - a, 1     # states a .. a + s - 1 filled
                if (m ** 3 + 2 * MATMUL_CALL_COST) * n.bit_length() > MATMUL_CALL_COST * n:
                    for k in range(a, b):
                        np.matmul(q, cols[..., k:k + 1], out=cols[..., k + 1:k + 2])
                    continue
                while s <= n:
                    q = q if s == 1 else q @ q      # P^s
                    c = min(s, n + 1 - s)
                    np.matmul(q, cols[..., a:a + c], out=cols[..., a + s:a + s + c])
                    s += c
            i = j
        vecs[:, idx] = cols.transpose(2, 0, 1)
    # the largest group holds the zero bin, which every state occupies
    method = "expm" if liouv.blocks[-1][0].shape[1] <= EXPM_DIM_LIMIT ** 2 else "rk"
    return _trajectory(t, vecs.reshape(t.size, d, d), method)


# ---------------------------------------------------------------------------
# time-nonlocal propagation

NONLOCAL_DIM_LIMIT = 12
NONLOCAL_BLOCK = 128           # evolve_nonlocal: steps per block times d^2
NONLOCAL_CHUNK = 2 ** 16       # evolve_nonlocal: complex kernel entries per window chunk

def check_nonlocal_grid(t_grid, dim):
    """t_grid as a float array, checked for a nonlocal run: strictly
    increasing and uniform, the system at most NONLOCAL_DIM_LIMIT levels.

    :raises InputError: naming the check that fails.
    """
    t = _check_grid(t_grid)
    h = t[1] - t[0]
    if np.any(np.abs(np.diff(t) - h) > 1e-9 * h):
        raise InputError("nonlocal propagation needs a uniform time grid")
    if dim > NONLOCAL_DIM_LIMIT:
        raise InputError(f"nonlocal propagation supports d <= {NONLOCAL_DIM_LIMIT}")
    return t


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
    The kernel preserves hermiticity, so the steps run on real vectors:
    slot (p, q) holds Re rho_pq for p <= q and Im rho_pq for p > q, rho0
    is hermitized on entry and the states come back exactly hermitian.
    The kernel is stored once, times h, as the real window [K(m h) ...
    K(0)], built NONLOCAL_CHUNK complex entries at a time, so the peak
    memory stays near half a complex window; m zero rows precede t0.
    The Heun step is linear and the same at every node: with H the
    coherent part plus h K(0) / 2 and mu_i the memory sum, x_{i+1} =
    A x_i + B mu_i + (h/2) mu_{i+1}, A = I + h H + (h H)^2 / 2 and B =
    (h/2) (I + h H).  The window is folded in place into that step matrix
    over the m + 1 latest nodes, less the identity.  Steps go
    NONLOCAL_BLOCK // d^2 at a time (one at least): one product of the
    window with the block's histories, its unknown nodes taken as its
    first, then one with the resolvent of its increments' dependence on
    each other.  A cumsum adds them to the first node one by one, which
    keeps the rounding, and the trace drift, at the size of an increment.
    """
    d = spectrum.dim
    t = check_nonlocal_grid(t_grid, d)
    h = t[1] - t[0]
    corr.check_system(spectrum, couplings)
    rho = _as_state(rho0)

    m = max(int(round(corr.tau_memory / h)), 1)
    dd = d * d
    # y = Re(conj(f) x) and x = g - sgn g[tr], g = f y, for the flat x
    p, q = np.divmod(np.arange(dd), d)
    tr, sgn, f = q * d + p, np.sign(q - p), np.where(p <= q, 1, 1j)

    def real(k):                # a hermiticity-preserving k in the real basis
        return (f.conj()[:, None] * (k + k[..., tr] * sgn) * f).real

    win = np.empty((dd, (m + 1) * dd))
    blk = win.reshape(dd, m + 1, dd)                      # blk[:, m - j] = h K(j h)
    taus = h * np.arange(m, -1, -1)
    for nodes in np.array_split(np.arange(m + 1), -(-(m + 1) * dd * dd // NONLOCAL_CHUNK)):
        blk[:, nodes] = real(_memory_kernels(spectrum, couplings, corr,
                                             taus[nodes])).transpose(1, 0, 2)
    win *= h
    # the node's own state enters with the coherent part and half of K(0)
    head = 0.5 * blk[:, m] + real(np.diag(-1j * spectrum.bohr_matrix().ravel()))
    hist = np.zeros((m + t.size, dd))                     # node i at row m + i
    x0 = hist[m] = np.real(f.conj() * (rho + rho.conj().T).ravel() / 2)
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
        # increment r of a block takes C_{r-v} delta_v from increment v < r,
        # C_n the sum of the window's last min(n, m + 1) blocks; the
        # resolvent's block (r, v) is X_{r-v}, X_0 = I, X_n = sum_k C_k X_{n-k}, 0 for v > r
        s = max(1, NONLOCAL_BLOCK // dd)
        cum = np.cumsum(blk[:, ::-1][:, :s - 1], axis=1)[:, np.minimum(np.arange(s - 1), m)]
        cum = cum.reshape(dd, -1)                         # C_1 .. C_{s-1} side by side
        xs = np.concatenate([np.eye(dd)[None], np.zeros((s, dd, dd))])
        for k in range(1, s):
            xs[k] = cum[:, :k * dd] @ xs[k - 1::-1].reshape(k * dd, dd)
        lag = np.subtract.outer(np.arange(s), np.arange(s))
        res = xs[np.where(lag < 0, s, lag)].transpose(0, 2, 1, 3).reshape(s * dd, s * dd)
        for i in range(1, t.size - 1, s):
            n = min(s, t.size - 1 - i)
            new = hist[m + i:m + i + n + 1]                # node i, then the block's nodes
            new[1:n] = new[0]                              # unknown nodes taken as node i
            inc = np.ndarray((n, (m + 1) * dd), buffer=hist, offset=i * hist.strides[0],
                             strides=hist.strides) @ win.T     # the block's histories
            if i < m:
                inc[:m - i] += early[i - 1:i - 1 + n]
            np.matmul(res[:n * dd, :n * dd], inc.ravel(), out=new[1:].ravel())
            new.cumsum(axis=0, out=new)
        hist = f * hist[m:]                                # the states, flat and complex
        hist -= sgn * hist[:, tr]
    return _trajectory(t, hist.reshape(t.size, d, d), "heun-nonlocal")


# ---------------------------------------------------------------------------
# steady states

def steady_state(liouv):
    """The steady-state document, ``steady-state.json`` less provenance
    and variant: the null cutoff ``threshold``, the ``multiplicity`` and
    the smallest ``singular_values`` ascending of L, and one ``states``
    entry {matrix, trace_normalized, raw_trace} per null vector.

    Singular values at most 16 m eps ||L||_2 count as zero, m the
    largest block size and eps the float epsilon: the rounding level of
    a block's SVD, so a slow mode of a cold system is not taken for a
    null one.  The smallest surviving value must clear the cutoff by
    GAP_FACTOR, since a borderline value means the rank decision would
    be a guess.  A generator that splits into blocks runs one stacked
    SVD per block size; the union of their singular values is that of
    L.  Each null vector is hermitized, scaled to unit Frobenius norm
    and negated if its trace is negative, so its ``raw_trace`` does not
    depend on the sign the SVD picks; one above 1e-10 divides it.

    :raises InvariantError: no null vector, or no clean gap.
    """
    d = liouv.dim
    blocks = liouv.blocks
    svds = [np.linalg.svd(vals)[1:] for _, vals in blocks]
    svals = np.concatenate([sv.ravel() for sv, _ in svds])
    order = np.argsort(-svals, kind="stable")
    svals = svals[order]
    norm = svals[0] if svals.size else 0.0
    # size groups come in ascending block size
    cut = 16 * blocks[-1][0].shape[1] * np.finfo(float).eps * norm
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
    states = []
    for v in null:
        rho = v.conj().reshape(d, d)
        rho = (rho + rho.conj().T) / 2
        fn = np.linalg.norm(rho)
        if fn > 0:
            rho = rho / fn
        tr = complex(np.trace(rho))
        if tr.real < 0:                 # the SVD's sign: (-rho) / (-tr) is rho / tr
            rho, tr = -rho, -tr
        normalized = abs(tr) > 1e-10    # else the matrix is the unit-norm null vector
        states.append({"matrix": rho / tr if normalized else rho,
                       "trace_normalized": normalized, "raw_trace": [tr.real, tr.imag]})
    return {"multiplicity": mult, "threshold": float(cut),
            "singular_values": svals[::-1][: max(mult + 2, 4)].copy(), "states": states}


# ---------------------------------------------------------------------------
# block structure

def block_structure_report(spectrum, kernel):
    """The block-report document, ``block-report.json`` less provenance
    and variant: ``coherences_feed_populations`` (some K[pp, qq'], q !=
    q'), ``populations_feed_coherences`` (some K[pp', qq], p != p'), the
    ``cross_entries`` {row, col, abs_value} above CROSS_THRESHOLD (into
    populations first, each in the dense tensor's C order; read off
    ``kernel.population_block()``), ``degeneracy_classes``, ``threshold``."""
    if kernel.dim != spectrum.dim:
        raise InputError("kernel dimension does not match spectrum")
    d = kernel.dim
    n = d * d
    idx, vals, pop = kernel.population_block()   # no other block crosses
    pair = idx[pop, None]
    # keys order K[pp, qq'] before K[pp', qq], each like a tensor scan
    line = np.stack([vals[pop], vals[:, pop].T])
    key = np.stack([pair * n + idx, (n + idx) * n + pair])
    # hypot rounds like the scalar abs() of the reports; np.abs may not
    mag = np.hypot(line.real, line.imag)
    hit = (mag > CROSS_THRESHOLD) & (idx % (d + 1) != 0)
    order = np.argsort(key[hit])
    out, *pairs = np.unravel_index(key[hit][order], (2,) + (d,) * 4)   # out: K[pp', qq]
    cols = [a.tolist() for a in (*pairs, mag[hit][order])]
    return {
        "coherences_feed_populations": bool((out == 0).any()),
        "populations_feed_coherences": bool(out.any()),
        "cross_entries": [{"row": [p, p2], "col": [q, q2], "abs_value": v}
                          for p, p2, q, q2, v in zip(*cols)],
        "degeneracy_classes": [c.tolist() for c in spectrum.classes()],
        "threshold": CROSS_THRESHOLD,
    }


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


@lru_cache(maxsize=64)
def _csv_columns(d):                   # built once per dimension
    return ("t", *(f"{part}_rho_{p}_{q}" for p in range(d) for q in range(d)
                   for part in ("re", "im")), "trace", "min_eig")


def trajectory_to_csv(traj, path):
    """Columns: t, Re/Im of each rho_{pq} row-major, trace, min eigenvalue."""
    states = np.ascontiguousarray(traj.states).reshape(len(traj.times), -1)
    trace = np.trace(traj.states, axis1=1, axis2=2).real
    table = np.column_stack([traj.times, states.view(float), trace,
                             traj.min_eigenvalue])
    _io.write_csv_rows(path, _csv_columns(traj.dim), table)
