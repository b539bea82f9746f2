"""Ground truth to test the kernels against.

Three independent sources: closed-form qubit rate-equation results, an
exact unitary simulation of the system plus a finite oscillator bath,
and a direct quadrature of the second-order double-commutator kernel.
None of them go through the kernel builders, which is the point.

The finite bath has two paths.  A rotating-pair qubit with a sigma-minus
channel on a vacuum bath stays in the one-excitation sector, n_modes + 1
states and no Fock truncation.  Every other model runs in the truncated
space of dimension D = d (n_max + 1)^n_modes: H is assembled from sparse
Kronecker products and diagonalized once by a dense eigh (D^3).  The
global state is carried as a factor, rho = F diag(w) F^dag, whose r
columns are the eigenvectors of rho_S0 times the occupied bath Fock
states, and each time point costs D^2 r.  A pure rho_S0 on a vacuum bath
is one column, so its trajectory costs one matrix-vector product per time.
"""

import numpy as np
from dataclasses import dataclass, field

from .core import InputError, InvariantError, Superoperator, lrmul
from .dynamics import _as_state, _check_grid, _trajectory

__all__ = [
    "QubitClosedForms",
    "FiniteBathModel",
    "qubit_analytic",
    "gauss_legendre_modes",
    "exact_reduced_evolution",
    "eqm_born_kernel",
]

DIM_CAP = 4096
LEAKAGE_TOL = 1e-6
UNITARITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# analytic qubit

@dataclass(frozen=True)
class QubitClosedForms:
    """Rate-equation results for a two-level system.

    Populations follow p_e(t) = p_inf + (p_e(0) - p_inf) exp(-t/T1) and
    the coherence rho_{eg} follows exp(-(i omega0 + 1/T2) t) with no
    pure dephasing channel present.
    """

    omega0: float
    beta: float
    gamma_up: float
    gamma_down: float
    relaxation_rate: float
    dephasing_rate: float
    p_excited: float
    kms_ratio: float          # expected p_e / p_g at inverse temperature beta

    @property
    def t1(self):
        return 1.0 / self.relaxation_rate

    @property
    def t2(self):
        return 1.0 / self.dephasing_rate

    def population_trajectory(self, p0):
        p0 = float(p0)
        return lambda t: self.p_excited + (p0 - self.p_excited) * np.exp(
            -self.relaxation_rate * np.asarray(t, dtype=float))

    def coherence_trajectory(self, c0):
        c0 = complex(c0)
        return lambda t: c0 * np.exp(
            -(1j * self.omega0 + self.dephasing_rate) * np.asarray(t, dtype=float))


def qubit_analytic(beta, gamma_up, gamma_down, omega0):
    """Closed-form qubit results from the up/down golden-rule rates."""
    gu, gd = float(gamma_up), float(gamma_down)
    if gu < 0 or gd < 0:
        raise InputError("rates must be nonnegative")
    total = gu + gd
    if total == 0:
        raise InputError("both rates zero: steady populations are undefined")
    beta = float(beta)
    with np.errstate(over="ignore"):
        kms = float(np.exp(-beta * omega0))
    return QubitClosedForms(
        omega0=float(omega0), beta=beta, gamma_up=gu, gamma_down=gd,
        relaxation_rate=total, dephasing_rate=total / 2,
        p_excited=gu / total, kms_ratio=kms,
    )


# ---------------------------------------------------------------------------
# finite oscillator bath

def gauss_legendre_modes(j_fn, omega_max, n_modes):
    """Discretize a spectral density J(w) >= 0 on [0, omega_max].

    Couplings follow g_k^2 = J(w_k) w_k^{GL} / pi, so the mode sum
    sum_k g_k^2 f(w_k) converges to (1/pi) int_0^wmax J(w) f(w) dw.
    Returns (frequencies, couplings, record) with the quadrature rule
    documented in the record.
    """
    n = int(n_modes)
    if n < 1:
        raise InputError("need at least one mode")
    x, w = np.polynomial.legendre.leggauss(n)
    omegas = 0.5 * float(omega_max) * (x + 1.0)
    weights = 0.5 * float(omega_max) * w
    jv = np.asarray([float(j_fn(o)) for o in omegas])
    if np.any(jv < 0):
        raise InputError("spectral density must be nonnegative on the grid")
    gs = np.sqrt(jv * weights / np.pi)
    record = {
        "rule": "gauss-legendre",
        "n_modes": n,
        "omega_max": float(omega_max),
        "total_weight": float(np.sum(gs ** 2)),
    }
    return omegas, gs, record


@dataclass(frozen=True)
class FiniteBathModel:
    """System plus N oscillator modes, exact and finite.

    coupling_kind "hermitian" pairs one hermitian channel with
    sum_k g_k (a_k + a_k^dag); "rotating-pair" pairs a (lower, raise)
    channel doublet with (sum_k g_k a_k^dag, sum_k g_k a_k), i.e. the
    excitation-conserving coupling.
    """

    spectrum: object
    couplings: object
    mode_frequencies: np.ndarray
    mode_couplings: np.ndarray
    n_max: int
    beta: float
    coupling_kind: str
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.mode_frequencies, dtype=float)
        g = np.asarray(self.mode_couplings, dtype=float)
        if w.ndim != 1 or w.size == 0 or g.shape != w.shape:
            raise InputError("mode frequencies/couplings must be matching 1d arrays")
        if np.any(w < 0):
            raise InputError("mode frequencies must be nonnegative")
        object.__setattr__(self, "mode_frequencies", w)
        object.__setattr__(self, "mode_couplings", g)
        if self.n_max < 1:
            raise InputError("n_max must be at least 1")
        if self.coupling_kind not in ("hermitian", "rotating-pair"):
            raise InputError(f"unknown coupling kind {self.coupling_kind!r}")
        n_ch = self.couplings.n_channels
        if self.coupling_kind == "hermitian":
            if n_ch != 1:
                raise InputError("hermitian coupling kind needs exactly one channel")
        else:
            if n_ch != 2 or tuple(self.couplings.adjoint_map) != (1, 0):
                raise InputError(
                    "rotating-pair coupling kind needs a (lower, raise) "
                    "channel doublet with the swap adjoint map"
                )
        if self.effective_dim > DIM_CAP:
            raise InputError(
                f"Hilbert dimension {self.effective_dim} exceeds the cap "
                f"{DIM_CAP}"
            )

    @property
    def n_modes(self):
        return self.mode_frequencies.size

    @property
    def total_dim(self):
        return self.spectrum.dim * (self.n_max + 1) ** self.n_modes

    @property
    def sector_eligible(self):
        """Excitation-conserving qubit on a vacuum bath, lowering channel
        c sigma-minus: solvable in the one-excitation sector, independent
        of n_max."""
        return (self.coupling_kind == "rotating-pair"
                and np.isinf(self.beta)
                and self.spectrum.dim == 2
                and not np.any(self.couplings.matrices[0].ravel()[[0, 2, 3]]))

    @property
    def effective_dim(self):
        """Dimension of the space the evolution actually runs in."""
        if self.sector_eligible:
            return self.n_modes + 2
        return self.total_dim

    def recurrence_time(self):
        """Half the coarse revival period 2 pi / (mean mode spacing)."""
        if self.n_modes < 2:
            return np.inf
        w = np.sort(self.mode_frequencies)
        spacing = (w[-1] - w[0]) / (self.n_modes - 1)
        if spacing <= 0:
            return np.inf
        return 0.5 * 2.0 * np.pi / spacing


def _mode_gibbs(omega, beta, n_max):
    n = np.arange(n_max + 1, dtype=float)
    if np.isinf(beta):
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    logw = -beta * omega * n
    logw -= logw.max()
    p = np.exp(logw)
    return p / p.sum()


def _exact_sector(model, rho0, t_grid):
    """Rotating-pair qubit on a vacuum bath via the one-excitation sector.

    The coupling conserves excitation number, so |e, vac> only mixes
    with the one-photon states; no Fock truncation enters at all and
    the leakage question is void.  The phase of c drops out of the
    excited amplitude, so the sector couplings are |c| g_k.
    """
    w0 = model.spectrum.snapped
    n = model.n_modes
    g = abs(model.couplings.matrices[0, 0, 1]) * model.mode_couplings
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = w0[1]
    h[1:, 1:] = np.diag(w0[0] + model.mode_frequencies)
    h[0, 1:] = g
    h[1:, 0] = g
    try:
        evals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:       # finite entries past LAPACK's range
        raise InvariantError(f"sector Hamiltonian: {exc}") from None

    phases = np.exp(-1j * np.outer(t_grid, evals))          # (nt, n+1)
    coeffs = phases * vecs[0].conj()[None, :]               # e^{-iEt} V^H e_0
    comps = coeffs @ vecs.T                                 # sector state at t
    amp = comps[:, 0]                                       # <e,vac|...|e,vac>
    norms = np.linalg.norm(comps, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > UNITARITY_TOL:
        raise InvariantError(f"sector evolution norm drift {drift:g}")

    ground_phase = np.exp(-1j * w0[0] * t_grid)
    pe = rho0[1, 1].real * np.abs(amp) ** 2
    coh = rho0[1, 0] * amp * np.conj(ground_phase)
    states = np.zeros((t_grid.size, 2, 2), dtype=complex)
    states[:, 1, 1] = pe
    states[:, 0, 0] = 1.0 - pe
    states[:, 1, 0] = coh
    states[:, 0, 1] = coh.conj()
    return states, drift


def _hamiltonian(model):
    """The global H = H_S + H_B + H_SB as a dense matrix, assembled from
    sparse Kronecker products (identity x operator x identity per mode)."""
    import scipy.sparse as sp
    d = model.spectrum.dim
    nm = model.n_modes
    m1 = model.n_max + 1
    mdim = m1 ** nm

    def on_mode(k, op):
        return sp.kron(sp.kron(sp.identity(m1 ** k), op),
                       sp.identity(m1 ** (nm - 1 - k)))

    nums = sp.diags(np.arange(m1, dtype=float))
    lower = sp.diags(np.sqrt(np.arange(1, m1)), 1)
    h_bath = sum(w * on_mode(k, nums) for k, w in enumerate(model.mode_frequencies))
    b_lower = sum(g * on_mode(k, lower) for k, g in enumerate(model.mode_couplings))
    s = model.couplings.matrices
    b_raise = b_lower.conj().T
    if model.coupling_kind == "hermitian":
        h_sb = sp.kron(s[0], b_lower + b_raise)
    else:
        h_sb = sp.kron(s[0], b_raise) + sp.kron(s[1], b_lower)
    h = (sp.kron(sp.diags(model.spectrum.snapped), sp.identity(mdim))
         + sp.kron(sp.identity(d), h_bath) + h_sb)
    return h.toarray()


def _exact_dense(model, rho0, t_grid):
    """Propagate the global state as rho = F diag(w) F^dag.

    The columns of F0 are u_i x |n>, an eigenvector of rho0 with nonzero
    eigenvalue lambda_i times a bath Fock state of nonzero Gibbs weight
    p_n, with the signed weight w = lambda_i p_n.  With H = V diag(E) V^dag,
    F_t = V (e^{-iEt} o V^dag F0).  Each column keeps unit norm under a
    unitary evolution, so the largest deviation of a squared column norm
    from 1 is the unitarity drift.
    """
    d = model.spectrum.dim
    m1 = model.n_max + 1
    mdim = m1 ** model.n_modes
    evals, vecs = np.linalg.eigh(_hamiltonian(model))

    lam, u = np.linalg.eigh(rho0)
    pbath = np.array([1.0])
    for w in model.mode_frequencies:
        pbath = np.kron(pbath, _mode_gibbs(w, model.beta, model.n_max))
    kept, occupied = lam != 0, pbath != 0
    weights = np.kron(lam[kept], pbath[occupied])
    f0 = np.kron(u[:, kept], np.eye(mdim)[:, occupied])
    c0 = vecs.conj().T @ f0
    # bath states with any mode in its top Fock level
    top = (np.indices((m1,) * model.n_modes).reshape(model.n_modes, mdim)
           == model.n_max).any(axis=0)

    states = np.empty((t_grid.size, d, d), dtype=complex)
    top_occ = np.empty(t_grid.size)
    drift = 0.0
    for i, t in enumerate(t_grid):
        ft = (vecs @ (np.exp(-1j * evals * t)[:, None] * c0)).reshape(d, mdim, -1)
        dens = np.abs(ft) ** 2
        drift = max(drift, float(np.max(np.abs(dens.sum(axis=(0, 1)) - 1.0))))
        top_occ[i] = dens[:, top].sum(axis=(0, 1)) @ weights
        states[i] = (ft * weights).reshape(d, -1) @ ft.reshape(d, -1).conj().T
    if drift > UNITARITY_TOL:
        raise InvariantError(f"global evolution not unitary: drift {drift:g}")
    # a thermal initial state occupies the top level by its Gibbs weight;
    # only growth beyond that signals truncation error
    growth = np.max(top_occ) - top_occ[0]
    if growth > LEAKAGE_TOL:
        raise InvariantError(
            f"Fock truncation leakage: top-level occupation grew by "
            f"{growth:g} (limit {LEAKAGE_TOL:g}); raise n_max"
        )
    return states, drift


def exact_reduced_evolution(model, rho_s0, t_grid):
    """rho_S(t) = Tr_B[e^{-iHt} (rho_S0 x rho_B) e^{+iHt}], exactly.

    The product initial condition is built in.  Runs past half the
    coarse revival time of the discretized bath are rejected rather
    than silently returned, since the finite bath recurs there and the
    comparison with any Markov kernel stops meaning anything.
    """
    t = _check_grid(t_grid)
    rho0 = _as_state(rho_s0)
    if rho0.shape[0] != model.spectrum.dim:
        raise InputError("initial state dimension does not match model")
    t_rec = model.recurrence_time()
    if t[-1] >= t_rec:
        raise InputError(
            f"requested horizon {t[-1]:g} exceeds the recurrence guard "
            f"{t_rec:g} for this mode grid"
        )
    if model.sector_eligible:
        states, _ = _exact_sector(model, rho0, t)
        method = "exact-sector"
    else:
        states, _ = _exact_dense(model, rho0, t)
        method = "exact-dense"
    return _trajectory(t, states, method)


# ---------------------------------------------------------------------------
# double-commutator quadrature

def eqm_born_kernel(spectrum, couplings, corr):
    """Second-order kernel by direct quadrature of the double commutator.

    Evaluates -(1/2) int_{-T}^{T} dtau Tr_B [H_SB(0), [H_SB(-tau), . x
    rho_B]] with T the extent of the stored correlation grid and
    S(-tau) fully conjugated by the free propagator (time-local form;
    the state carries no transport here, unlike the memory kernel used
    by the nonlocal propagator).  The symmetric window keeps only the
    dissipative part: the principal-value pieces at +tau and -tau
    cancel pairwise.  Comparable entry by entry to the Markov kernel
    with the incoming-pair resonance argument.
    """
    corr.check_system(spectrum, couplings)
    grid = corr.tau_grid
    taus = np.concatenate([-grid[:0:-1], grid])
    # half the trapezoid weights: the double commutator carries a 1/2
    w = np.full(taus.size, 0.5 * corr.dtau)
    w[0] = w[-1] = 0.25 * corr.dtau

    s = couplings.matrices
    d = spectrum.dim
    ph = np.exp(-1j * np.multiply.outer(taus, spectrum.snapped))   # U(tau) diagonals
    # the tau sums of S_b(-tau) = U S_b U^dag against each correlation:
    # gp[a] with D^{ab}(tau), gm[a] with D^{ba}(-tau)
    gp = np.einsum("t,tab,tp,bpq,tq->apq", w, corr.at(taus), ph, s, ph.conj())
    gm = np.einsum("t,tba,tp,bpq,tq->apq", w, corr.at(-taus), ph, s, ph.conj())
    eye = np.eye(d)
    gain = (np.einsum("apq,aQP->pPqQ", s, gm)
            + np.einsum("apq,aQP->pPqQ", gp, s)).reshape(d * d, d * d)
    data = (gain - lrmul(np.einsum("apr,arq->pq", s, gp), eye)
            - lrmul(eye, np.einsum("apr,arq->pq", gm, s)))
    return Superoperator(d, data)
