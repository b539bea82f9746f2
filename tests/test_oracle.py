"""Ground-truth generators: analytic qubit, finite baths, kernel quadrature."""

import numpy as np
import pytest

from qmekit.bath import (
    custom_spectrum,
    flat_spectrum,
    lorentzian_spectrum,
    thermal_ohmic_spectrum,
    time_correlation,
)
from qmekit.core import (
    InputError,
    InvariantError,
    build_spectrum,
    hermitian_channel,
    ladder_channels,
)
from qmekit.kernels import build_kernel
from qmekit.dynamics import build_liouvillian, evolve_markov, steady_state, trace_distance
from qmekit.oracle import (
    DIM_CAP,
    FiniteBathModel,
    eqm_born_kernel,
    exact_reduced_evolution,
    gauss_legendre_modes,
    qubit_analytic,
)
from qmekit.oracle import _exact_dense
from conftest import unique_state


QUBIT = build_spectrum([0.0, 1.0])
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
LADDER = ladder_channels(SIGMA_MINUS)
EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)


def test_qubit_analytic_symmetric_rates():
    q = qubit_analytic(beta=2.0, gamma_up=0.3, gamma_down=0.3, omega0=1.0)
    assert q.p_excited == 0.5
    assert q.relaxation_rate == 0.6
    assert q.dephasing_rate == 0.3
    assert abs(q.t1 - 1 / 0.6) < 1e-15
    assert abs(q.t2 - 1 / 0.3) < 1e-15


def test_qubit_analytic_detailed_balance():
    beta, omega0, gd = 1.3, 1.0, 0.4
    gu = np.exp(-beta * omega0) * gd
    q = qubit_analytic(beta, gu, gd, omega0)
    ratio = q.p_excited / (1 - q.p_excited)
    assert abs(ratio - q.kms_ratio) < 1e-15
    # zero temperature: pure decay
    q0 = qubit_analytic(np.inf, 0.0, gd, omega0)
    assert q0.p_excited == 0.0


def test_qubit_analytic_rejections_and_closures():
    with pytest.raises(InputError):
        qubit_analytic(1.0, -0.1, 0.3, 1.0)
    with pytest.raises(InputError, match="both rates zero"):
        qubit_analytic(1.0, 0.0, 0.0, 1.0)
    q = qubit_analytic(1.0, 0.1, 0.5, 2.0)
    pop = q.population_trajectory(1.0)
    assert abs(pop(0.0) - 1.0) < 1e-15
    assert abs(pop(1e3) - q.p_excited) < 1e-12
    coh = q.coherence_trajectory(0.5)
    assert abs(coh(0.0) - 0.5) < 1e-15
    t = 2.7
    want = 0.5 * np.exp(-(1j * 2.0 + q.dephasing_rate) * t)
    assert abs(coh(t) - want) < 1e-15


def test_gauss_legendre_sum_rule():
    # for J(w) = w the mode sum equals (1/pi) int_0^5 w dw exactly
    omegas, gs, record = gauss_legendre_modes(lambda w: w, 5.0, 12)
    assert abs(np.sum(gs ** 2) - 12.5 / np.pi) < 1e-14
    assert record["rule"] == "gauss-legendre"
    assert record["n_modes"] == 12
    assert np.all((omegas > 0) & (omegas < 5.0))
    with pytest.raises(InputError):
        gauss_legendre_modes(lambda w: w, 5.0, 0)
    with pytest.raises(InputError, match="nonnegative"):
        gauss_legendre_modes(lambda w: -1.0, 5.0, 4)


def rabi_model(g, n_modes=1, n_max=1):
    return FiniteBathModel(
        QUBIT, LADDER,
        mode_frequencies=np.ones(n_modes),
        mode_couplings=np.full(n_modes, g),
        n_max=n_max, beta=np.inf, coupling_kind="rotating-pair")


def test_resonant_mode_rabi_oscillation():
    g = 0.35
    model = rabi_model(g)
    t = np.linspace(0, 8.0, 101)
    traj = exact_reduced_evolution(model, EXCITED, t)
    assert traj.method == "exact-sector"
    pe = traj.states[:, 1, 1].real
    assert np.max(np.abs(pe - np.cos(g * t) ** 2)) < 1e-13


def test_dense_path_agrees_with_sector():
    g = 0.35
    model = rabi_model(g, n_max=2)
    t = np.linspace(0, 8.0, 41)
    sector = exact_reduced_evolution(model, EXCITED, t)
    dense, _ = _exact_dense(model, EXCITED, t)
    assert np.max(np.abs(sector.states - dense)) < 1e-13


def reference_dense(model, rho0, t_grid):
    """The global density matrix in H's eigenbasis, rotated to each time
    by two dense D x D products, then traced over the bath."""
    d, nm, m1 = model.spectrum.dim, model.n_modes, model.n_max + 1
    mdim = m1 ** nm

    def embed(k, op):
        ops = [np.eye(m1)] * nm
        ops[k] = op
        out = np.eye(1)
        for o in ops:
            out = np.kron(out, o)
        return out

    b_lower = sum(g * embed(k, np.diag(np.sqrt(np.arange(1, m1)), k=1))
                  for k, g in enumerate(model.mode_couplings))
    h_bath = sum(w * embed(k, np.diag(np.arange(m1, dtype=float)))
                 for k, w in enumerate(model.mode_frequencies))
    s = model.couplings.matrices
    h = (np.kron(np.diag(model.spectrum.snapped), np.eye(mdim))
         + np.kron(np.eye(d), h_bath))
    if model.coupling_kind == "hermitian":
        h = h + np.kron(s[0], b_lower + b_lower.T)
    else:
        h = h + np.kron(s[0], b_lower.T) + np.kron(s[1], b_lower)
    evals, vecs = np.linalg.eigh(h)
    pbath = np.ones(1)
    for w in model.mode_frequencies:
        n = np.arange(m1)
        p = np.exp(-model.beta * w * n) if np.isfinite(model.beta) else n == 0
        pbath = np.kron(pbath, p / np.sum(p))
    coeff = vecs.conj().T @ np.kron(rho0, np.diag(pbath)) @ vecs
    states = []
    for t in t_grid:
        ph = np.exp(-1j * evals * t)
        rho_t = vecs @ (coeff * np.outer(ph, ph.conj())) @ vecs.conj().T
        states.append(np.einsum("pmqm->pq", rho_t.reshape(d, mdim, d, mdim)))
    return np.array(states)


PURE = np.outer([0.6, 0.8j], [0.6, -0.8j])
MIXED = np.array([[0.35, 0.2 - 0.1j], [0.2 + 0.1j, 0.65]])
# eigenvalues 1 + 5e-9 and -5e-9: inside the -TOL_POS allowance
SIGNED = PURE - 5e-9 * (np.outer([0.8, -0.6j], [0.8, 0.6j]) - PURE)


@pytest.mark.parametrize("rho0", [PURE, MIXED, SIGNED], ids=["pure", "mixed", "signed"])
@pytest.mark.parametrize("beta", [np.inf, 3.0], ids=["vacuum", "beta3"])
@pytest.mark.parametrize("kind", ["hermitian", "rotating-pair"])
def test_dense_path_matches_the_density_matrix_reference(kind, beta, rho0):
    if kind == "hermitian":
        couplings = hermitian_channel(np.array([[0.3, 0.7 - 0.2j], [0.7 + 0.2j, -0.1]]))
    else:
        couplings = ladder_channels(np.array([[0.2, 1.0], [0.5j, -0.3]]))
    # weak enough that the thermal top Fock level stays within the gate
    model = FiniteBathModel(QUBIT, couplings, np.array([2.0, 2.6, 3.3, 4.5]),
                            np.array([0.008, 0.01, 0.012, 0.01]), n_max=2,
                            beta=beta, coupling_kind=kind)
    assert not model.sector_eligible and model.total_dim == 162
    t = np.linspace(0.5, 2.5, 21)
    states, drift = _exact_dense(model, rho0, t)
    assert drift < 1e-12
    assert np.max(np.abs(states - reference_dense(model, rho0, t))) < 1e-12


def test_zero_coupling_evolves_unitarily():
    model = rabi_model(0.0)
    t = np.linspace(0, 5.0, 11)
    plus = np.full((2, 2), 0.5, dtype=complex)
    traj = exact_reduced_evolution(model, plus, t)
    assert np.max(np.abs(traj.states[:, 1, 1] - 0.5)) < 1e-14
    want = 0.5 * np.exp(-1j * 1.0 * t)
    assert np.max(np.abs(traj.states[:, 1, 0] - want)) < 1e-13


def test_truncation_leakage_is_flagged():
    # strong hermitian coupling to one mode at n_max=1 pushes population
    # into the top Fock level
    sx = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    model = FiniteBathModel(
        QUBIT, sx, mode_frequencies=np.array([1.0]),
        mode_couplings=np.array([0.8]), n_max=1, beta=np.inf,
        coupling_kind="hermitian")
    with pytest.raises(InvariantError, match="leakage"):
        exact_reduced_evolution(model, EXCITED, np.linspace(0, 6.0, 31))


def test_thermal_initial_occupation_is_not_leakage():
    # at finite temperature the top level starts populated by its Gibbs
    # weight; with zero coupling nothing grows and the run must pass
    sx = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    model = FiniteBathModel(
        QUBIT, sx, mode_frequencies=np.array([1.0]),
        mode_couplings=np.array([0.0]), n_max=1, beta=1.0,
        coupling_kind="hermitian")
    traj = exact_reduced_evolution(model, EXCITED, np.linspace(0, 3.0, 7))
    assert traj.method == "exact-dense"
    assert np.max(traj.trace_drift) < 1e-12


def test_recurrence_guard_rejects_long_horizons():
    omegas, gs, _ = gauss_legendre_modes(lambda w: 1e-4 * w, 5.0, 10)
    model = FiniteBathModel(QUBIT, LADDER, omegas, gs, n_max=1, beta=np.inf,
                            coupling_kind="rotating-pair")
    t_rec = model.recurrence_time()
    assert np.isfinite(t_rec)
    with pytest.raises(InputError, match="recurrence"):
        exact_reduced_evolution(model, EXCITED, np.linspace(0, 1.1 * t_rec, 9))


def test_dimension_cap_counts_the_evolving_space():
    sx = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(InputError, match="cap"):
        FiniteBathModel(QUBIT, sx, np.linspace(0.1, 5, 13), np.full(13, 1e-3),
                        n_max=1, beta=np.inf, coupling_kind="hermitian")
    # the rotating vacuum qubit evolves in the one-excitation sector, so
    # sixty modes stay cheap
    omegas, gs, _ = gauss_legendre_modes(lambda w: 1e-5 * w, 5.0, 60)
    model = FiniteBathModel(QUBIT, LADDER, omegas, gs, n_max=1, beta=np.inf,
                            coupling_kind="rotating-pair")
    assert model.sector_eligible
    assert model.effective_dim == 62
    assert model.total_dim == 2 * 2 ** 60
    assert model.effective_dim <= DIM_CAP


@pytest.mark.parametrize("lower, sector, p_excited", [
    (SIGMA_MINUS, True, 0.8281),
    (2 * SIGMA_MINUS, True, 0.5457),
    (2j * SIGMA_MINUS, True, 0.5457),
    (SIGMA_MINUS.T, False, 1.0),
])
def test_exact_evolution_follows_the_lowering_channel(lower, sector, p_excited):
    omegas, gs, _ = gauss_legendre_modes(lambda w: 0.05 * w, 5.0, 4)
    model = FiniteBathModel(QUBIT, ladder_channels(lower), omegas, gs, n_max=2,
                            beta=np.inf, coupling_kind="rotating-pair")
    assert model.sector_eligible is sector
    t = np.linspace(0.0, 2.0, 5)
    traj = exact_reduced_evolution(model, EXCITED, t)
    dense, _ = _exact_dense(model, EXCITED, t)
    assert np.max(np.abs(traj.states - dense)) < 1e-13
    assert traj.states[-1, 1, 1].real == pytest.approx(p_excited, abs=5e-5)


def test_finite_bath_model_validation():
    with pytest.raises(InputError, match="coupling kind"):
        FiniteBathModel(QUBIT, LADDER, np.array([1.0]), np.array([0.1]),
                        n_max=1, beta=np.inf, coupling_kind="dipole")
    sx = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(InputError, match="doublet"):
        FiniteBathModel(QUBIT, sx, np.array([1.0]), np.array([0.1]),
                        n_max=1, beta=np.inf, coupling_kind="rotating-pair")
    with pytest.raises(InputError, match="n_max"):
        FiniteBathModel(QUBIT, sx, np.array([1.0]), np.array([0.1]),
                        n_max=0, beta=np.inf, coupling_kind="hermitian")


FIX3 = build_spectrum([0.0, 5 / 16, 1.0])
FIX3_COUPLING = hermitian_channel(
    np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]]))


def test_eqm_quadrature_flat_qubit_exact():
    spec = build_spectrum([-0.5, 0.5])
    sx = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    bath = flat_spectrum(1, 0.3)
    tau = np.arange(0, 5.0 + 0.005, 0.01)
    corr = time_correlation(bath, tau, tau_memory=5.0)
    k = eqm_born_kernel(spec, sx, corr)
    ref = build_kernel(spec, sx, bath, "redfield-in")
    assert np.max(np.abs(k.data - ref.data)) < 1e-12


def test_eqm_quadrature_zero_coupling():
    spec = build_spectrum([-0.5, 0.5])
    zero = hermitian_channel(np.zeros((2, 2), dtype=complex))
    bath = flat_spectrum(1, 0.3)
    tau = np.arange(0, 2.0 + 0.005, 0.01)
    corr = time_correlation(bath, tau, tau_memory=2.0)
    k = eqm_born_kernel(spec, zero, corr)
    assert np.max(np.abs(k.data)) == 0.0


def test_eqm_quadrature_lorentzian_window_convergence():
    lam = 2.0
    bath = lorentzian_spectrum(0.2, lam)
    ref = build_kernel(FIX3, FIX3_COUPLING, bath, "redfield-in")
    dt = 0.01
    errs = []
    for T in (3.5 / lam, 14.0 / lam):
        tau = np.arange(0, T + dt / 2, dt)
        corr = time_correlation(bath, tau, tau_memory=T)
        k = eqm_born_kernel(FIX3, FIX3_COUPLING, corr)
        errs.append(float(np.max(np.abs(k.data - ref.data))))
    assert errs[1] < 1e-6
    assert errs[0] / errs[1] > 10.0


def test_eqm_quadrature_thermal_tail_converges_slowly():
    # the thermal correlation decays by a power law, so extending the
    # window buys error down proportionally, not exponentially
    bath = thermal_ohmic_spectrum(0.3, 2.0, 1.5)
    ref = build_kernel(FIX3, FIX3_COUPLING, bath, "redfield-in")
    dt = 0.02
    errs = []
    for T in (12.0, 48.0):
        tau = np.arange(0, T + dt / 2, dt)
        corr = time_correlation(bath, tau, tau_memory=T)
        k = eqm_born_kernel(FIX3, FIX3_COUPLING, corr)
        errs.append(float(np.max(np.abs(k.data - ref.data))))
    assert errs[1] < 5e-4
    assert errs[0] / errs[1] > 5.0


def test_eqm_rejects_mismatched_channels():
    bath2 = flat_spectrum(2, 0.3)
    tau = np.arange(0, 2.0 + 0.005, 0.01)
    corr = time_correlation(bath2, tau, tau_memory=2.0)  # identity map
    with pytest.raises(InputError, match="adjoint"):
        eqm_born_kernel(QUBIT, LADDER, corr)


def test_lindblad_steady_state_matches_analytic_qubit():
    beta = 1.3
    bath = thermal_ohmic_spectrum(0.2, 5.0, beta, n_channels=2)
    k = build_kernel(QUBIT, LADDER, bath, "lindblad")
    rho = unique_state(steady_state(build_liouvillian(QUBIT, k)))
    gd = bath.gamma(1.0)[0, 0].real
    gu = bath.gamma(-1.0)[0, 0].real
    q = qubit_analytic(beta, gu, gd, 1.0)
    assert abs(rho[1, 1].real - q.p_excited) < 1e-10
    assert abs(rho[1, 1] / rho[0, 0] - q.kms_ratio) < 1e-10


def test_weak_coupling_trajectory_approaches_markov():
    # one quick point of the scaling study: weak rotating coupling to a
    # sixty-mode vacuum bath tracks the golden-rule decay closely
    eta = 2e-5
    omegas, gs, record = gauss_legendre_modes(lambda w: eta * w, 5.0, 60)
    model = FiniteBathModel(QUBIT, LADDER, omegas, gs, n_max=1, beta=np.inf,
                            coupling_kind="rotating-pair", quadrature=record)
    t = np.linspace(0, 30.0, 61)
    exact = exact_reduced_evolution(model, EXCITED, t)

    def gamma_fn(w):
        w = np.asarray(w, dtype=float)
        j = np.where((w > 0) & (w < 5.0), 2 * eta * np.clip(w, 0, None), 0.0)
        out = np.zeros(w.shape + (2, 2))
        out[..., 0, 0] = j
        return out

    bspec = custom_spectrum(2, gamma_fn, beta=np.inf, support_scale=6.0)
    k = build_kernel(QUBIT, LADDER, bspec, "lindblad")
    markov = evolve_markov(build_liouvillian(QUBIT, k), EXCITED, t)
    td = trace_distance(exact.states[-1], markov.states[-1])
    assert td < 5e-6
