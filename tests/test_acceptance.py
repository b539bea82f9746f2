"""The criteria the package ships against, one test per criterion.

Each test computes its metric, records a PASS/FAIL line for the summary
hook in conftest, then asserts.  Shared heavy work (the seeded box, its
trajectories) lives in session fixtures.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import record_criterion, unique_state

from qmekit.core import InputError, build_spectrum, hermitian_channel, ladder_channels
from qmekit.bath import (
    custom_spectrum,
    flat_spectrum,
    gaussian_spectrum,
    lorentzian_spectrum,
    thermal_ohmic_spectrum,
    time_correlation,
)
from qmekit.kernels import VARIANT_TAGS, build_kernel, trace_condition_residual
from qmekit.dynamics import (
    build_liouvillian,
    evolve_markov,
    evolve_nonlocal,
    steady_state,
    trace_distance,
)
from qmekit.diagnostics import choi_matrix, map_check
from qmekit.oracle import (
    FiniteBathModel,
    eqm_born_kernel,
    exact_reduced_evolution,
    gauss_legendre_modes,
)


QUBIT = build_spectrum([0.0, 1.0])
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
LADDER = ladder_channels(SIGMA_MINUS)
EXCITED_QUBIT = np.array([[0, 0], [0, 1]], dtype=complex)

THREE = build_spectrum([0.0, 5 / 16, 1.0])
THREE_COUPLING = hermitian_channel(
    np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]]))
THREE_BATH = thermal_ohmic_spectrum(0.4, 5.0, 1.3)


def _born_omega(variant):
    return 0.7 if variant == "born" else None


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


def propagator_choi_min(liouv, t_probes):
    """Smallest eigenvalue of the hermitized Choi matrix of exp(L t) at
    each probe time."""
    t = np.asarray(t_probes, dtype=float)
    c = choi_matrix(expm(liouv.data * t[:, None, None]), liouv.dim)
    return np.linalg.eigvalsh((c + c.conj().swapaxes(1, 2)) / 2)[:, 0]


@pytest.fixture(scope="session")
def box_dynamics(system_box):
    """Per-system jump-expansion generator, probe times, and short
    trajectories from the excited and maximally mixed states."""
    out = []
    for spectrum, couplings, bath in system_box:
        kernel = build_kernel(spectrum, couplings, bath, "lindblad")
        liouv = build_liouvillian(spectrum, kernel)
        probes = default_probe_times(kernel)
        t = np.linspace(0.0, probes[-1], 25)
        d = spectrum.dim
        excited = np.zeros((d, d), dtype=complex)
        excited[-1, -1] = 1.0
        mixed = np.eye(d, dtype=complex) / d
        trajs = [evolve_markov(liouv, rho, t) for rho in (excited, mixed)]
        out.append((liouv, probes, trajs))
    return out


def test_criterion_01_ec_equals_jump_expansion(system_box):
    t0 = time.perf_counter()
    worst = 0.0
    dims, kinds, n_degenerate = set(), set(), 0
    for spectrum, couplings, bath in system_box:
        ec = build_kernel(spectrum, couplings, bath, "energy-conserving")
        li = build_kernel(spectrum, couplings, bath, "lindblad")
        worst = max(worst, float(np.max(np.abs(ec.data - li.data))))
        dims.add(spectrum.dim)
        kinds.add(bath.kind)
        if len(spectrum.class_energy) < spectrum.dim:
            n_degenerate += 1
    elapsed = time.perf_counter() - t0
    ok = (worst < 1e-12 and elapsed < 60.0 and len(system_box) >= 100
          and dims == {2, 3, 4, 5, 6} and kinds == {"flat", "thermal-ohmic"}
          and n_degenerate >= 20)
    record_criterion(
        1, "energy-conserving kernel equals the jump expansion across the box",
        ok, f"worst {worst:.2e} over {len(system_box)} systems "
            f"({n_degenerate} degenerate) in {elapsed:.1f} s")
    assert len(system_box) >= 100 and dims == {2, 3, 4, 5, 6}
    assert kinds == {"flat", "thermal-ohmic"} and n_degenerate >= 20
    assert worst < 1e-12, worst
    assert elapsed < 60.0


def test_criterion_02_trace_condition_every_variant(system_box):
    worst = 0.0
    for spectrum, couplings, bath in system_box:
        for variant in VARIANT_TAGS:
            k = build_kernel(spectrum, couplings, bath, variant,
                             omega=_born_omega(variant))
            worst = max(worst, trace_condition_residual(k))
    ok = worst < 1e-12
    record_criterion(
        2, "all five kernel variants conserve trace on the box",
        ok, f"worst residual {worst:.2e}")
    assert ok, worst


def test_criterion_03_resonance_choice_moves_only_coherences():
    kin = build_kernel(THREE, THREE_COUPLING, THREE_BATH, "redfield-in")
    kout = build_kernel(THREE, THREE_COUPLING, THREE_BATH, "redfield-out")
    diff = np.abs(kin.data - kout.data)
    scale = max(float(np.max(np.abs(kin.data))),
                float(np.max(np.abs(kout.data))))
    moved = float(diff.max())
    dmask = np.eye(3, dtype=bool).ravel()
    pop_block = float(diff[np.ix_(dmask, dmask)].max())

    spread = 0.0
    qflat = flat_spectrum(2, 0.3)
    kernels = [build_kernel(QUBIT, LADDER, qflat, v, omega=_born_omega(v))
               for v in VARIANT_TAGS]
    for i in range(len(kernels)):
        for j in range(i + 1, len(kernels)):
            spread = max(spread, float(
                np.max(np.abs(kernels[i].data - kernels[j].data))))

    ok = moved > 1e-3 * scale and pop_block == 0.0 and spread == 0.0
    record_criterion(
        3, "resonance-argument choice moves only coherence couplings; the "
           "flat-bath qubit is variant-independent",
        ok, f"moved {moved:.3g} ({moved / scale:.1%} of scale), population "
            f"block {pop_block:g}, qubit spread {spread:g}")
    assert moved > 1e-3 * scale, (moved, scale)
    assert pop_block == 0.0, pop_block
    assert spread == 0.0, spread


def test_criterion_04_degeneracy_gates_population_coherence_mixing(system_box):
    worst_cross = 0.0
    checked = 0
    for spectrum, couplings, bath in system_box:
        if len(spectrum.class_energy) != spectrum.dim:
            continue
        k = build_kernel(spectrum, couplings, bath, "energy-conserving")
        dmask = np.eye(spectrum.dim, dtype=bool).ravel()
        cross = max(
            float(np.max(np.abs(k.data[np.ix_(dmask, ~dmask)]))),
            float(np.max(np.abs(k.data[np.ix_(~dmask, dmask)]))))
        worst_cross = max(worst_cross, cross)
        checked += 1

    deg = build_spectrum([0.0, 1.0, 1.0])
    kd = build_kernel(deg, THREE_COUPLING, flat_spectrum(1, 0.2),
                      "energy-conserving")
    dmask = np.eye(3, dtype=bool).ravel()
    deg_cross = max(
        float(np.max(np.abs(kd.data[np.ix_(dmask, ~dmask)]))),
        float(np.max(np.abs(kd.data[np.ix_(~dmask, dmask)]))))

    ok = worst_cross == 0.0 and deg_cross > 1e-3 and checked >= 30
    record_criterion(
        4, "population-coherence mixing appears exactly when the spectrum "
           "is degenerate",
        ok, f"{checked} nondegenerate systems cross-max {worst_cross:g}; "
            f"degenerate fixture cross-max {deg_cross:.3g}")
    assert checked >= 30
    assert worst_cross == 0.0, worst_cross
    assert deg_cross > 1e-3, deg_cross


def test_criterion_05_thermalization_across_temperatures():
    worst = 0.0
    for beta in (0.1, 1.0, 10.0):
        bath = thermal_ohmic_spectrum(0.2, 5.0, beta, n_channels=2)
        k = build_kernel(QUBIT, LADDER, bath, "lindblad")
        rho = unique_state(steady_state(build_liouvillian(QUBIT, k)))
        ratio = (rho[1, 1] / rho[0, 0]).real
        worst = max(worst, abs(ratio - np.exp(-beta)))
    ok = worst < 1e-10
    record_criterion(
        5, "driven qubit thermalizes at the bath temperature across three "
           "decades of beta",
        ok, f"worst detailed-balance error {worst:.2e}")
    assert ok, worst


def test_criterion_06_positivity_of_maps_and_states(system_box, box_dynamics):
    worst_choi = np.inf
    worst_state = np.inf
    for liouv, probes, trajs in box_dynamics:
        worst_choi = min(worst_choi, float(np.min(propagator_choi_min(liouv, probes))))
        for traj in trajs:
            worst_state = min(worst_state, float(np.min(traj.min_eigenvalue)))
    certified = sum(
        map_check(build_liouvillian(spectrum, build_kernel(spectrum, couplings, bath, variant))
                  ).verdict == "cp-consistent"
        for spectrum, couplings, bath in system_box
        for variant in ("energy-conserving", "lindblad"))
    ok = (worst_choi >= -1e-8 and worst_state >= -1e-8
          and certified == 2 * len(system_box))
    record_criterion(
        6, "jump-expansion propagators keep Choi spectra and evolved states "
           "positive, and every covariant generator is certified CP",
        ok, f"worst Choi eigenvalue {worst_choi:.2e}, worst state "
            f"eigenvalue {worst_state:.2e}, cp-consistent "
            f"{certified}/{2 * len(system_box)}")
    assert worst_choi >= -1e-8, worst_choi
    assert worst_state >= -1e-8, worst_state
    assert certified == 2 * len(system_box), certified


def test_criterion_07_finite_bath_contraction():
    t0 = time.perf_counter()
    eta0, band = 2e-5, 5.0
    omegas, gs, record = gauss_legendre_modes(lambda w: eta0 * w, band, 60)
    t = np.linspace(0.0, 30.0, 121)
    tds = []
    for c in (1.0, 0.5, 0.25):
        model = FiniteBathModel(QUBIT, LADDER, omegas, c * gs, n_max=1,
                                beta=np.inf, coupling_kind="rotating-pair",
                                quadrature=record)
        exact = exact_reduced_evolution(model, EXCITED_QUBIT, t)
        eta = eta0 * c * c

        def gamma_fn(w, eta=eta):
            w = np.asarray(w, dtype=float)
            j = np.where((w > 0) & (w < band),
                         2 * eta * np.clip(w, 0, None), 0.0)
            out = np.zeros(w.shape + (2, 2))
            out[..., 0, 0] = j
            return out

        bspec = custom_spectrum(2, gamma_fn, beta=np.inf,
                                support_scale=band + 1.0)
        k = build_kernel(QUBIT, LADDER, bspec, "lindblad")
        markov = evolve_markov(build_liouvillian(QUBIT, k), EXCITED_QUBIT, t)
        tds.append(trace_distance(exact.states[-1], markov.states[-1]))
    ratios = [tds[0] / tds[1], tds[1] / tds[2]]
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= r <= 5.0 for r in ratios) and elapsed < 600.0
    record_criterion(
        7, "finite-bath deviation contracts fourfold per coupling halving",
        ok, f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} in {elapsed:.1f} s")
    assert all(3.0 <= r <= 5.0 for r in ratios), ratios
    assert elapsed < 600.0


def test_criterion_08_quadrature_matches_incoming_resonance_kernel():
    lam = 2.0
    bath = lorentzian_spectrum(0.2, lam)
    ref = build_kernel(THREE, THREE_COUPLING, bath, "redfield-in")
    dt = 0.01
    errs = []
    for window in (3.5 / lam, 14.0 / lam):
        tau = np.arange(0.0, window + dt / 2, dt)
        corr = time_correlation(bath, tau, tau_memory=window)
        k = eqm_born_kernel(THREE, THREE_COUPLING, corr)
        errs.append(float(np.max(np.abs(k.data - ref.data))))
    improvement = errs[0] / errs[1]
    ok = errs[1] < 1e-6 and improvement >= 10.0
    record_criterion(
        8, "windowed double-commutator quadrature reproduces the "
           "incoming-resonance kernel and converges with the window",
        ok, f"error {errs[1]:.2e} after 4x window, improvement "
            f"{improvement:.0f}x")
    assert errs[1] < 1e-6, errs
    assert improvement >= 10.0, improvement


def test_criterion_09_memory_propagator_markov_limit():
    sigma, rate = 1000.0, 0.05
    sx = hermitian_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    bath = gaussian_spectrum(rate, sigma)
    h = 5e-4
    t = np.arange(0.0, 50.0 + h / 2, h)
    tau = np.arange(0.0, 8.0 / sigma + 0.125 / sigma, 0.25 / sigma)
    corr = time_correlation(bath, tau, tau_memory=8.0 / sigma)
    nl = evolve_nonlocal(QUBIT, sx, corr, EXCITED_QUBIT, t)

    k = build_kernel(QUBIT, sx, bath, "redfield-in")
    markov = evolve_markov(build_liouvillian(QUBIT, k), EXCITED_QUBIT, t)
    diff = nl.states - markov.states
    td_max = float(np.max(np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)) / 2)

    # horizon covers five relaxation times of the flat-limit rate
    assert t[-1] >= 5.0 / (2 * rate)
    ok = td_max < 1e-4
    record_criterion(
        9, "memory propagator collapses to the Markov limit for a "
           "near-flat bath",
        ok, f"max trace distance {td_max:.2e} over {t.size} steps")
    assert ok, td_max


def test_criterion_10_conservation_and_generator_spectra(system_box,
                                                         box_dynamics):
    worst_drift = 0.0
    worst_herm = 0.0
    worst_re = -np.inf
    for (spectrum, couplings, bath), (liouv, _, trajs) in zip(system_box,
                                                              box_dynamics):
        for traj in trajs:
            worst_drift = max(worst_drift, float(np.max(traj.trace_drift)))
            worst_herm = max(worst_herm, float(np.max(traj.herm_defect)))
        worst_re = max(worst_re, float(np.max(np.linalg.eigvals(liouv.data).real)))
        ec = build_kernel(spectrum, couplings, bath, "energy-conserving")
        ec_liouv = build_liouvillian(spectrum, ec)
        worst_re = max(worst_re, float(np.max(np.linalg.eigvals(ec_liouv.data).real)))
    ok = worst_drift < 1e-10 and worst_herm < 1e-10 and worst_re <= 1e-10
    record_criterion(
        10, "trajectories hold trace and hermiticity at 1e-10 and generator "
            "spectra stay in the left half-plane",
        ok, f"trace drift {worst_drift:.2e}, herm defect {worst_herm:.2e}, "
            f"max Re eigenvalue {worst_re:.2e}")
    assert worst_drift < 1e-10, worst_drift
    assert worst_herm < 1e-10, worst_herm
    assert worst_re <= 1e-10, worst_re
