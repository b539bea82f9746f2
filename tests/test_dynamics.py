"""Propagation, steady states, block structure, trajectory export."""

from types import SimpleNamespace

import numpy as np
import pytest

from qmekit.bath import flat_spectrum, gaussian_spectrum, thermal_ohmic_spectrum, time_correlation
from qmekit.core import (
    DensityMatrix,
    InputError,
    InvariantError,
    Superoperator,
    build_spectrum,
    hermitian_channel,
    ladder_channels,
)
import qmekit.dynamics as dynamics
from qmekit.kernels import build_kernel
from qmekit.dynamics import (
    EXPM_DIM_LIMIT,
    NONLOCAL_DIM_LIMIT,
    Trajectory,
    block_structure_report,
    build_liouvillian,
    evolve_markov,
    evolve_nonlocal,
    steady_result_json,
    steady_state,
    trace_distance,
    trajectory_to_csv,
)
from qmekit.io import canonical_dumps, fmt
from conftest import make_system


QUBIT = build_spectrum([-0.5, 0.5])
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def qubit_liouvillian(rate=0.3):
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, rate),
                     "lindblad")
    return build_liouvillian(QUBIT, k)


def test_liouvillian_eigenvalues_flat_qubit():
    rate = 0.3
    liouv = qubit_liouvillian(rate)
    assert isinstance(liouv, Superoperator) and liouv.dim == 2
    evals = np.sort_complex(np.linalg.eigvals(liouv.data))
    want = np.sort_complex(np.array(
        [0.0, -2 * rate, -rate - 1j, -rate + 1j]))
    assert np.max(np.abs(evals - want)) < 1e-12


def test_relaxation_and_dephasing_closed_forms():
    rate = 0.3
    liouv = qubit_liouvillian(rate)
    t = np.linspace(0, 12, 97)
    # infinite-temperature bath: populations relax to 1/2 at rate 2*Gamma
    traj = evolve_markov(liouv, EXCITED, t)
    pe = traj.states[:, 1, 1].real
    assert np.max(np.abs(pe - 0.5 * (1 + np.exp(-2 * rate * t)))) < 1e-13
    # coherence decays at Gamma around the Bohr phase
    traj2 = evolve_markov(liouv, PLUS, t)
    coh = traj2.states[:, 1, 0]
    want = 0.5 * np.exp(-(1j + rate) * t)
    assert np.max(np.abs(coh - want)) < 1e-13


def test_expm_and_rk_paths_agree(monkeypatch):
    spectrum, couplings, bath = make_system(14)
    k = build_kernel(spectrum, couplings, bath, "lindblad")
    liouv = build_liouvillian(spectrum, k)
    rho0 = DensityMatrix.maximally_mixed(spectrum.dim)
    t = np.linspace(0, 5, 21)
    # the path follows EXPM_DIM_LIMIT: 14 takes every block, 0 none
    monkeypatch.setattr(dynamics, "EXPM_DIM_LIMIT", 14)
    a = evolve_markov(liouv, rho0, t)
    monkeypatch.setattr(dynamics, "EXPM_DIM_LIMIT", 0)
    b = evolve_markov(liouv, rho0, t)
    assert a.method == "expm" and b.method == "rk"
    assert np.max(np.abs(a.states - b.states)) < 1e-8


def test_auto_method_picks_by_dimension():
    liouv = qubit_liouvillian()
    t = np.linspace(0, 1, 5)
    assert evolve_markov(liouv, EXCITED, t).method == "expm"

    # the limit applies to the largest block of the generator: a dense
    # redfield generator is one block of d^2 pairs, the zero kernel's
    # diagonal generator one block of the d populations and one-pair blocks
    d = EXPM_DIM_LIMIT + 1
    spectrum = build_spectrum(np.arange(d) / 8.0)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = build_kernel(spectrum, hermitian_channel(m + m.conj().T),
                     flat_spectrum(1, 0.3), "redfield-in")
    rho0 = DensityMatrix.maximally_mixed(d).matrix
    t_short = np.linspace(0, 0.1, 3)
    assert evolve_markov(build_liouvillian(spectrum, k), rho0, t_short).method == "rk"
    liouv_big = build_liouvillian(spectrum, Superoperator.zero(d))
    traj = evolve_markov(liouv_big, rho0, t)
    assert traj.method == "expm"
    # zero kernel: the mixed state is stationary under the phases
    assert np.max(np.abs(traj.states[-1] - rho0)) < 1e-9


def test_evolve_input_rejections():
    liouv = qubit_liouvillian()
    with pytest.raises(InputError):
        evolve_markov(liouv, EXCITED, [0.0, 0.0, 1.0])
    with pytest.raises(InputError):
        evolve_markov(liouv, np.eye(3) / 3, [0.0, 1.0])


def test_trajectory_diagnostics_stay_clean():
    liouv = qubit_liouvillian()
    traj = evolve_markov(liouv, EXCITED, np.linspace(0, 20, 81))
    assert np.max(traj.trace_drift) < 1e-12
    assert np.max(traj.herm_defect) < 1e-12
    assert np.min(traj.min_eigenvalue) > -1e-12


def dense_diagnostics(states):
    """herm_defect and min_eigenvalue by the dense formulas."""
    adjoint = np.conj(np.swapaxes(states, 1, 2))
    herm = np.max(np.abs(states - adjoint), axis=(1, 2))
    return herm, np.linalg.eigvalsh((states + adjoint) / 2)[:, 0]


def diagonal_stack(d, scale=1.0, seed=0):
    """Five diagonal (d, d) matrices: a state, random complex entries,
    one with -0.0 real and imaginary parts among them, all -0.0, and
    negative reals with imaginary parts."""
    rng = np.random.default_rng(seed)
    diag = scale * (rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d)))
    diag[0] = np.abs(diag[0].real) / np.sum(np.abs(diag[0].real))
    diag[2, 0], diag[2, -1] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    diag[3] = complex(-0.0, -0.0)
    diag[4] = -np.abs(diag[4].real) + 1j * diag[4].imag
    states = np.zeros((5, d, d), dtype=complex)
    states[:, np.arange(d), np.arange(d)] = diag
    return states


@pytest.mark.parametrize("d", [1, 2, 3, 6, 16, 24, 64, 128, 256])
def test_diagonal_states_take_the_dense_diagnostics_bits(d):
    # rho - rho^dagger is 2i Im rho_pp exactly and eigvalsh returns a
    # diagonal matrix's entries exactly, -0.0 as +0.0
    states = diagonal_stack(d)
    traj = dynamics._trajectory(np.arange(5.0), states, "expm")
    herm, mineig = dense_diagnostics(states)
    assert traj.herm_defect.tobytes() == herm.tobytes()
    assert traj.min_eigenvalue.tobytes() == mineig.tobytes()
    if d > 1:
        # one off-diagonal entry of 5e-324 sends the stack to the dense formulas
        states[:, 0, -1] = [5e-324, 0, 0, 0, 0]
        traj = dynamics._trajectory(np.arange(5.0), states, "expm")
        herm, mineig = dense_diagnostics(states)
        assert traj.herm_defect[0] == 5e-324
        assert traj.herm_defect.tobytes() == herm.tobytes()
        assert traj.min_eigenvalue.tobytes() == mineig.tobytes()


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("d", [2, 6, 16, 256])
def test_diagonal_states_past_the_eigensolver_scaling_read_the_exact_minimum(d, scale):
    # a largest entry below about 1.5e-146 or above about 6.7e145 makes
    # LAPACK scale the matrix, and the dense minimum may then be 1 ulp off
    # the entry; the diagonal rule returns the entry itself.  No trace-one
    # state reaches these magnitudes
    states = diagonal_stack(d, scale)
    diag = np.einsum("tii->ti", states)
    traj = dynamics._trajectory(np.arange(5.0), states, "expm")
    assert np.array_equal(traj.min_eigenvalue, np.min(diag.real, axis=1))
    assert np.array_equal(traj.herm_defect, np.max(np.abs(2 * diag.imag), axis=1))
    herm, mineig = dense_diagnostics(states)
    assert np.array_equal(traj.herm_defect, herm)
    assert np.all(np.abs(mineig - traj.min_eigenvalue) <= np.spacing(np.abs(mineig)))


def test_steady_state_thermal_gibbs():
    beta = 1.3
    bath = thermal_ohmic_spectrum(0.2, 5.0, beta, n_channels=2)
    k = build_kernel(QUBIT, ladder_channels(np.array([[0, 1], [0, 0]])),
                     bath, "lindblad")
    liouv = build_liouvillian(QUBIT, k)
    result = steady_state(liouv)
    assert result.multiplicity == 1
    rho = result.state()
    assert abs(rho[1, 1] / rho[0, 0] - np.exp(-beta)) < 1e-12
    doc = steady_result_json(result)
    assert doc["multiplicity"] == 1
    assert doc["states"][0]["trace_normalized"] is True
    # the payload holds arrays; its text is that of the float lists it held
    lists = dict(doc, singular_values=[float(s) for s in result.singular_values],
                 states=[dict(entry, matrix=[[[z.real, z.imag] for z in row]
                                             for row in s.tolist()])
                         for entry, s in zip(doc["states"], result.states)])
    assert canonical_dumps(doc) == canonical_dumps(lists)


@pytest.mark.parametrize("system", [
    "thermal-qubit", "zero-kernel", "traceless", *(f"box{i}" for i in range(10))])
def test_steady_state_report_does_not_depend_on_the_svd_sign(monkeypatch, system):
    # the null vector's sign is whatever the SVD returns; negating it
    # leaves every byte of the report, raw_trace included, as it was
    if system == "thermal-qubit":
        liouv = qubit_liouvillian()
    elif system == "zero-kernel":
        liouv = build_liouvillian(QUBIT, Superoperator.zero(2))
    elif system == "traceless":
        v = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
        liouv = Superoperator(2, (np.eye(4) - np.outer(v, v)).astype(complex))
    else:
        spectrum, couplings, bath = make_system(int(system[3:]))
        variant = ("energy-conserving", "redfield-in", "born")[int(system[3:]) % 3]
        k = build_kernel(spectrum, couplings, bath, variant, omega=0.0)
        liouv = build_liouvillian(spectrum, k)
    report = canonical_dumps(steady_result_json(steady_state(liouv)))
    svd = np.linalg.svd

    def negated(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return -u, s, -vh

    monkeypatch.setattr(np.linalg, "svd", negated)
    result = steady_state(liouv)
    assert canonical_dumps(steady_result_json(result)) == report
    assert all(tr.real >= 0 for tr in result.traces)


def test_steady_state_zero_kernel_multiplicity():
    liouv = build_liouvillian(QUBIT, Superoperator.zero(2))
    result = steady_state(liouv)
    # populations are individually conserved: one null vector per level
    assert result.multiplicity == 2
    with pytest.raises(InvariantError, match="not unique"):
        result.state()


def test_steady_state_gap_and_null_failures():
    # one block of 4 pairs: cutoff 16 * 4 * eps = 1.4e-14, gap edge 1.4e-13
    data = np.diag([0.0, 1e-13, 1.0, 1.0]).astype(complex)
    with pytest.raises(InvariantError, match="gap"):
        steady_state(Superoperator(2, data))
    with pytest.raises(InvariantError, match="no steady state"):
        steady_state(Superoperator(2, np.eye(4, dtype=complex)))


@pytest.mark.parametrize("inside", [True, False])
def test_steady_state_cutoff_follows_the_largest_block(inside):
    # one-pair blocks (0,) and (3,) and one block of pairs (1, 2): the
    # cutoff is 16 * 2 * eps * ||L||, from the largest block, and a value
    # just inside GAP_FACTOR times it still makes the rank a guess
    cut = 16 * 2 * np.finfo(float).eps
    x = (0.99 if inside else 1.01) * dynamics.GAP_FACTOR * cut
    liouv = Superoperator(2, blocks=[
        (np.array([[0], [3]]), np.array([[[0.0]], [[x]]], dtype=complex)),
        (np.array([[1, 2]]), np.eye(2, dtype=complex)[None]),
    ])
    if inside:
        with pytest.raises(InvariantError, match="gap"):
            steady_state(liouv)
        return
    result = steady_state(liouv)
    assert result.threshold == cut
    assert result.multiplicity == 1
    assert np.array_equal(result.state(), np.diag([1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("seed, variant", [(9000066, "energy-conserving"),
                                           (3720006, "redfield-in")])
def test_slow_modes_of_cold_systems_are_not_null(seed, variant):
    # box-sweep seed 150 system 66 and seed 62 system 6: beta = 5 and a
    # degenerate ground pair whose dark combination relaxes only through
    # the excited level, so L has a real slow mode near 1e-10 ||L||.  A
    # fixed cutoff of 1e-10 ||L|| refused the first ("no clean spectral
    # gap") and counted the second's slow mode as a second null vector
    spectrum, couplings, bath = make_system(seed)
    liouv = build_liouvillian(spectrum, build_kernel(spectrum, couplings, bath, variant))
    norm = np.linalg.norm(liouv.data, 2)
    result = steady_state(liouv)
    assert result.multiplicity == 1
    slow = result.singular_values[1]
    assert 1e-11 * norm < slow < 1e-9 * norm
    assert slow > 1e3 * result.threshold
    eig = np.sort(np.abs(np.linalg.eigvals(liouv.data)))
    assert eig[0] <= result.threshold < 1e3 * result.threshold < eig[1] < 1e-9 * norm
    rho = result.state()
    assert np.linalg.norm(liouv.data @ rho.ravel()) < 1e-14 * norm
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_steady_state_traceless_null_flagged():
    sz = np.diag([1.0, -1.0]).astype(complex)
    v = sz.ravel() / np.linalg.norm(sz)
    data = np.eye(4) - np.outer(v, v.conj())
    result = steady_state(Superoperator(2, data))
    assert result.multiplicity == 1
    assert result.normalized[0] is False
    with pytest.raises(InvariantError, match="traceless"):
        result.state()


def test_nonlocal_matches_markov_for_short_memory():
    sigma, rate = 200.0, 0.1
    bath = gaussian_spectrum(rate, sigma)
    tau = np.arange(0, 8.0 / sigma + 0.1 / sigma, 0.25 / sigma)
    corr = time_correlation(bath, tau, tau_memory=8.0 / sigma)
    couplings = hermitian_channel(SIGMA_X)
    h = 0.5 / sigma
    t = np.arange(0, 20.0 + h / 2, h)
    nl = evolve_nonlocal(QUBIT, couplings, corr, EXCITED, t)
    assert nl.method == "heun-nonlocal"
    mk = evolve_markov(build_liouvillian(
        QUBIT, build_kernel(QUBIT, couplings, bath, "lindblad")), EXCITED, t)
    diff = nl.states - mk.states
    diff = (diff + np.conj(np.swapaxes(diff, 1, 2))) / 2
    tds = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
    assert np.max(tds) < 5e-4
    assert np.max(nl.trace_drift) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_propagation_names_the_first_time():
    # a rate so large that the propagated states overflow within a step
    # or two
    with pytest.raises(InvariantError, match=r"not finite from t=0\.1 on"):
        evolve_markov(qubit_liouvillian(1e300), EXCITED, np.linspace(0, 1, 11))
    sigma = 200.0
    tau = np.arange(0, 8.0 / sigma + 0.1 / sigma, 0.25 / sigma)
    corr = time_correlation(gaussian_spectrum(1e300, sigma), tau, tau_memory=8.0 / sigma)
    t = np.arange(0, 0.1, 0.5 / sigma)
    with pytest.raises(InvariantError, match=r"not finite from t=0\.005 on"):
        evolve_nonlocal(QUBIT, hermitian_channel(SIGMA_X), corr, EXCITED, t)


@pytest.mark.parametrize("reached, at", [([0.0, 0.25], "0.25"), ([], "0")])
def test_failed_adaptive_integration_is_a_breach(monkeypatch, reached, at):
    # DOP853 gives up (here a stand-in that reports failure): the error
    # names the last time it reached, or the start if it reached none
    monkeypatch.setattr(dynamics, "EXPM_DIM_LIMIT", 0)
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *a, **kw: SimpleNamespace(
        success=False, t=np.array(reached), message="Required step size is too small."))
    with pytest.raises(InvariantError, match=rf"adaptive integration failed after "
                                             rf"t={at}: Required step size is too small"):
        evolve_markov(qubit_liouvillian(), EXCITED, np.linspace(0, 1, 5))


def test_nonlocal_rejects_mismatched_adjoint_map():
    sigma = 200.0
    bath = gaussian_spectrum(0.1, sigma, n_channels=2)
    tau = np.arange(0, 8.0 / sigma + 0.1 / sigma, 0.25 / sigma)
    corr = time_correlation(bath, tau, tau_memory=8.0 / sigma)  # identity map
    couplings = ladder_channels(np.array([[0, 1], [0, 0]]))
    t = np.arange(0, 1.0, 0.5 / sigma)
    with pytest.raises(InputError, match="adjoint"):
        evolve_nonlocal(QUBIT, couplings, corr, EXCITED, t)


def test_nonlocal_grid_and_dimension_limits():
    bath = flat_spectrum(1, 0.1)
    tau = np.arange(0, 1.0 + 0.005, 0.01)
    corr = time_correlation(bath, tau, tau_memory=1.0)
    couplings = hermitian_channel(SIGMA_X)
    with pytest.raises(InputError, match="uniform"):
        evolve_nonlocal(QUBIT, couplings, corr, EXCITED,
                        np.array([0.0, 0.01, 0.03, 0.04]))
    d = NONLOCAL_DIM_LIMIT + 1
    spectrum = build_spectrum(np.arange(d) / 4.0)
    big = hermitian_channel(np.eye(d, dtype=complex))
    rho = np.eye(d, dtype=complex) / d
    with pytest.raises(InputError, match="supports d <="):
        evolve_nonlocal(spectrum, big, corr, rho, np.arange(0, 1.0, 0.01))


def test_block_structure_nondegenerate_vs_degenerate():
    bath = flat_spectrum(1, 0.3)
    coupling3 = hermitian_channel(
        np.array([[0.0, 0.6, 0.2], [0.6, 0.0, 0.4], [0.2, 0.4, 0.0]]))
    spec_nd = build_spectrum([0.0, 0.5, 1.25])
    k_nd = build_kernel(spec_nd, coupling3, bath, "energy-conserving")
    rep = block_structure_report(spec_nd, k_nd)
    assert not rep["coherences_feed_populations"]
    assert not rep["populations_feed_coherences"]
    assert rep["cross_entries"] == []
    assert rep["degeneracy_classes"] == [[0], [1], [2]]
    assert rep["threshold"] == 1e-12

    spec_deg = build_spectrum([0.0, 1.0, 1.0])
    k_deg = build_kernel(spec_deg, coupling3, bath, "energy-conserving")
    rep_deg = block_structure_report(spec_deg, k_deg)
    assert rep_deg["coherences_feed_populations"]
    assert rep_deg["populations_feed_coherences"]
    assert rep_deg["degeneracy_classes"] == [[0], [1, 2]]

    # cross entries in the order and rounding of a plain index scan
    k_rf = build_kernel(spec_deg, coupling3, bath, "redfield-in")
    for k in (k_deg, k_rf):
        t = k.data.reshape((k.dim,) * 4)
        scan = [{"row": [p, p], "col": [q, q2], "abs_value": float(abs(t[p, p, q, q2]))}
                for p in range(3) for q in range(3) for q2 in range(3)
                if q != q2 and abs(t[p, p, q, q2]) > 1e-12]
        scan += [{"row": [p, p2], "col": [q, q], "abs_value": float(abs(t[p, p2, q, q]))}
                 for p in range(3) for p2 in range(3) for q in range(3)
                 if p != p2 and abs(t[p, p2, q, q]) > 1e-12]
        assert block_structure_report(spec_deg, k)["cross_entries"] == scan
        assert scan


def test_trace_distance_known_values():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(a, b) - 1.0) < 1e-15
    assert trace_distance(a, a) == 0.0
    assert abs(trace_distance(a, np.eye(2) / 2) - 0.5) < 1e-15


def test_trace_distance_takes_stacks():
    rng = np.random.default_rng(3)
    for d in (2, 5, 9, 14):
        a = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
        b = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
        per_pair = [trace_distance(x, y) for x, y in zip(a, b)]
        assert all(type(td) is float for td in per_pair)
        assert np.array_equal(trace_distance(a, b), per_pair)
        assert np.array_equal(trace_distance(a[None], b[None])[0], per_pair)


def test_trajectory_csv_schema(tmp_path):
    # a qubit, and a d = 9 trajectory, where sums over the diagonal run
    # past numpy's eight-way unrolled summation
    spec9 = build_spectrum(0.25 * np.arange(9))
    h = np.random.default_rng(5).normal(size=(9, 9))
    liouv9 = build_liouvillian(spec9, build_kernel(
        spec9, hermitian_channel(h + h.T), flat_spectrum(1, 0.3), "redfield-in"))
    excited9 = np.zeros((9, 9), dtype=complex)
    excited9[-1, -1] = 1.0
    for liouv, rho0 in ((qubit_liouvillian(), EXCITED), (liouv9, excited9)):
        d = rho0.shape[0]
        traj = evolve_markov(liouv, rho0, np.linspace(0, 1, 5))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        head = lines[0].split(",")
        assert head[0] == "t"
        assert head[1:3] == ["re_rho_0_0", "im_rho_0_0"]
        assert head[-2:] == ["trace", "min_eig"]
        assert len(head) == 1 + 2 * d * d + 2
        assert len(lines) == 1 + 5
        row0 = [float(x) for x in lines[1].split(",")]
        assert row0[0] == 0.0
        # excited initial state: rho_{d-1, d-1} = 1
        assert row0[1 + 2 * (d * d - 1)] == 1.0
        rows = [[fmt(t)] + [fmt(f(z)) for z in s.ravel() for f in (np.real, np.imag)]
                + [fmt(np.trace(s).real), fmt(m)]
                for t, s, m in zip(traj.times, traj.states, traj.min_eigenvalue)]
        assert lines[1:] == [",".join(r) for r in rows]
        assert abs(row0[-2] - 1.0) < 1e-15


def test_trajectory_csv_of_non_finite_states_writes_nothing(tmp_path):
    traj = evolve_markov(qubit_liouvillian(), EXCITED, np.linspace(0, 1, 5))
    states = traj.states.copy()
    states[3, 0, 1] = np.nan
    path = tmp_path / "traj.csv"
    with pytest.raises(InputError, match="non-finite value nan"):
        trajectory_to_csv(Trajectory(traj.times, states, traj.trace_drift,
                                     traj.herm_defect, traj.min_eigenvalue), path)
    assert not path.exists()
