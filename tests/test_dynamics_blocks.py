"""Blockwise steady states and propagation against the dense formulas.

Covariant generators (energy-conserving, lindblad) split into blocks of
level pairs that share a Bohr frequency; `steady_state` and
`evolve_markov` then work per block.  Each test here recomputes the
dense result inline (one SVD of the whole generator, one exponential of
the whole generator) and compares.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qmekit.bath import thermal_ohmic_spectrum
from qmekit.core import (
    DensityMatrix,
    InvariantError,
    Superoperator,
    build_spectrum,
    hermitian_channel,
)
import qmekit.dynamics as dynamics
from qmekit.dynamics import build_liouvillian, evolve_markov, steady_state
from qmekit.kernels import build_kernel

COVARIANT = ("energy-conserving", "lindblad")


def dense_null(data, rel_threshold=1e-10):
    """Singular values (descending), cutoff and null rows of one dense SVD."""
    _, svals, vh = np.linalg.svd(data)
    cut = rel_threshold * svals[0]
    return svals, cut, vh[svals <= cut].conj()


def dense_trajectory(data, rho0, t):
    """One exponential of the whole generator per step, as a matvec chain."""
    prop = expm(data * (t[1] - t[0]))
    vecs = [np.asarray(rho0, dtype=complex).ravel()]
    for _ in t[1:]:
        vecs.append(prop @ vecs[-1])
    return np.array(vecs).reshape(len(t), *np.shape(rho0))


def excited(d):
    rho = np.zeros((d, d), dtype=complex)
    rho[-1, -1] = 1.0
    return rho


def assert_matches_dense(liouv):
    """steady_state(liouv) equals the dense SVD's answer to 1e-12."""
    svals, cut, null = dense_null(liouv.data)
    try:
        result = steady_state(liouv)
    except InvariantError:
        # the dense decision must fail the same way: no null vector or no gap
        mult = int(np.sum(svals <= cut))
        assert mult == 0 or (mult < len(svals) and svals[-mult - 1] <= 10 * cut)
        return
    scale = svals[0]
    assert result.multiplicity == len(null)
    assert abs(result.threshold - cut) <= 1e-12 * cut
    small = svals[::-1][: len(result.singular_values)]
    assert np.max(np.abs(result.singular_values - small)) <= 1e-12 * scale
    # every state lies in the dense null space.  Either SVD fixes that
    # space only to about eps ||L|| / sigma_gap (Wedin), so a small gap
    # (1e-5 ||L|| on one box system) widens the 1e-12 tolerance
    gap = svals[-len(null) - 1] if len(null) < len(svals) else scale
    tol = max(1e-12, 16 * np.finfo(float).eps * scale / gap)
    basis, _ = np.linalg.qr(null.T)
    vs = np.array([rho.ravel() / np.linalg.norm(rho) for rho in result.states]).T
    assert np.max(np.linalg.norm(vs - basis @ (basis.conj().T @ vs), axis=0)) < tol
    # ... and the states span all of it
    assert np.linalg.matrix_rank(vs) == len(null)
    if len(null) == 1:
        rho = null[0].reshape(liouv.dim, liouv.dim)
        rho = (rho + rho.conj().T) / 2
        assert np.max(np.abs(result.state() - rho / np.trace(rho))) < tol


def liouvillian(levels, variant, seed=0):
    spectrum = build_spectrum(levels)
    d = spectrum.dim
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    bath = thermal_ohmic_spectrum(0.28, 5.0, 2.0)
    k = build_kernel(spectrum, hermitian_channel(m + m.conj().T), bath, variant)
    return build_liouvillian(spectrum, k)


def spectra(d):
    rng = np.random.default_rng(d)
    return {
        "generic": np.sort(rng.uniform(0.0, 4.0, d)),
        "harmonic": 0.25 * np.arange(d),
        "degenerate": np.repeat(np.arange((d + 1) // 2), 2)[:d] / 4.0,
    }


def test_steady_states_match_dense_on_the_box(system_box):
    for spectrum, couplings, bath in system_box:
        for variant in COVARIANT:
            k = build_kernel(spectrum, couplings, bath, variant)
            assert_matches_dense(build_liouvillian(spectrum, k))


@pytest.mark.parametrize("d", [16, 24])
@pytest.mark.parametrize("family", ["generic", "harmonic", "degenerate"])
def test_steady_states_match_dense_above_the_box(d, family):
    variants = COVARIANT if d == 16 else COVARIANT[:1]
    for variant in variants:
        assert_matches_dense(liouvillian(spectra(d)[family], variant))


@pytest.mark.parametrize("d", [6, 17])
def test_zero_kernel_null_space_matches_dense(d):
    # d^2 one-pair blocks with exactly tied singular values |E_p - E_q|:
    # the null space is the d populations
    spectrum = build_spectrum(np.arange(d) / 8.0)
    liouv = build_liouvillian(spectrum, Superoperator.zero(d))
    assert steady_state(liouv).multiplicity == d
    assert_matches_dense(liouv)


@pytest.mark.parametrize("family", ["generic", "harmonic", "degenerate"])
def test_trajectories_match_dense(family):
    liouv = liouvillian(spectra(16)[family], "energy-conserving")
    t = np.linspace(0.0, 10.0, 41)
    rho0 = excited(16)
    traj = evolve_markov(liouv, rho0, t)
    assert traj.method == "expm"
    assert np.max(np.abs(traj.states - dense_trajectory(liouv.data, rho0, t))) < 1e-12


def test_box_trajectories_match_dense(system_box):
    t = np.linspace(0.0, 5.0, 11)
    for spectrum, couplings, bath in system_box[:30]:
        k = build_kernel(spectrum, couplings, bath, "lindblad")
        liouv = build_liouvillian(spectrum, k)
        rho0 = DensityMatrix.maximally_mixed(spectrum.dim).matrix
        traj = evolve_markov(liouv, rho0, t)
        want = dense_trajectory(liouv.data, rho0, t)
        assert np.max(np.abs(traj.states - want)) < 1e-12


def test_harmonic_ladder_interior_times_match_the_exponential(monkeypatch):
    # d=24 harmonic ladder, thermal bath at beta=2: the adaptive path used
    # to miss expm(L t) rho0 by 6.7e-8 at interior grid times
    d = 24
    liouv = liouvillian(0.25 * np.arange(d), "energy-conserving")
    t = np.linspace(0.0, 10.0, 101)
    rho0 = excited(d)
    want = dense_trajectory(liouv.data, rho0, t)
    for i in (17, 50, 100):
        direct = (expm(liouv.data * t[i]) @ rho0.ravel()).reshape(d, d)
        assert np.max(np.abs(want[i] - direct)) < 1e-13
    traj = evolve_markov(liouv, rho0, t)
    assert traj.method == "expm"
    assert np.max(np.abs(traj.states - want)) < 1e-12
    monkeypatch.setattr(dynamics, "EXPM_DIM_LIMIT", 0)
    rk = evolve_markov(liouv, rho0, t)
    assert rk.method == "rk"
    assert np.max(np.abs(rk.states - want)) < 1e-8


@pytest.mark.parametrize("d", [3, 5])
def test_one_block_generators_run_the_dense_path(d):
    # redfield-in with a dense hermitian coupling connects every pair
    liouv = liouvillian(spectra(d)["generic"], "redfield-in")
    svals, cut, null = dense_null(liouv.data)
    result = steady_state(liouv)
    assert np.array_equal(result.singular_values, svals[::-1][: max(len(null) + 2, 4)])
    rho = null[0].reshape(d, d)
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.linalg.norm(rho)
    assert np.array_equal(result.state(), rho / complex(np.trace(rho)))
    t = np.linspace(0.0, 4.0, 9)
    traj = evolve_markov(liouv, excited(d), t)
    assert np.array_equal(traj.states, dense_trajectory(liouv.data, excited(d), t))



@pytest.mark.parametrize("d", [3, 5])
def test_steps_of_one_relative_size_share_an_exponential(d):
    # the per-step loop of keys round(dt / span, 15), one exponential per
    # key taken at its first step, as a bit reference; 0.6 - 0.5 rounds
    # to the key of 0.1
    liouv = liouvillian(spectra(d)["generic"], "redfield-in")
    t = np.array([0.0, 0.1, 0.2, 0.5, 0.6, 0.9, 1.7, 1.8])
    props, vecs = {}, [excited(d).ravel()]
    for dt in np.diff(t):
        prop = props.setdefault(round(dt / (t[-1] - t[0]), 15), expm(liouv.data * dt))
        vecs.append(prop @ vecs[-1])
    assert len(props) == 3
    traj = evolve_markov(liouv, excited(d), t)
    assert np.array_equal(traj.states, np.array(vecs).reshape(len(t), d, d))
