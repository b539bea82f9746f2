"""Blockwise steady states and propagation against the dense formulas.

Covariant generators (energy-conserving, lindblad) split into blocks of
level pairs that share a Bohr frequency; `steady_state` and
`evolve_markov` then work per block.  Each test here recomputes the
dense result inline (one SVD of the whole generator, one exponential of
the whole generator) and compares.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from qmekit.bath import thermal_ohmic_spectrum
from qmekit.core import (
    DensityMatrix,
    InvariantError,
    Superoperator,
    bohr_frequencies,
    build_spectrum,
    hermitian_channel,
)
import qmekit.core as core
import qmekit.dynamics as dynamics
from qmekit.dynamics import (
    block_structure_report,
    build_liouvillian,
    evolve_markov,
    steady_state,
)
from qmekit.kernels import VARIANT_TAGS, build_kernel
from conftest import unique_state

COVARIANT = ("energy-conserving", "lindblad")


def dense_null(liouv):
    """Singular values (descending), cutoff and null rows of one dense SVD
    of the generator; the cutoff is 16 m eps sigma_max, m the size of its
    largest block."""
    _, svals, vh = np.linalg.svd(liouv.data)
    m = max(idx.shape[1] for idx, _ in liouv.blocks)
    cut = 16 * m * np.finfo(float).eps * svals[0]
    return svals, cut, vh[svals <= cut].conj()


def dense_trajectory(data, rho0, t, double=False):
    """One exponential P of the whole generator for the uniform grid t,
    and the states filled as evolve_markov fills one block's stretch of
    equal steps: one product per step, or by doubling, P^s applied to the
    s states already filled with P^s squared after each product.  P is
    dynamics.expm's, so the filling can be compared bit for bit."""
    n = len(t) - 1
    prop = dynamics.expm(data * (t[1] - t[0]))
    vecs = np.empty((len(t), data.shape[0]), dtype=complex)
    vecs[0] = np.ravel(rho0)
    cols = vecs.T                      # states as columns
    if double:
        s = 1
        while s <= n:
            c = min(s, n + 1 - s)
            np.matmul(prop, cols[:, :c], out=cols[:, s:s + c])
            s += c
            prop = prop @ prop
    else:
        for k in range(n):
            np.matmul(prop, cols[:, k:k + 1], out=cols[:, k + 1:k + 2])
    return vecs.reshape(len(t), *np.shape(rho0))


def excited(d):
    rho = np.zeros((d, d), dtype=complex)
    rho[-1, -1] = 1.0
    return rho


def assert_matches_dense(liouv):
    """steady_state(liouv) equals the dense SVD's answer to 1e-12."""
    svals, cut, null = dense_null(liouv)
    try:
        doc = steady_state(liouv)
    except InvariantError:
        # the dense decision must fail the same way: no null vector or no gap
        mult = int(np.sum(svals <= cut))
        assert mult == 0 or (mult < len(svals) and svals[-mult - 1] <= 10 * cut)
        return
    scale = svals[0]
    assert doc["multiplicity"] == len(null)
    assert abs(doc["threshold"] - cut) <= 1e-12 * cut
    small = svals[::-1][: len(doc["singular_values"])]
    assert np.max(np.abs(doc["singular_values"] - small)) <= 1e-12 * scale
    # every state lies in the dense null space.  Either SVD fixes that
    # space only to about eps ||L|| / sigma_gap (Wedin), so a small gap
    # (1e-5 ||L|| on one box system) widens the 1e-12 tolerance
    gap = svals[-len(null) - 1] if len(null) < len(svals) else scale
    tol = max(1e-12, 16 * np.finfo(float).eps * scale / gap)
    basis, _ = np.linalg.qr(null.T)
    vs = np.array([s["matrix"].ravel() / np.linalg.norm(s["matrix"])
                   for s in doc["states"]]).T
    assert np.max(np.linalg.norm(vs - basis @ (basis.conj().T @ vs), axis=0)) < tol
    # ... and the states span all of it
    assert np.linalg.matrix_rank(vs) == len(null)
    if len(null) == 1:
        rho = null[0].reshape(liouv.dim, liouv.dim)
        rho = (rho + rho.conj().T) / 2
        assert np.max(np.abs(unique_state(doc) - rho / np.trace(rho))) < tol


def kernel(levels, variant, seed=0, coupling=None):
    """Spectrum and kernel of one hermitian channel: the given coupling,
    or a dense random one drawn from seed."""
    spectrum = build_spectrum(levels)
    d = spectrum.dim
    if coupling is None:
        rng = np.random.default_rng(seed)
        m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
        coupling = m + m.conj().T
    bath = thermal_ohmic_spectrum(0.28, 5.0, 2.0)
    return spectrum, build_kernel(spectrum, hermitian_channel(coupling), bath, variant)


def liouvillian(levels, variant, seed=0, coupling=None):
    """Generator of :func:`kernel`'s kernel."""
    return build_liouvillian(*kernel(levels, variant, seed, coupling))


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
    assert steady_state(liouv)["multiplicity"] == d
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
    svals, cut, null = dense_null(liouv)
    doc = steady_state(liouv)
    assert np.array_equal(doc["singular_values"], svals[::-1][: max(len(null) + 2, 4)])
    rho = null[0].reshape(d, d)
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.linalg.norm(rho)
    assert np.array_equal(unique_state(doc), rho / complex(np.trace(rho)))
    # 8 steps take one product each and 64 steps are filled by doubling
    for n in (8, 64):
        t = np.linspace(0.0, 4.0, n + 1)
        traj = evolve_markov(liouv, excited(d), t)
        want = dense_trajectory(liouv.data, excited(d), t, double=n == 64)
        assert np.array_equal(traj.states, want)


@pytest.mark.parametrize("d", [3, 5])
def test_steps_of_one_relative_size_share_an_exponential(d):
    # the per-step loop of keys round(dt / span, 15), one exponential
    # (dynamics.expm) per key taken at its first step, as a bit reference;
    # 0.6 - 0.5 rounds to the key of 0.1
    liouv = liouvillian(spectra(d)["generic"], "redfield-in")
    t = np.array([0.0, 0.1, 0.2, 0.5, 0.6, 0.9, 1.7, 1.8])
    props, vecs = {}, [excited(d).ravel()]
    for dt in np.diff(t):
        prop = props.setdefault(round(dt / (t[-1] - t[0]), 15),
                               dynamics.expm(liouv.data * dt))
        vecs.append(prop @ vecs[-1])
    assert len(props) == 3
    traj = evolve_markov(liouv, excited(d), t)
    assert np.array_equal(traj.states, np.array(vecs).reshape(len(t), d, d))


def pure_state(d, seed=0):
    """A random pure state: coherences on every pair."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("variant, d", [
    ("energy-conserving", 6),      # 30 one-pair blocks and the 6-pair zero bin
    ("redfield-in", 4),            # one block of m = 16, 36, 144, 256 pairs
    ("redfield-in", 6),
    ("redfield-in", 12),
    ("redfield-in", 16),
])
def test_stretches_match_the_exponential_at_every_time(variant, d, n):
    # blocks of up to 36 pairs are filled by doubling, those of 144 and
    # 256 by one product per step; checked against expm(L t_k) rho0 at the
    # first steps, every 25th and the last
    liouv = liouvillian(spectra(d)["generic"], variant)
    t = np.linspace(0.0, 10.0, n + 1)
    rho0 = pure_state(d)
    traj = evolve_markov(liouv, rho0, t)
    assert traj.method == "expm"
    for k in sorted({*range(18), *range(0, n + 1, 25), n}):
        want = expm(liouv.data * t[k]) @ rho0.ravel()
        assert np.max(np.abs(traj.states[k].ravel() - want)) < 1e-13, k


def test_stretches_and_a_random_tail_match_the_exponential():
    # harmonic d=12 has twelve size groups (1 .. 12 pairs); the grid has
    # stretches of 40, 30 and 20 equal steps, the last of the first
    # stretch's size, then 15 random steps
    d = 12
    liouv = liouvillian(0.25 * np.arange(d), "energy-conserving")
    assert [idx.shape[1] for idx, _ in liouv.blocks] == list(range(1, d + 1))
    tail = np.random.default_rng(2).uniform(0.01, 0.2, 15)
    t = np.cumsum(np.concatenate([[0.0], np.full(40, 0.1), np.full(30, 0.05),
                                  np.full(20, 0.1), tail]))
    rho0 = pure_state(d)
    traj = evolve_markov(liouv, rho0, t)
    want = expm(liouv.data * t[:, None, None]) @ rho0.ravel()
    assert np.max(np.abs(traj.states.reshape(len(t), -1) - want)) < 1e-13


def test_propagator_memory_does_not_grow_with_distinct_steps():
    # a d=8 one-block generator: one 64 x 64 propagator per distinct step;
    # holding all 500 of a random grid at once peaked at 29x the uniform one
    liouv = liouvillian(spectra(8)["generic"], "redfield-in")
    t_random = np.concatenate(
        [[0.0], np.cumsum(np.random.default_rng(1).uniform(0.004, 0.04, 500))])
    peaks = {}
    for name, t in (("uniform", np.linspace(0.0, t_random[-1], 501)),
                    ("random", t_random)):
        tracemalloc.start()
        traj = evolve_markov(liouv, excited(8), t)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["random"] <= 2 * peaks["uniform"], peaks
    props = expm(liouv.data * np.diff(t_random)[:, None, None])    # one per step
    vec, err = excited(8).ravel(), 0.0
    for state, prop in zip(traj.states[1:], props):
        vec = prop @ vec
        err = max(err, np.max(np.abs(state.ravel() - vec)))
    assert err < 1e-12


def reference_blocks(data):
    """Size groups of the nonzero pattern's components from scipy's graph
    search: blocks by size, then by their smallest pair index."""
    _, labels = connected_components(csr_array(data != 0), directed=False)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == m][:, None] + np.arange(m)] for m in np.unique(sizes)]


def assert_same_groups(got, want):
    assert len(got) == len(want)
    for (idx, vals), (ref_idx, ref_vals) in zip(got, want):
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(vals, ref_vals)


def assert_blocks_of_own_data(liouv):
    """The blocks a covariant builder hands over are those scipy's graph
    search finds in the scattered matrix: same groups, same order, same
    bits."""
    data = liouv.data
    assert_same_groups(liouv.blocks, [(i, data[i[:, :, None], i[:, None, :]])
                                      for i in reference_blocks(data)])


def test_covariant_blocks_equal_the_dense_scan_on_the_box(system_box):
    for spectrum, couplings, bath in system_box:
        for variant in COVARIANT:
            k = build_kernel(spectrum, couplings, bath, variant)
            assert_blocks_of_own_data(build_liouvillian(spectrum, k))


@pytest.mark.parametrize("d", [16, 24, 32])
@pytest.mark.parametrize("family", ["generic", "harmonic"])
def test_covariant_blocks_equal_the_dense_scan_above_the_box(d, family):
    for variant in COVARIANT:
        assert_blocks_of_own_data(liouvillian(spectra(d)[family], variant))


def bin_groups(label):
    """The bins of label.ravel() as size groups of flat pairs: ascending
    size, then by smallest pair, each bin's pairs ascending."""
    bins = sorted((np.flatnonzero(label.ravel() == b) for b in np.unique(label)),
                  key=lambda pairs: (pairs.size, pairs[0]))
    return [np.array([b for b in bins if b.size == m]) for m in sorted({b.size for b in bins})]


@pytest.mark.parametrize("seed", range(6))
def test_from_terms_adds_each_term_into_its_bin_like_the_dense_sum(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    label = rng.integers(0, int(rng.integers(1, d * d + 1)), (d, d))
    bins = [np.flatnonzero(label.ravel() == b) for b in np.unique(label)]
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        # a few slots per bin drawn many times, so slots repeat within and
        # across terms, at magnitudes where the order of the sum shows
        pick = rng.integers(0, len(bins), int(rng.integers(1, 4 * d * d)))
        rows = np.array([rng.choice(bins[b]) for b in pick])
        cols = np.array([rng.choice(bins[b]) for b in pick])
        vals = ((rng.standard_normal(pick.size) + 1j * rng.standard_normal(pick.size))
                * 10.0 ** rng.integers(-8, 9, pick.size))
        terms.append((rows, cols, vals))
    n = d * d
    want = np.zeros((n, n), dtype=complex)
    for rows, cols, vals in terms:
        np.add.at(want, (rows, cols), vals)
    # a last term cancels one slot exactly, which reads +0.0
    r, c = terms[0][0][0], terms[0][1][0]
    terms.append((np.array([r]), np.array([c]), -want[r, c][None]))
    want[r, c] = 0.0
    k = Superoperator.from_terms(d, label, terms)
    assert k.data.tobytes() == want.tobytes()          # bit for bit
    assert not np.signbit(k.data[r, c].real) and not np.signbit(k.data[r, c].imag)
    groups = bin_groups(label)
    assert len(k.blocks) == len(groups)
    for (idx, vals), ref in zip(k.blocks, groups):
        assert np.array_equal(idx, ref)
        assert np.array_equal(vals, want[ref[:, :, None], ref[:, None, :]])


def ladder(d):
    """Oscillator coupling a + a^dagger, a = sum_n sqrt(n) |n-1><n|."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    return a + a.T


@pytest.mark.parametrize("variant", COVARIANT)
def test_sparse_coupling_keeps_whole_bins(variant):
    # S = |0><2| + h.c. on a harmonic ladder couples levels 0 and 2 only;
    # every bin stays one whole block, its uncoupled pairs inside
    d = 6
    levels = 0.25 * np.arange(d)
    s = np.zeros((d, d))
    s[0, 2] = s[2, 0] = 1.0
    liouv = liouvillian(levels, variant, coupling=s)
    label = bohr_frequencies(build_spectrum(levels))[1]
    assert [idx.tolist() for idx, _ in liouv.blocks] == [g.tolist() for g in bin_groups(label)]
    assert_matches_dense(liouv)
    t = np.linspace(0.0, 10.0, 21)
    rho0 = np.full((d, d), 1.0 / d, dtype=complex)
    traj = evolve_markov(liouv, rho0, t)
    assert traj.method == "expm"
    assert np.max(np.abs(traj.states - dense_trajectory(liouv.data, rho0, t))) < 1e-12


@pytest.mark.parametrize("d", [5, 17])
def test_split_pattern_redfield_runs_as_one_block(d):
    # the oscillator ladder on harmonic levels splits redfield's pattern;
    # the dense generator is still one block over all d^2 pairs
    liouv = liouvillian(0.25 * np.arange(d), "redfield-in", coupling=ladder(d))
    (idx, _), = liouv.blocks
    assert idx.shape == (1, d * d)
    t = np.linspace(0.0, 4.0, 9)
    traj = evolve_markov(liouv, excited(d), t)
    want = dense_trajectory(liouv.data, excited(d), t)
    if d <= dynamics.EXPM_DIM_LIMIT:
        assert traj.method == "expm"
        assert np.array_equal(traj.states, want)
        assert_matches_dense(liouv)
    else:
        assert traj.method == "rk"
        assert np.max(np.abs(traj.states - want)) < 1e-8


def test_covariant_build_stays_near_its_blocks():
    # harmonic d=128: 22 MB of blocks and 117 MB at peak; sorting every
    # entry and searching the blocks again peaked at 229 MB
    d = 128
    spectrum = build_spectrum(0.25 * np.arange(d))
    m = np.random.default_rng(0).standard_normal((d, d))
    couplings = hermitian_channel(m + m.T)
    bath = thermal_ohmic_spectrum(0.28, 5.0, 2.0)
    tracemalloc.start()
    try:
        build_kernel(spectrum, couplings, bath, "energy-conserving")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6, peak


def test_dense_kernels_keep_their_one_block():
    # redfield connects every pair; its one block is the dense matrix itself
    liouv = liouvillian(spectra(5)["generic"], "redfield-in")
    (idx, vals), = liouv.blocks
    assert np.array_equal(idx, np.arange(25)[None])
    assert np.shares_memory(liouv.data, vals)


def test_covariant_runs_stay_below_one_dense_kernel():
    # d=48 generic: one d^4 complex array is 85 MB; the block forms of
    # both covariant generators never build it
    d = 48
    t = np.linspace(0.0, 5.0, 11)
    tracemalloc.start()
    try:
        for variant in COVARIANT:
            liouv = liouvillian(spectra(d)["generic"], variant)
            steady_state(liouv)
            evolve_markov(liouv, excited(d), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d ** 4, peak


def degenerate_kernel(d, variant):
    """A 17-fold degenerate level at 0 under d - 17 levels drawn from
    0.5 + 3.5 U(0, 1), a random hermitian coupling of rms entry 1/2 and
    a thermal-ohmic bath (0.2, 5, beta 1): the zero bin holds
    17^2 + (d - 17) pairs, more than EXPM_DIM_LIMIT**2 from d = 17 on."""
    rng = np.random.default_rng(0)
    levels = np.concatenate([np.zeros(17), np.sort(0.5 + 3.5 * rng.uniform(size=d - 17))])
    spectrum = build_spectrum(levels)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bath = thermal_ohmic_spectrum(0.2, 5.0, 1.0)
    k = build_kernel(spectrum, hermitian_channel((a + a.conj().T) / 4), bath, variant)
    return spectrum, k


def counting(monkeypatch, name):
    """Wrap dynamics.<name> and return the list of its call arguments."""
    calls, fn = [], getattr(dynamics, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, wrapped)
    return calls


@pytest.mark.parametrize("variant", COVARIANT)
def test_only_the_oversized_bin_is_integrated(monkeypatch, variant):
    # d=24: the zero bin's 296 pairs take DOP853, every other bin expm;
    # integrating the whole generator passed all 576 pairs
    d = 24
    liouv = build_liouvillian(*degenerate_kernel(d, variant))
    assert liouv.blocks[-1][0].shape == (1, 17 ** 2 + d - 17)
    calls = counting(monkeypatch, "solve_ivp")
    t = np.linspace(0.0, 10.0, 51)
    rho0 = excited(d)
    traj = evolve_markov(liouv, rho0, t)
    assert [args[2].shape for args in calls] == [(296,)]
    assert traj.method == "rk"
    assert np.max(np.abs(traj.states - dense_trajectory(liouv.data, rho0, t))) < 1e-8


def test_size_groups_pick_their_own_propagator(monkeypatch):
    # harmonic d=8 has bins of 1 .. 8 pairs; with EXPM_DIM_LIMIT = 2 the
    # groups of up to 4 pairs take expm and the larger ones DOP853
    monkeypatch.setattr(dynamics, "EXPM_DIM_LIMIT", 2)
    d = 8
    liouv = liouvillian(0.25 * np.arange(d), "energy-conserving")
    assert [idx.shape[1] for idx, _ in liouv.blocks] == list(range(1, d + 1))
    expms, odes = counting(monkeypatch, "expm"), counting(monkeypatch, "solve_ivp")
    t = np.linspace(0.0, 10.0, 41)
    rho0 = np.full((d, d), 1.0 / d, dtype=complex)
    traj = evolve_markov(liouv, rho0, t)
    assert {args[0].shape[-1] for args in expms} == {1, 2, 3, 4}
    # one ODE per larger group: two bins (+-omega) of 5, 6 and 7 pairs,
    # and the 8-pair zero bin
    assert [args[2].size for args in odes] == [2 * 5, 2 * 6, 2 * 7, 8]
    assert traj.method == "rk"
    assert np.max(np.abs(traj.states - dense_trajectory(liouv.data, rho0, t))) < 1e-8


def test_oversized_bin_propagates_without_the_dense_generator():
    # d=48: the 320-pair zero bin alone goes through DOP853 (17 MB at
    # peak); integrating all 2304 pairs with the dense generator took 93 MB
    d = 48
    liouv = build_liouvillian(*degenerate_kernel(d, "energy-conserving"))
    t = np.linspace(0.0, 10.0, 51)
    tracemalloc.start()
    try:
        traj = evolve_markov(liouv, excited(d), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.method == "rk"
    assert peak < 60e6, peak


def exponential_trajectory(liouv, rho0, t):
    """expm(L t_k) rho0 at every time of t."""
    return (expm(liouv.data * t[:, None, None]) @ rho0.ravel()).reshape(len(t), *rho0.shape)


def bohr_label(liouv):
    """Each pair's block, numbered over the size groups: its Bohr bin for
    a covariant generator."""
    label, start = np.empty(liouv.dim ** 2, dtype=int), 0
    for idx, _ in liouv.blocks:
        label[idx] = start + np.arange(len(idx))[:, None]
        start += len(idx)
    return label


def test_a_population_start_exponentiates_the_zero_bin_alone(monkeypatch):
    # harmonic d=12 has twelve size groups (1 .. 12 pairs); an excited
    # state occupies only the 12-pair zero bin, so the other 22 bins take
    # no exponential and their entries stay exactly 0
    d = 12
    liouv = liouvillian(0.25 * np.arange(d), "energy-conserving")
    expms = counting(monkeypatch, "expm")
    t = np.linspace(0.0, 10.0, 41)
    traj = evolve_markov(liouv, excited(d), t)
    assert [args[0].shape for args in expms] == [(1, 1, d, d)]
    assert traj.method == "expm"
    assert not traj.states[:, ~np.eye(d, dtype=bool)].any()
    assert np.max(np.abs(traj.states - exponential_trajectory(liouv, excited(d), t))) < 1e-12


def coherent_pair(d, p, q, both=True):
    """Populations 1/2 on p and q and the coherence rho_pq = 0.2, with its
    mirror rho_qp unless both is False."""
    rho = np.zeros((d, d), dtype=complex)
    rho[p, p] = rho[q, q] = 0.5
    rho[p, q] = 0.2
    if both:
        rho[q, p] = 0.2
    return rho


@pytest.mark.parametrize("t", [np.linspace(0.0, 10.0, 41),
                               np.array([0.0, 0.3, 0.5, 1.1, 2.0, 2.4])])
def test_one_bin_of_a_mirrored_pair_propagates_as_with_both(monkeypatch, t):
    # harmonic d=6: (4, 5) lies in the 5-pair bin of omega = 0.25, (5, 4)
    # in that of -0.25, one size group.  Occupying the omega bin alone (a
    # state hermitian only within tol_herm = inf) gives it and the zero
    # bin the bits they take when both bins are occupied; every block
    # the state leaves empty stays exactly 0
    d = 6
    liouv = liouvillian(0.25 * np.arange(d), "energy-conserving")
    both = evolve_markov(liouv, coherent_pair(d, 4, 5), t)
    monkeypatch.setattr(core, "TOL_HERM", np.inf)
    one = evolve_markov(liouv, coherent_pair(d, 4, 5, both=False), t)
    label = bohr_label(liouv).reshape(d, d)
    zero_bin, up, down = label[0, 0], label[4, 5], label[5, 4]
    for traj, occupied in ((both, (zero_bin, up, down)), (one, (zero_bin, up))):
        empty = ~np.isin(label, occupied)
        assert not traj.states[:, empty].any()
    kept = np.isin(label, (zero_bin, up))
    assert np.array_equal(one.states[:, kept], both.states[:, kept])
    want = exponential_trajectory(liouv, coherent_pair(d, 4, 5), t)
    assert np.max(np.abs(both.states - want)) < 1e-12


def test_the_ode_takes_only_the_occupied_blocks(monkeypatch):
    # harmonic d=8 with EXPM_DIM_LIMIT = 2: blocks of up to 4 pairs take
    # expm, larger ones DOP853.  (|0> + |6> + |7>)/sqrt(3) occupies the
    # zero bin (8 pairs), the bins of +-0.25 (7 pairs each), +-1.5 (2 each)
    # and +-1.75 (1 each); the bins of 3 to 6 pairs stay empty
    monkeypatch.setattr(dynamics, "EXPM_DIM_LIMIT", 2)
    d = 8
    liouv = liouvillian(0.25 * np.arange(d), "energy-conserving")
    psi = np.zeros(d)
    psi[[0, 6, 7]] = 1 / np.sqrt(3)
    rho0 = np.outer(psi, psi).astype(complex)
    expms, odes = counting(monkeypatch, "expm"), counting(monkeypatch, "solve_ivp")
    t = np.linspace(0.0, 10.0, 41)
    traj = evolve_markov(liouv, rho0, t)
    assert [args[0].shape[1:] for args in expms] == [(2, 1, 1), (2, 2, 2)]
    assert [args[2].size for args in odes] == [2 * 7, 8]
    assert traj.method == "rk"
    label = bohr_label(liouv).reshape(d, d)
    empty = ~np.isin(label, label[rho0 != 0])
    assert not traj.states[:, empty].any()
    assert np.max(np.abs(traj.states - exponential_trajectory(liouv, rho0, t))) < 1e-8


def holds_the_zero_bin(superop):
    """Whether one block of the last size group holds every population."""
    d = superop.dim
    return any(set(range(0, d * d, d + 1)) <= set(row) for row in superop.blocks[-1][0].tolist())


def test_the_last_size_group_holds_the_zero_bin(system_box):
    # every state occupies the zero bin, so the method label, read from
    # the last (largest) size group, names a path that ran
    for variant in COVARIANT:
        for spectrum, couplings, bath in system_box:
            assert holds_the_zero_bin(build_kernel(spectrum, couplings, bath, variant))
        assert holds_the_zero_bin(degenerate_kernel(24, variant)[1])
        assert holds_the_zero_bin(kernel(0.25 * np.arange(12), variant)[1])


def dense_cross_entries(k, threshold=1e-12):
    """Cross entries of block_structure_report as a scan of the dense
    (d, d, d, d) tensor: C order, couplings into populations first."""
    d = k.dim
    t = k.data.reshape(d, d, d, d)
    rng = np.arange(d)
    off = rng[:, None] != rng[None, :]
    rows, cols = t[rng, rng], t[:, :, rng, rng]   # K[pp, qq'], K[pp', qq]
    into_pop = np.hypot(rows.real, rows.imag)     # [p, q, q']
    from_pop = np.hypot(cols.real, cols.imag)     # [p, p', q]
    into = [{"row": [p, p], "col": [q, q2], "abs_value": float(into_pop[p, q, q2])}
            for p, q, q2 in np.argwhere((into_pop > threshold) & off[None]).tolist()]
    out = [{"row": [p, p2], "col": [q, q], "abs_value": float(from_pop[p, p2, q])}
           for p, p2, q in np.argwhere((from_pop > threshold) & off[:, :, None]).tolist()]
    return into + out


def assert_report_matches_dense(spectrum, k):
    """The block read lists the dense scan's cross entries: same pairs,
    same order, same bits."""
    want = dense_cross_entries(k)
    rep = block_structure_report(spectrum, k)
    assert rep["cross_entries"] == want
    rows = [e["row"] for e in want]
    assert rep["coherences_feed_populations"] == any(p == p2 for p, p2 in rows)
    assert rep["populations_feed_coherences"] == any(p != p2 for p, p2 in rows)
    return want


def test_block_report_matches_the_dense_scan_on_the_box(system_box):
    crossed = 0
    for spectrum, couplings, bath in system_box:
        for variant in VARIANT_TAGS:
            k = build_kernel(spectrum, couplings, bath, variant, omega=0.0)
            crossed += bool(assert_report_matches_dense(spectrum, k))
    assert crossed > 0


@pytest.mark.parametrize("variant", COVARIANT)
def test_block_report_matches_the_dense_scan_on_a_degenerate_ladder(variant):
    # harmonic d=24 with levels 11 and 12 degenerate: the zero bin joins
    # their coherences to the populations
    levels = 0.25 * np.arange(24)
    levels[12] = levels[11]
    assert assert_report_matches_dense(*kernel(levels, variant))


def test_block_report_matches_the_dense_scan_on_one_block():
    # redfield-in at d=12 couples every pair: one block over all of them
    assert assert_report_matches_dense(*kernel(spectra(12)["generic"], "redfield-in"))


def test_block_report_reads_no_dense_kernel():
    # generic lindblad at d=64: a d^4 complex array is 268 MB, and the
    # population pairs sit in one 64 x 64 block
    spectrum, k = kernel(spectra(64)["generic"], "lindblad")
    tracemalloc.start()
    try:
        rep = block_structure_report(spectrum, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert rep["cross_entries"] == []
