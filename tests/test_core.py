"""Spectrum validation, Bohr binning, superoperator index conventions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmekit.bath import flat_spectrum
from qmekit.core import (
    DensityMatrix,
    CouplingChannelSet,
    InputError,
    InvariantError,
    Superoperator,
    bohr_frequencies,
    build_spectrum,
    decompose_jump_operators,
    default_degeneracy_tol,
    hermitian_channel,
    ladder_channels,
    lrmul,
)
from qmekit.dynamics import block_structure_report, build_liouvillian, evolve_markov
from qmekit.kernels import build_kernel, trace_condition_residual
from conftest import make_system, reference_bohr_bins, reference_jump_stack

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_mul_superoperators_match_direct_products():
    rng = np.random.default_rng(3)
    d = 4
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.allclose((lrmul(a, b) @ rho.ravel()).reshape(d, d), a @ rho @ b,
                       atol=1e-13)


def test_build_spectrum_rejects_bad_input():
    with pytest.raises(InputError):
        build_spectrum([])
    with pytest.raises(InputError):
        build_spectrum([1.0, 0.0])
    with pytest.raises(InputError):
        build_spectrum([0.0, np.inf])
    with pytest.raises(InputError):
        build_spectrum([0.0, 1.0], eps_deg=-1.0)
    with pytest.raises(InputError):
        build_spectrum([0.0, 1.0], labels=("only-one",))


def test_degeneracy_classes_snap_to_mean():
    spec = build_spectrum([0.0, 1e-12, 1.0], eps_deg=1e-9)
    assert len(spec.class_energy) == 2
    assert spec.class_of.tolist() == [0, 0, 1]
    assert spec.snapped[0] == spec.snapped[1] == 5e-13
    # snapped energies make the zero Bohr bin exact for the pair
    assert spec.bohr_matrix()[0, 1] == 0.0


def test_ambiguous_chaining_rejected():
    eps = 1e-6
    with pytest.raises(InputError, match="ambiguous"):
        build_spectrum([0.0, 0.8 * eps, 1.6 * eps, 1.0], eps_deg=eps)


def bins_by_omega(omegas, label):
    """{omega: set of ordered pairs (p, q)} read off a bin-label array."""
    return {float(w): set(map(tuple, np.argwhere(label == b).tolist()))
            for b, w in enumerate(omegas)}


def test_bohr_bins_three_level_enumeration():
    spec = build_spectrum([0.0, 0.3, 1.0])
    omegas, label = bohr_frequencies(spec)
    # differences 0, +-0.3, +-0.7, +-1.0
    assert omegas.tolist() == [-1.0, -0.7, -0.3, 0.0, 0.3, 0.7, 1.0]
    by_omega = bins_by_omega(omegas, label)
    assert by_omega[0.0] == {(0, 0), (1, 1), (2, 2)}
    # pair (p, q) sits at omega = E_q - E_p
    assert by_omega[0.3] == {(0, 1)}
    assert by_omega[-0.3] == {(1, 0)}
    assert by_omega[1.0] == {(0, 2)}


def test_bohr_bins_merge_coincident_differences():
    # 0-1 and 1-2 gaps are both exactly 0.5: one bin holds both pairs
    spec = build_spectrum([0.0, 0.5, 1.0])
    bins = bins_by_omega(*bohr_frequencies(spec))
    assert bins[0.5] == {(0, 1), (1, 2)}
    assert bins[1.0] == {(0, 2)}


def test_ambiguous_bohr_chaining_rejected():
    # distinct gaps 1, 1 + 0.8 eps, 1 + 1.6 eps chain through neighbours
    # within eps but spread over 1.6 eps
    eps = 1e-6
    spec = build_spectrum([0.0, 1.0, 2.0 + 0.8 * eps, 3.0 + 2.4 * eps], eps_deg=eps)
    with pytest.raises(InputError, match="chain") as first:
        bohr_frequencies(spec)
    # nothing is cached for an ambiguous spectrum: every call raises alike
    with pytest.raises(InputError) as again:
        bohr_frequencies(spec)
    assert str(again.value) == str(first.value)


def test_bohr_bins_are_computed_once_and_read_only():
    spec = build_spectrum([0.0, 1.0, 2.5, 2.5])
    omegas, label = bohr_frequencies(spec)
    assert bohr_frequencies(spec)[0] is omegas and bohr_frequencies(spec)[1] is label
    for arr in (omegas, label):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def reference_classes(levels, eps):
    """Degeneracy classes by the per-level chaining loop: (class_of,
    class_energy), or the text of the ambiguity error."""
    class_of = np.zeros(levels.size, dtype=int)
    for n in range(1, levels.size):
        class_of[n] = class_of[n - 1] + (1 if levels[n] - levels[n - 1] > eps else 0)
    energy = np.array([levels[class_of == c].mean() for c in range(class_of[-1] + 1)])
    for c in range(class_of[-1] + 1):
        members = levels[class_of == c]
        span = members[-1] - members[0]
        if span > eps:
            return (f"degeneracy chaining is ambiguous: levels {members.tolist()} "
                    f"chain within eps_deg={eps:g} but spread over {span:g}")
    return class_of, energy


# clusters of up to 12 levels (np.mean sums more than 8 values pairwise),
# inner gaps near eps so that some chains spread too wide
clusters = st.lists(st.tuples(st.integers(min_value=1, max_value=12),
                              st.sampled_from([0.0, 1e-10, 3e-10, 6e-10, 1e-9]),
                              st.sampled_from([1e-9, 0.3, 1.0])), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), clusters,
       st.sampled_from([0.0, 5e-10, 1e-9]))
def test_classes_match_the_chaining_loop_bit_for_bit(base, clusters, eps):
    gaps = [g for k, inner, outer in clusters for g in [inner] * (k - 1) + [outer]]
    levels = base + np.cumsum([0.0] + gaps)
    want = reference_classes(levels, eps)
    if isinstance(want, str):
        with pytest.raises(InputError) as err:
            build_spectrum(levels, eps_deg=eps)
        assert str(err.value) == want
    else:
        spec = build_spectrum(levels, eps_deg=eps)
        assert np.array_equal(spec.class_of, want[0])
        assert spec.class_energy.tobytes() == want[1].tobytes()


def test_class_lists_split_like_the_per_class_scan(system_box):
    # classes() splits arange(d) where class_of steps; the reference
    # scans class_of once per class
    spectra = [spec for spec, _, _ in system_box]
    rng = np.random.default_rng(0)
    for d in (1, 2, 5, 17, 18, 33, 64):
        for _ in range(3):
            sizes = [17] if d >= 17 else []
            while sum(sizes) < d:
                sizes.append(int(rng.integers(1, 18)))
            sizes[-1] -= sum(sizes) - d
            rng.shuffle(sizes)
            gaps = np.cumsum(rng.uniform(0.1, 1.0, len(sizes)))
            spectra.append(build_spectrum(np.repeat(gaps, sizes)))
    assert max(max(map(len, spec.classes())) for spec in spectra) == 17
    for spec in spectra:
        got = spec.classes()
        want = [np.flatnonzero(spec.class_of == c) for c in range(len(spec.class_energy))]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


dyadic_levels = st.lists(
    st.integers(min_value=-128, max_value=128), min_size=2, max_size=6
).map(lambda ticks: np.sort(np.array(ticks)) / 64.0)


@settings(max_examples=60, deadline=None)
@given(dyadic_levels)
def test_bohr_bins_exactly_mirror_symmetric(levels):
    spec = build_spectrum(levels)
    omegas, label = bohr_frequencies(spec)
    by_omega = bins_by_omega(omegas, label)
    assert len(by_omega) == len(omegas)
    for w, pairs in by_omega.items():
        assert -w in by_omega
        assert by_omega[-w] == {(q, p) for (p, q) in pairs}
    # every ordered pair lands in exactly one bin, and no bin is empty
    assert sum(len(pairs) for pairs in by_omega.values()) == spec.dim ** 2
    assert np.array_equal(np.unique(label), np.arange(len(omegas)))


@settings(max_examples=40, deadline=None)
@given(dyadic_levels, st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_jump_decomposition_complete_and_adjoint_paired(levels, seed):
    spec = build_spectrum(levels)
    rng = np.random.default_rng(seed)
    d = spec.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    couplings = ladder_channels(m)
    jumps = decompose_jump_operators(spec, couplings)
    adj = couplings.adjoint_map
    for a in range(couplings.n_channels):
        ops = [jumps.operator(omega, a) for omega in jumps.omegas]
        # bins partition the entries, so the sum is bitwise exact
        assert np.array_equal(np.sum(ops, axis=0), couplings.matrices[a])
        for omega, op in zip(jumps.omegas, ops):
            assert np.array_equal(op.conj().T, jumps.operator(-omega, adj[a]))


@pytest.mark.parametrize("levels", [
    np.arange(-8, 9) / 16.0,                                 # harmonic d=17
    np.sort(np.random.default_rng(2).uniform(0.0, 4.0, 20)),  # generic d=20
    np.repeat(np.arange(5), 2) / 4.0,                        # degenerate pairs
    [0.0],
    0.1 * np.arange(12),                                     # inexact harmonic
    0.25 * np.arange(9),
])
def test_jump_decomposition_equals_per_pair_loop(levels):
    spec = build_spectrum(levels)
    d = spec.dim
    rng = np.random.default_rng(d)
    couplings = ladder_channels(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
    bins = reference_bohr_bins(spec)
    omegas, label = bohr_frequencies(spec)
    assert np.array_equal(omegas, [omega for omega, _ in bins])
    assert bins_by_omega(omegas, label) == dict(bins)
    want_omegas, want = reference_jump_stack(spec, couplings)
    jumps = decompose_jump_operators(spec, couplings)
    assert np.array_equal(jumps.omegas, want_omegas)
    assert np.array_equal(jumps.label, label)
    for b, omega in enumerate(jumps.omegas):
        for a in range(couplings.n_channels):
            assert np.array_equal(jumps.operator(omega, a), want[b, a])


def test_jump_operator_lookup():
    spec, couplings, _ = make_system(5)
    jumps = decompose_jump_operators(spec, couplings)
    w = float(jumps.omegas[1])
    op = jumps.operator(w, 0, eps=spec.eps_deg)
    assert op.shape == (spec.dim, spec.dim)
    with pytest.raises(InputError):
        jumps.bin_index(w + 0.37, spec.eps_deg)


def test_coupling_set_validation():
    s = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(InputError, match="involution"):
        CouplingChannelSet(np.stack([s, s, s.conj().T]), ("a", "b", "c"),
                           adjoint_map=(1, 2, 0))
    with pytest.raises(InputError, match="adjoint"):
        CouplingChannelSet(np.stack([s, 2 * s.conj().T]), ("a", "b"),
                           adjoint_map=(1, 0))
    lad = ladder_channels(s)
    assert lad.adjoint_map == (1, 0)
    assert np.array_equal(lad.matrices[list(lad.adjoint_map)][0], s.conj().T)
    herm = hermitian_channel(s + s.conj().T)
    assert herm.adjoint_map == (0,)


def test_density_matrix_validation():
    with pytest.raises(InputError, match="hermitian"):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(InputError, match="trace"):
        DensityMatrix(np.eye(2))
    bad = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(InputError, match="eigenvalue"):
        DensityMatrix(bad)
    rho = DensityMatrix.from_ket([3.0, 4.0])
    assert abs(rho.matrix[0, 0] - 0.36) < 1e-15
    mixed = DensityMatrix.maximally_mixed(3)
    assert abs(mixed.min_eigenvalue() - 1 / 3) < 1e-15


NON_FINITE = (np.nan, np.inf, complex(0.0, np.inf))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_validated_types_reject_non_finite_entries(bad):
    rho = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InputError, match="density matrix must be finite"):
        DensityMatrix(rho)
    s = np.array([[0.0, bad], [bad, 0.0]], dtype=complex)
    with pytest.raises(InputError, match="coupling matrices must be finite"):
        hermitian_channel(s)
    with pytest.raises(InputError, match="coupling matrices must be finite"):
        CouplingChannelSet(np.stack([s, s.conj().T]), ("a", "b"), adjoint_map=(1, 0))
    qubit = build_spectrum([0.0, 1.0])
    sx = hermitian_channel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    liouv = build_liouvillian(qubit, build_kernel(qubit, sx, flat_spectrum(1, 0.3),
                                                  "lindblad"))
    with pytest.raises(InputError, match="density matrix must be finite"):
        evolve_markov(liouv, rho, np.linspace(0.0, 1.0, 3))


def test_superoperator_reshape_consistency():
    d = 3
    rng = np.random.default_rng(11)
    data = rng.standard_normal((d * d, d * d))
    sup = Superoperator(d, data)
    t = sup.data.reshape((d,) * 4)
    for p in range(d):
        for p2 in range(d):
            for q in range(d):
                for q2 in range(d):
                    assert t[p, p2, q, q2] == data[p * d + p2, q * d + q2]
    with pytest.raises(InputError):
        Superoperator(2, np.zeros((3, 3)))


@pytest.mark.parametrize("d", [1, 2, 5])
def test_dense_data_is_stored_as_one_block(d):
    n = d * d
    data = np.random.default_rng(d).standard_normal((n, n)) + 0j
    sup = Superoperator(d, data)
    (idx, vals), = sup.blocks
    assert np.array_equal(idx, np.arange(n)[None]) and vals.shape == (1, n, n)
    assert np.shares_memory(vals, data) and np.array_equal(vals[0], data)
    assert np.shares_memory(sup.data, data) and np.array_equal(sup.data, data)
    assert sup.all_finite()
    with pytest.raises(InputError, match=f"superoperator data must be {n} x {n}"):
        Superoperator(d, np.zeros((n, n + 1)))


def test_all_finite_reads_the_blocks_whatever_the_constructor():
    data = np.zeros((4, 4), dtype=complex)
    data[1, 2] = np.nan
    assert not Superoperator(2, data).all_finite()
    (off, zeros), (pops, vals) = Superoperator.zero(2).blocks
    vals = vals.copy()
    vals[0, 1, 1] = np.nan
    assert not Superoperator(2, blocks=[(off, zeros), (pops, vals)]).all_finite()
    assert Superoperator.zero(2).all_finite()


@pytest.mark.parametrize("d", [1, 2, 5, 17])
def test_zero_is_one_group_of_one_pair_blocks(d):
    # the coherences are one group of one-pair blocks, and the d
    # populations one block after it
    n = d * d
    pairs = np.arange(n)
    *off, (pops, vals) = Superoperator.zero(d).blocks
    assert np.array_equal(pops, pairs[None, ::d + 1])
    assert vals.dtype == complex and vals.shape == (1, d, d) and not vals.any()
    if d > 1:
        (idx, vals), = off
        assert np.array_equal(idx, pairs[pairs % (d + 1) != 0, None])
        assert vals.dtype == complex and vals.shape == (n - d, 1, 1) and not vals.any()
    else:
        assert not off
    idx, vals, pop = Superoperator.zero(d).population_block()
    assert np.array_equal(idx, pairs[::d + 1]) and np.array_equal(idx[pop], idx)


def test_the_population_block_is_found_below_a_larger_block():
    # the six coherences of d = 3 in one bin, the populations in a
    # smaller block below it
    label = np.ones((3, 3), dtype=int)
    np.fill_diagonal(label, 0)
    idx, vals, pop = Superoperator.from_terms(3, label, []).population_block()
    assert np.array_equal(idx, [0, 4, 8]) and np.array_equal(pop, np.arange(3))
    assert vals.shape == (3, 3)


@pytest.mark.parametrize("seed", range(6))
def test_a_label_that_splits_the_populations_is_refused(seed):
    # random bins off the diagonal, the populations in bin 0 but one,
    # which joins some other bin (pair 0 among them)
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    label = rng.integers(1, 4, (d, d))
    np.fill_diagonal(label, 0)
    label[seed % d, seed % d] = rng.integers(1, 4)
    sup = Superoperator.from_terms(d, label, [])
    with pytest.raises(InvariantError, match="population pairs are split over blocks"):
        sup.population_block()
    with pytest.raises(InvariantError, match="split"):
        trace_condition_residual(sup)
    with pytest.raises(InvariantError, match="split"):
        block_structure_report(build_spectrum(np.arange(d)), sup)


def test_default_degeneracy_tol_scales_with_levels():
    assert default_degeneracy_tol([0.0, 2.0]) == 2e-9
    assert default_degeneracy_tol([-4.0, 1.0]) == 4e-9
