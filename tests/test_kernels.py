"""Kernel builders: shared conventions, symmetries, variant relations."""

import numpy as np
import pytest

from qmekit.bath import (
    custom_spectrum,
    flat_spectrum,
    lorentzian_spectrum,
    thermal_ohmic_spectrum,
)
from qmekit.core import (
    CouplingChannelSet,
    InputError,
    InvariantError,
    Superoperator,
    build_spectrum,
    decompose_jump_operators,
    hermitian_channel,
    ladder_channels,
    lrmul,
)
from qmekit.kernels import (
    VARIANT_TAGS,
    build_kernel,
    energy_conserving_kernel,
    kernel_difference,
    kernel_envelope,
    kernel_provenance,
    kernel_to_csv,
    kossakowski_matrix,
    lindblad_kernel,
    trace_condition_residual,
)
from qmekit.diagnostics import flip_gain_sign
from qmekit.io import fmt
from conftest import make_system, reference_jump_stack

# build_kernel reports an overflow itself, so no numpy warning may escape
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


QUBIT = build_spectrum([-0.5, 0.5])
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)

FIX3 = build_spectrum([0.0, 5 / 16, 1.0])
FIX3_COUPLING = hermitian_channel(
    np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]]))
FIX3_BATH = thermal_ohmic_spectrum(0.4, 5.0, 1.3)


def dissipator(l_op):
    """Hand-built GKLS sandwich-plus-anticommutator superoperator."""
    ld_l = l_op.conj().T @ l_op
    eye = np.eye(l_op.shape[0])
    return (lrmul(l_op, l_op.conj().T)
            - 0.5 * lrmul(ld_l, eye) - 0.5 * lrmul(eye, ld_l))


def test_flat_qubit_matches_hand_built_gkls():
    rate = 0.3
    bath = flat_spectrum(1, rate)
    couplings = hermitian_channel(SIGMA_X)
    want = rate * (dissipator(SIGMA_MINUS) + dissipator(SIGMA_MINUS.conj().T))
    k = build_kernel(QUBIT, couplings, bath, "lindblad")
    assert np.max(np.abs(k.data - want)) < 1e-15


def test_thermal_qubit_rates_follow_spectrum():
    c, lam, beta = 0.2, 5.0, 1.7
    bath = thermal_ohmic_spectrum(c, lam, beta, n_channels=2)
    couplings = ladder_channels(SIGMA_MINUS)
    gamma_down = bath.gamma(1.0)[0, 0].real
    gamma_up = bath.gamma(-1.0)[0, 0].real
    want = gamma_down * dissipator(SIGMA_MINUS) \
        + gamma_up * dissipator(SIGMA_MINUS.conj().T)
    k = build_kernel(QUBIT, couplings, bath, "lindblad")
    assert np.max(np.abs(k.data - want)) < 1e-15
    assert abs(gamma_up - np.exp(-beta) * gamma_down) < 1e-15


def test_build_kernel_dispatch_and_rejections():
    bath = flat_spectrum(1, 0.3)
    couplings = hermitian_channel(SIGMA_X)
    for tag in VARIANT_TAGS:
        if tag == "born":
            continue
        k = build_kernel(QUBIT, couplings, bath, tag)
        assert k.dim == 2
    with pytest.raises(InputError, match="omega"):
        build_kernel(QUBIT, couplings, bath, "born")
    with pytest.raises(InputError, match="variant"):
        build_kernel(QUBIT, couplings, bath, "secular")
    with pytest.raises(InputError):
        build_kernel(FIX3, couplings, bath, "lindblad")
    with pytest.raises(InputError, match="channels"):
        build_kernel(QUBIT, ladder_channels(SIGMA_MINUS), bath, "lindblad")


@pytest.mark.parametrize("variant", VARIANT_TAGS)
def test_overflowing_kernel_is_a_breach_naming_the_variant(variant):
    # finite couplings and rate whose products overflow
    with pytest.raises(InvariantError, match=f"^the {variant} kernel has a non-finite entry$"):
        build_kernel(QUBIT, hermitian_channel(1e200 * SIGMA_X), flat_spectrum(1, 1e200),
                     variant, omega=1.0)


def test_trace_condition_all_variants():
    spectrum, couplings, bath = make_system(19)
    for tag in VARIANT_TAGS:
        omega = 1.3 if tag == "born" else None
        k = build_kernel(spectrum, couplings, bath, tag, omega=omega)
        assert trace_condition_residual(k) < 1e-13


def test_born_frequency_symmetry():
    # conj(K~(w)[pp',qq']) == K~(-w)[p'p,q'q]
    spectrum, couplings, bath = make_system(11)
    d = spectrum.dim
    for omega in (0.0, 0.8, 2.5):
        kp = build_kernel(spectrum, couplings, bath, "born", omega=omega).tensor()
        km = build_kernel(spectrum, couplings, bath, "born", omega=-omega).tensor()
        flipped = km.transpose(1, 0, 3, 2)
        assert np.max(np.abs(np.conj(kp) - flipped)) < 1e-13


def test_markov_kernels_preserve_hermiticity():
    spectrum, couplings, bath = make_system(21)
    tags = ["redfield-in", "redfield-out", "energy-conserving", "lindblad"]
    for tag in tags:
        t = build_kernel(spectrum, couplings, bath, tag).tensor()
        defect = np.max(np.abs(np.conj(t) - t.transpose(1, 0, 3, 2)))
        assert defect < 1e-13, tag
    t0 = build_kernel(spectrum, couplings, bath, "born", omega=0.0).tensor()
    assert np.max(np.abs(np.conj(t0) - t0.transpose(1, 0, 3, 2))) < 1e-13


def test_energy_conserving_equals_lindblad_sample():
    for seed in range(0, 24, 2):
        spectrum, couplings, bath = make_system(seed)
        kec = build_kernel(spectrum, couplings, bath, "energy-conserving")
        kl = build_kernel(spectrum, couplings, bath, "lindblad")
        diff, _ = kernel_difference(kec, kl)
        scale = max(np.max(np.abs(kl.data)), 1e-300)
        assert diff < 1e-13 * scale, seed


def dense_energy_conserving(spectrum, couplings, bath):
    """The energy-conserving kernel as one dense d^4 formula: the loss
    terms masked to same-class pairs, the gain masked by the pointwise
    mass shell |E_pq + E_q'p'| <= eps_deg."""
    d = spectrum.dim
    s = couplings.matrices
    bohr = spectrum.bohr_matrix()
    g = bath.correlation_ft(bohr, adjoint_map=couplings.adjoint_map)
    same = (spectrum.class_of[:, None] == spectrum.class_of[None, :]).astype(float)
    shell = (np.abs(bohr[:, :, None, None] + bohr[None, None, :, :])
             <= spectrum.eps_deg).astype(float)
    k = np.zeros((d, d, d, d), dtype=complex)
    rng = np.arange(d)
    t1 = np.einsum("apl,blq,qlab,pq->pq", s, s, g, same)
    t2 = np.einsum("aQl,blP,Qlab,QP->QP", s, s, g, same)
    k[:, rng, :, rng] -= 0.5 * t1[None, :, :]
    k[rng, :, rng, :] -= 0.5 * t2.T[None, :, :]
    k += np.einsum("bpq,aQP,QPab,pqQP->pPqQ", s, s, g, shell)
    return k.reshape(d * d, d * d)


def test_energy_conserving_kernel_equals_the_dense_mass_shell_formula(system_box):
    for seed, (spectrum, couplings, bath) in enumerate(system_box):
        assert np.array_equal(energy_conserving_kernel(spectrum, couplings, bath).data,
                              dense_energy_conserving(spectrum, couplings, bath)), seed


@pytest.mark.parametrize("d", [16, 24, 32])
@pytest.mark.parametrize("family", ["generic", "harmonic"])
@pytest.mark.parametrize("channels", ["hermitian", "ladder"])
def test_energy_conserving_kernel_equals_the_dense_formula_at_large_d(d, family,
                                                                      channels):
    rng = np.random.default_rng(d)
    spectrum = build_spectrum(np.sort(rng.uniform(0.0, 4.0, d)) if family == "generic"
                              else 0.25 * np.arange(d))
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    if channels == "hermitian":
        couplings = hermitian_channel(m + m.conj().T)
    else:
        couplings = ladder_channels(m)
    bath = thermal_ohmic_spectrum(0.2, 5.0, 1.0, n_channels=couplings.n_channels)
    assert np.array_equal(energy_conserving_kernel(spectrum, couplings, bath).data,
                          dense_energy_conserving(spectrum, couplings, bath))


def test_energy_conserving_kernel_matches_the_dense_formula_for_three_channels():
    d = 12
    rng = np.random.default_rng(5)
    spectrum = build_spectrum(np.sort(rng.uniform(0.0, 4.0, d)))
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    x = rng.standard_normal((d, d))
    couplings = CouplingChannelSet(np.stack([x + x.T, m, m.conj().T]),
                                   ("X", "L", "Ldag"), adjoint_map=(0, 2, 1))
    mix = np.array([[1.0, 0.3 + 0.1j, 0.2], [0.3 - 0.1j, 0.8, 0.1j], [0.2, -0.1j, 0.6]])
    bath = custom_spectrum(
        3, lambda w: np.multiply.outer(0.3 / (1.0 + np.exp(-1.5 * w)), mix))
    k = energy_conserving_kernel(spectrum, couplings, bath).data
    ref = dense_energy_conserving(spectrum, couplings, bath)
    assert np.max(np.abs(k - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_energy_conserving_kernel_rejects_an_ambiguous_bohr_chain():
    # Bohr frequencies 1, 1.0008, 1.0016 chain within eps_deg over 1.6 eps_deg;
    # a pointwise mass shell would still build a kernel here
    spectrum = build_spectrum([0.0, 1.0, 2.0008, 3.0024], eps_deg=1e-3)
    m = np.random.default_rng(0).standard_normal((4, 4))
    couplings = hermitian_channel(m + m.T)
    bath = flat_spectrum(1, 0.3)
    with pytest.raises(InputError) as jump:
        lindblad_kernel(spectrum, couplings, bath)
    with pytest.raises(InputError) as ec:
        energy_conserving_kernel(spectrum, couplings, bath)
    assert str(ec.value) == str(jump.value)
    assert str(ec.value).startswith("Bohr frequencies [1.0, 1.0008, 1.0016000000000003]")


def dense_per_bin_lindblad(spectrum, couplings, bath):
    """The jump-form kernel with one full d^4 einsum per Bohr bin."""
    d = spectrum.dim
    jumps = decompose_jump_operators(spectrum, couplings)
    k = np.zeros((d, d, d, d), dtype=complex)
    rng = np.arange(d)
    for omega_b in jumps.omegas:
        j = np.stack([jumps.operator(omega_b, a)
                      for a in range(couplings.n_channels)])
        g = bath.gamma(float(omega_b))
        k += np.einsum("ab,bpq,aPQ->pPqQ", g, j, j.conj())
        loss = np.einsum("ab,alp,blq->pq", g, j.conj(), j)
        k[:, rng, :, rng] -= 0.5 * loss[None, :, :]
        k[rng, :, rng, :] -= 0.5 * loss.T[None, :, :]
    return k.reshape(d * d, d * d)


@pytest.mark.parametrize("levels", [
    [0.0, 0.31, 0.77, 1.52, 2.9, 3.35, 3.8],        # generic
    [0.25 * n for n in range(7)],                     # harmonic
    [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 1.5],              # degenerate
])
@pytest.mark.parametrize("channels", ["hermitian", "ladder"])
def test_lindblad_kernel_matches_dense_per_bin_reference(levels, channels):
    spectrum = build_spectrum(levels)
    d = spectrum.dim
    rng = np.random.default_rng(7)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if channels == "hermitian":
        couplings = hermitian_channel(m + m.conj().T)
        bath = thermal_ohmic_spectrum(0.2, 5.0, 1.0)
    else:
        couplings = CouplingChannelSet(np.stack([m, m.conj().T]), ("L", "Ldag"),
                                       adjoint_map=(1, 0))
        mix = np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, 0.7]])
        bath = custom_spectrum(
            2, lambda w: np.multiply.outer(0.3 / (1.0 + np.exp(-1.5 * w)), mix))
    k = lindblad_kernel(spectrum, couplings, bath).data
    scale = np.max(np.abs(k))
    ref = dense_per_bin_lindblad(spectrum, couplings, bath)
    assert np.max(np.abs(k - ref)) <= 1e-14 * scale
    ec = build_kernel(spectrum, couplings, bath, "energy-conserving").data
    assert np.max(np.abs(k - ec)) <= 1e-12 * scale


def stack_jump_kernel(spectrum, couplings, bath, gain_sign):
    """The jump-form kernel read off the dense per-pair jump-operator
    stack, with the same summation order as the library."""
    d = spectrum.dim
    omegas, ops = reference_jump_stack(spectrum, couplings)
    b, p, q = np.nonzero(np.any(ops != 0, axis=1))
    v = ops[b, :, p, q]
    gv = np.einsum("iab,ib->ia", bath.gamma(omegas[b]), v)
    i, j = np.nonzero(b[:, None] == b[None, :])
    block = np.einsum("ea,ea->e", gv[i], v[j].conj())
    k = np.zeros((d * d, d * d), dtype=complex)
    k[p[i] * d + p[j], q[i] * d + q[j]] = gain_sign * block
    loss = np.zeros((d, d), dtype=complex)
    row = p[i] == p[j]
    np.add.at(loss, (q[j][row], q[i][row]), block[row])
    t = k.reshape(d, d, d, d)
    rng = np.arange(d)
    t[:, rng, :, rng] -= 0.5 * loss[None, :, :]
    t[rng, :, rng, :] -= 0.5 * loss.T[None, :, :]
    return k


@pytest.mark.parametrize("levels", [
    np.sort(np.random.default_rng(4).uniform(0.0, 3.0, 9)),   # generic
    0.1 * np.arange(9),                                         # harmonic
    0.25 * np.arange(9),
    [0.0, 0.5, 0.5, 1.0, 1.5, 1.5, 1.5],                        # degenerate
    [0.3],
])
@pytest.mark.parametrize("channels", ["hermitian", "ladder"])
def test_jump_kernels_equal_the_dense_stack_reference(levels, channels):
    spectrum = build_spectrum(levels)
    d = spectrum.dim
    rng = np.random.default_rng(11)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m[rng.random((d, d)) < 0.3] = 0.0          # leave some bins uncoupled
    if channels == "hermitian":
        couplings = hermitian_channel(m + m.conj().T)
        bath = thermal_ohmic_spectrum(0.2, 5.0, 1.0)
    else:
        couplings = ladder_channels(m)
        mix = np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, 0.7]])
        bath = custom_spectrum(
            2, lambda w: np.multiply.outer(0.3 / (1.0 + np.exp(-1.5 * w)), mix))
    assert np.array_equal(lindblad_kernel(spectrum, couplings, bath).data,
                          stack_jump_kernel(spectrum, couplings, bath, 1.0))
    assert np.array_equal(flip_gain_sign(spectrum, couplings, bath).data,
                          stack_jump_kernel(spectrum, couplings, bath, -1.0))
    omegas, ops = reference_jump_stack(spectrum, couplings)
    for omega, op in zip(omegas, ops):
        active = [a for a in range(couplings.n_channels) if np.any(op[a] != 0)]
        if not active:
            with pytest.raises(InputError, match="support"):
                kossakowski_matrix(spectrum, couplings, bath, omega)
            continue
        blk = kossakowski_matrix(spectrum, couplings, bath, omega)
        assert blk.omega == omega
        assert blk.labels == tuple(couplings.labels[a] for a in active)
        assert np.array_equal(blk.matrix, bath.gamma(omega)[np.ix_(active, active)])


def test_in_out_discrepancy_off_population_block():
    kin = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in").tensor()
    kout = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-out").tensor()
    diff = np.abs(kin - kout)
    assert diff.max() > 1e-3 * np.abs(kin).max()
    d = FIX3.dim
    pop = np.zeros((d, d, d, d), dtype=bool)
    for p in range(d):
        for q in range(d):
            pop[p, p, q, q] = True
    assert np.max(diff[pop]) == 0.0


def test_gain_terms_ansatz_independent():
    # in and out kernels share their gain entries; the loss terms sit on
    # delta-constrained rows/columns, so purely off-diagonal blocks of
    # the difference vanish
    kin = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in").tensor()
    kout = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-out").tensor()
    d = FIX3.dim
    for p in range(d):
        for p2 in range(d):
            for q in range(d):
                for q2 in range(d):
                    if p != q and p2 != q2 and p != p2:
                        assert kin[p, p2, q, q2] == kout[p, p2, q, q2]


def test_energy_conserving_mass_shell_arguments_coincide():
    # wherever the mass shell passes, the two candidate bath arguments
    # E_{qp} and E_{q'p'} are the same snapped number, so the gain term
    # never actually chooses between them
    for seed in (2, 5, 8, 11):
        spectrum, _, _ = make_system(seed)
        bohr = spectrum.bohr_matrix()
        shell = np.abs(bohr[:, :, None, None] + bohr[None, None, :, :]) \
            <= spectrum.eps_deg
        p, q, qq, pp = np.nonzero(shell)
        assert np.array_equal(bohr[q, p], bohr[qq, pp])


def test_kossakowski_blocks():
    c, lam, beta = 0.2, 5.0, 1.7
    bath = thermal_ohmic_spectrum(c, lam, beta)
    couplings = hermitian_channel(SIGMA_X)
    blk = kossakowski_matrix(QUBIT, couplings, bath, 1.0)
    assert blk.omega == 1.0
    assert blk.matrix.shape == (1, 1)
    assert abs(blk.matrix[0, 0] - bath.gamma(1.0)[0, 0]) < 1e-15
    assert blk.is_psd
    with pytest.raises(InputError, match="unique"):
        kossakowski_matrix(QUBIT, couplings, bath, 0.37)
    # bin exists but no coupling supports it: levels 0,1,2 with a
    # coupling touching only the 0-1 transition leaves the omega=2 bin empty
    spec = build_spectrum([0.0, 1.0, 2.0])
    s01 = np.zeros((3, 3), dtype=complex)
    s01[0, 1] = s01[1, 0] = 1.0
    with pytest.raises(InputError, match="support"):
        kossakowski_matrix(spec, hermitian_channel(s01),
                           thermal_ohmic_spectrum(c, lam, beta), 2.0)


def test_kernel_difference_reports_location():
    bath = flat_spectrum(1, 0.3)
    couplings = hermitian_channel(SIGMA_X)
    ka = build_kernel(QUBIT, couplings, bath, "redfield-in")
    kb = build_kernel(QUBIT, couplings, bath, "energy-conserving")
    diff, ((p, p2), (q, q2)) = kernel_difference(ka, kb)
    # the flat-bath sigma-x difference is the non-secular coherence gain
    assert abs(diff - 0.3) < 1e-15
    assert p != p2 and q != q2
    with pytest.raises(InputError):
        kernel_difference(ka, build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH,
                                           "lindblad"))


def test_kernel_export_and_envelope(tmp_path):
    bath = flat_spectrum(1, 0.3)
    couplings = hermitian_channel(SIGMA_X)
    k = build_kernel(QUBIT, couplings, bath, "lindblad")
    path = tmp_path / "kernel.csv"
    kernel_to_csv(k, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 1 + 16
    idx, re, im = lines[1 + 5].split(",")
    assert int(idx) == 5
    assert complex(float(re), float(im)) == k.data.ravel()[5]
    per_entry = "index,re,im\n" + "".join(
        f"{i},{fmt(z.real)},{fmt(z.imag)}\n" for i, z in enumerate(k.data.ravel()))
    assert path.read_text() == per_entry

    variant = kernel_provenance(QUBIT, couplings, bath, "lindblad")
    env = kernel_envelope(k, variant)
    assert env["dim"] == 2
    assert env["variant"]["tag"] == "lindblad"
    assert env["trace_residual"] < 1e-13
    assert "entries" not in env


def test_kernel_csv_of_a_non_finite_kernel_writes_nothing(tmp_path):
    data = np.zeros((4, 4), dtype=complex)
    data[3, 1] = complex(0.0, np.inf)
    path = tmp_path / "kernel.csv"
    with pytest.raises(InputError, match="non-finite value inf"):
        kernel_to_csv(Superoperator(2, data), path)
    assert not path.exists()
