"""The CP certificate, the state witness, verdicts, and the variant
comparison report."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import qmekit.io
from qmekit import diagnostics, dynamics
from qmekit.bath import flat_spectrum, thermal_ohmic_spectrum
from qmekit.cli import main
from qmekit.core import (InvariantError, Superoperator, bohr_frequencies, build_spectrum,
                         hermitian_channel, ladder_channels)
from qmekit.kernels import VARIANT_TAGS, build_kernel, kernel_difference, trace_condition_residual
from qmekit.dynamics import build_liouvillian
from qmekit.io import canonical_dumps
from qmekit.diagnostics import (
    CHOI_TOL,
    EC_AGREEMENT_LIMIT,
    choi_matrix,
    equivalence_report,
    flip_gain_sign,
    map_check,
)
from conftest import make_system, large_systems, BOX_SIZE
from test_acceptance import default_probe_times, propagator_choi_min

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

QUBIT = build_spectrum([-0.5, 0.5])
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)

FIX3 = build_spectrum([0.0, 5 / 16, 1.0])
FIX3_COUPLING = hermitian_channel(
    np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]]))
FIX3_BATH = thermal_ohmic_spectrum(0.4, 5.0, 1.3)


def test_choi_of_identity_and_transpose_maps():
    d = 2
    c_id = choi_matrix(np.eye(d * d), d)
    evals = np.linalg.eigvalsh(c_id)
    # identity map: rank-one Choi matrix with eigenvalue d
    assert np.max(np.abs(evals - [0, 0, 0, d])) < 1e-14

    t = np.zeros((d, d, d, d))
    for p in range(d):
        for q in range(d):
            t[p, q, q, p] = 1.0
    c_tr = choi_matrix(t.reshape(d * d, d * d), d)
    # transpose map is positive but not CP: Choi eigenvalue -1
    assert abs(np.linalg.eigvalsh(c_tr)[0] + 1.0) < 1e-14


def _scale(liouv):
    return float(np.max(np.abs(liouv.data)))


def _projected_rate(liouv, ket):
    """Lowest eigenvalue of L(|ket><ket|), hermitized, on the complement
    of ket: one ket at a time, with the projector written out."""
    d = liouv.dim
    rho = np.outer(ket, ket.conj())
    x = (liouv.data @ rho.ravel()).reshape(d, d)
    q = np.eye(d) - rho
    return float(np.linalg.eigvalsh(q @ ((x + x.conj().T) / 2) @ q)[0])


def assert_witness_replays(liouv, check):
    """The witness reproduces scan_min, and exp(L t) takes it out of the
    state cone at t = 1e-3 |scan_min| / max|L|^2, by about t * scan_min."""
    scale = _scale(liouv)
    assert check.scan_min < -CHOI_TOL * scale
    assert abs(_projected_rate(liouv, check.witness_ket) - check.scan_min) <= 1e-12 * scale
    t = 1e-3 * abs(check.scan_min) / scale ** 2
    rho = np.outer(check.witness_ket, check.witness_ket.conj())
    out = (expm(liouv.data * t) @ rho.ravel()).reshape(rho.shape)
    assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] < 0.5 * t * check.scan_min


def test_a_generator_that_breaks_hermiticity_is_not_certified():
    # L(rho) = i rho: the hermitized Choi matrix is 0, so only the
    # hermiticity defect, 2, keeps the verdict from cp-consistent
    check = map_check(Superoperator(2, 1j * np.eye(4)))
    assert check.choi_min == 0.0 and check.choi_herm_defect == 2.0
    assert check.verdict == "inconclusive"


def test_map_check_cp_consistent_for_lindblad():
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, 0.3),
                     "lindblad")
    liouv = build_liouvillian(QUBIT, k)
    check = map_check(liouv)
    assert check.verdict == "cp-consistent"
    assert check.choi_min >= -CHOI_TOL * _scale(liouv)
    assert check.witness_ket is None


def test_map_check_convicts_flipped_gain():
    couplings = hermitian_channel(SIGMA_X)
    bath = flat_spectrum(1, 0.3)
    bad = flip_gain_sign(QUBIT, couplings, bath)
    # the sabotage breaks trace conservation too
    assert trace_condition_residual(bad) > 0.1
    liouv = build_liouvillian(QUBIT, bad)
    check = map_check(liouv)
    assert check.verdict == "positivity-violating"
    assert check.choi_min < -CHOI_TOL * _scale(liouv)
    assert_witness_replays(liouv, check)


def test_map_check_convicts_the_incoming_resonance_kernel():
    # the three-level redfield-in kernel the propagator probes called
    # inconclusive: a short-time witness at about -1.1e-2 max|L|
    k = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in")
    liouv = build_liouvillian(FIX3, k)
    check = map_check(liouv)
    assert check.verdict == "positivity-violating"
    assert -1.2e-2 < check.scan_min / _scale(liouv) < -1.0e-2
    assert check.choi_min < check.scan_min
    assert_witness_replays(liouv, check)


def test_map_check_inconclusive_for_redfield_coherence_terms():
    # box 35 redfield-out (d=2): a negative certificate, but no scanned
    # ket leaves the state cone, not even among 4096 of them
    spectrum, couplings, bath = make_system(35)
    liouv = build_liouvillian(spectrum, build_kernel(spectrum, couplings, bath, "redfield-out"))
    scale = _scale(liouv)
    for n_random in (64, 4096):
        check = map_check(liouv, n_random=n_random, seed=0)
        assert check.verdict == "inconclusive"
        assert check.choi_min < -1e-2 * scale
        assert check.choi_herm_defect <= CHOI_TOL * scale
        assert check.scan_min >= -CHOI_TOL * scale
        assert check.witness_ket is None


def test_a_small_witness_region_needs_more_kets():
    # box 30 born (d=2, not hermiticity preserving): the states that
    # leave the cone at short times fill a small cap of the Bloch
    # sphere; the default kets miss it, 2048 seed-0 kets hit it
    spectrum, couplings, bath = make_system(30)
    liouv = build_liouvillian(spectrum, build_kernel(spectrum, couplings, bath, "born", omega=0.7))
    assert map_check(liouv).verdict == "inconclusive"
    check = map_check(liouv, n_random=2048)
    assert check.verdict == "positivity-violating"
    assert_witness_replays(liouv, check)


def test_certificate_against_the_propagator_choi_spectra_on_the_box():
    """All 540 box kernels, against the propagator Choi minima at the
    three relaxation-scale probe times: every probe conviction has a
    negative certificate, every certificate within the bound has PSD
    propagator Choi matrices, and every witness replays."""
    verdicts = set()
    for seed in range(BOX_SIZE):
        spectrum, couplings, bath = make_system(seed)
        for variant in VARIANT_TAGS:
            omega = 0.7 if variant == "born" else None
            kernel = build_kernel(spectrum, couplings, bath, variant, omega=omega)
            liouv = build_liouvillian(spectrum, kernel)
            check = map_check(liouv)
            probed = float(np.min(propagator_choi_min(liouv, default_probe_times(kernel))))
            name = f"box {seed} {variant}"
            if probed < -1e-8:
                assert check.choi_min < 0 and check.verdict != "cp-consistent", name
            if check.verdict == "cp-consistent":
                assert probed >= -1e-8, name
            if check.verdict == "positivity-violating":
                assert_witness_replays(liouv, check)
            verdicts.add(check.verdict)
    assert verdicts == {"cp-consistent", "positivity-violating", "inconclusive"}


def test_map_check_computes_no_exponential(monkeypatch):
    k = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in")
    liouv = build_liouvillian(FIX3, k)
    monkeypatch.setattr(diagnostics, "expm", None, raising=False)
    monkeypatch.setattr(dynamics, "expm", None)
    monkeypatch.setattr(scipy.linalg, "expm", None)
    assert map_check(liouv).verdict == "positivity-violating"


def _gkls(h, ops, c):
    """-i[H, .] + sum_ij c_ij (A_i . A_j^H - 1/2 {A_j^H A_i, .}) on the
    flat pair index, where A . B is kron(A, B^T)."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            ba = b.conj().T @ a
            gen += c[i, j] * (np.kron(a, b.conj()) - 0.5 * np.kron(ba, eye)
                              - 0.5 * np.kron(eye, ba.T))
    return gen


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-12, 1.0, 1e12]), data=st.data())
def test_certificate_is_the_kossakowski_matrix_spectrum(d, seed, scale, data):
    """With orthonormal traceless A_i the compressed Choi matrix of a
    GKLS generator holds the eigenvalues of c and zeros, so map_check
    says cp-consistent exactly when c has no eigenvalue below the bound,
    at any overall rate scale."""
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, d * d - 1))
    lam = scale * np.array(data.draw(st.lists(
        st.sampled_from([-1.0, -0.2, -1e-3, 0.0, 1e-3, 0.5, 1.0]), min_size=n, max_size=n)))
    # orthonormal traceless operators: QR of random vectors with the
    # vec(I) component removed
    v = rng.standard_normal((d * d, n)) + 1j * rng.standard_normal((d * d, n))
    v[::d + 1] -= v[::d + 1].mean(axis=0)
    ops = np.linalg.qr(v)[0].T.reshape(n, d, d)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    c = (u * lam) @ u.conj().T
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gen = _gkls(scale * (m + m.conj().T) / 2, ops, c)
    check = map_check(Superoperator(d, gen))
    bound = CHOI_TOL * float(np.max(np.abs(gen)))
    assert abs(check.choi_min - min(lam.min(), 0.0)) <= 1e-4 * bound
    assert (check.verdict == "cp-consistent") == (lam.min() >= -bound)
    if check.verdict == "positivity-violating":
        assert_witness_replays(Superoperator(d, gen), check)


@pytest.mark.parametrize("variant, verdict", [("lindblad", "cp-consistent"),
                                              ("redfield-in", "positivity-violating")])
def test_generic_d16_verdicts(variant, verdict):
    rng = np.random.default_rng(16)
    spectrum = build_spectrum(np.sort(rng.uniform(0.0, 4.0, 16)))
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    kernel = build_kernel(spectrum, hermitian_channel(m + m.conj().T),
                          thermal_ohmic_spectrum(0.4, 5.0, 1.3), variant)
    liouv = build_liouvillian(spectrum, kernel)
    check = map_check(liouv)
    assert check.verdict == verdict
    if verdict == "cp-consistent":
        assert check.choi_min >= -1e-14 * _scale(liouv)
    else:
        assert check.choi_min < -0.5 * _scale(liouv)


def test_equivalence_report_ladder_qubit():
    bath = flat_spectrum(2, 0.3)
    couplings = ladder_channels(SIGMA_MINUS)
    rep = equivalence_report(QUBIT, couplings, bath, omega=0.7)
    assert rep["ec_equals_lindblad"] is True
    assert rep["ec_lindblad_diff"] == 0.0
    # the resolved qubit: every pair coincides, born included
    assert all(p["max_abs_diff"] == 0.0 for p in rep["pairs"].values())
    assert all(r < 1e-13 for r in rep["trace_residuals"].values())
    assert rep["in_out"]["n_entries"] == 0


def test_equivalence_report_three_level_structure():
    rep = equivalence_report(FIX3, FIX3_COUPLING, FIX3_BATH)
    assert rep["dim"] == 3
    assert rep["ec_equals_lindblad"] is True
    in_out = rep["in_out"]
    assert in_out["max_abs_diff"] > 1e-3 * rep["scale"]
    assert in_out["population_block_touched"] is False
    assert 0 < in_out["n_entries"]
    assert len(in_out["entries"]) <= 32
    # entries are sorted by decreasing magnitude
    mags = [e["abs_diff"] for e in in_out["entries"]]
    assert mags == sorted(mags, reverse=True)


def dense_in_out_entries(kernel_in, kernel_out, threshold):
    """The in/out listing as it was computed on the dense matrices."""
    d = kernel_in.dim
    diff = np.abs(kernel_in.data - kernel_out.data)
    hits = np.flatnonzero(diff > threshold)
    values = diff.ravel()[hits]
    cut = np.partition(values, -32)[-32] if len(hits) > 32 else 0.0
    top = np.flatnonzero(values >= cut)
    top = top[np.argsort(-values[top], kind="stable")[:32]]
    rc = np.divmod(hits[top], d * d)
    on_pop = (rc[0] % (d + 1) == 0) & (rc[1] % (d + 1) == 0)
    pairs = np.stack(np.divmod(rc, d), axis=-1)
    entries = [
        {"row": pairs[0, n].tolist(), "col": pairs[1, n].tolist(),
         "abs_diff": float(values[i]), "population_block": bool(on_pop[n])}
        for n, i in enumerate(top)
    ]
    return {
        "max_abs_diff": float(diff.max()),
        "n_entries": len(hits),
        "entries": entries,
        "population_block_touched": bool((diff[::d + 1, ::d + 1] > threshold).any()),
        "threshold": float(threshold),
    }


def dense_equivalence_report(kernels, omega):
    """equivalence_report as it was computed on the dense matrices of the
    five kernels (in report order): kernel_difference per pair, the
    in/out listing and the trace residuals of the dense rows."""
    d = next(iter(kernels.values())).dim
    scale = max(float(np.max(np.abs(k.data))) for k in kernels.values())
    pairs = {}
    names = list(kernels)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            diff, where = kernel_difference(kernels[a], kernels[b])
            pairs[f"{a}|{b}"] = {"max_abs_diff": diff, "at": [list(where[0]), list(where[1])]}
    ec_diff = pairs["energy-conserving|lindblad"]["max_abs_diff"]
    limit = EC_AGREEMENT_LIMIT * max(scale, 1e-300)
    return {
        "dim": d,
        "born_omega": float(omega),
        "scale": scale,
        "pairs": pairs,
        "ec_equals_lindblad": bool(ec_diff <= limit),
        "ec_lindblad_diff": ec_diff,
        "in_out": dense_in_out_entries(kernels["redfield-in"], kernels["redfield-out"], limit),
        "trace_residuals": {tag: float(np.max(np.abs(k.data[::d + 1].sum(axis=0))))
                            for tag, k in kernels.items()},
        "version": qmekit.io.PACKAGE_VERSION,
    }


def report_and_reference(monkeypatch, system, omega=0.0, made=None):
    """The report and its dense reference on the same kernels (`made`, a
    dict by tag, or those the system builds); the covariant kernels must
    come out of the report without a dense matrix."""
    built = {}

    def build(spectrum, couplings, bath_spec, variant, omega=None):
        kernel = made[variant] if made else build_kernel(spectrum, couplings, bath_spec,
                                                         variant, omega=omega)
        built[variant] = kernel
        return kernel

    monkeypatch.setattr(diagnostics, "build_kernel", build)
    rep = equivalence_report(*system, omega=omega)
    assert not any("data" in vars(built[tag]) for tag in ("energy-conserving", "lindblad"))
    kernels = {tag: built[tag] for tag in ("redfield-in", "redfield-out", "energy-conserving",
                                           "lindblad", "born")}
    return rep, dense_equivalence_report(kernels, omega)


def test_block_report_equals_the_dense_reference(monkeypatch, system_box):
    for n, system in enumerate(system_box + large_systems()):
        omega = 0.0 if n % 2 else 0.7
        rep, ref = report_and_reference(monkeypatch, system, omega)
        assert canonical_dumps(rep) == canonical_dumps(ref), n


# spectrum (0, 1, 3): the zero bin holds the populations, flat pairs 0, 4
# and 8, and every other level pair is its own bin
SPREAD3 = (build_spectrum([0.0, 1.0, 3.0]), hermitian_channel(np.zeros((3, 3))),
           flat_spectrum(1, 0.1))


def made_kernels(rng, vals=None, **given):
    """The five kernels of SPREAD3 by tag (underscores for dashes):
    random dense ones, and one block kernel on its Bohr label, with
    entries `vals` (default random eighths), as both covariant ones.
    `given` replaces any of them."""
    d, label = 3, bohr_frequencies(SPREAD3[0])[1]
    rows, cols = np.nonzero(label.ravel()[:, None] == label.ravel()[None, :])
    vals = rng.integers(-8, 9, rows.size) / 8 if vals is None else vals
    made = {tag: Superoperator(d, rng.standard_normal((d * d, d * d)))
            for tag in ("redfield-in", "redfield-out", "born")}
    for tag in ("energy-conserving", "lindblad"):
        made[tag] = Superoperator.from_terms(d, label, [(rows, cols, vals)])
    made.update({tag.replace("_", "-"): kernel for tag, kernel in given.items()})
    return made


@pytest.mark.parametrize("off, at", [(1, [[0, 0], [0, 1]]), (79, [[1, 1], [1, 1]])])
def test_block_report_takes_the_first_index_among_ties_on_and_off_the_blocks(monkeypatch, off,
                                                                            at):
    # |D - C| is largest, 5, at flat 40 (population (1, 1) to itself) on
    # the blocks and at flat `off` off them: flat 1 comes first, then 40,
    # then 79 (row (2, 2), column (2, 1))
    label = bohr_frequencies(SPREAD3[0])[1]
    rows, cols = np.nonzero(label.ravel()[:, None] == label.ravel()[None, :])
    vals = np.random.default_rng(off).integers(-8, 9, rows.size) / 8
    vals[(rows == 4) & (cols == 4)] = -5.0
    data = np.zeros(81)
    data[off] = 5.0
    made = made_kernels(np.random.default_rng(off), vals,
                        redfield_in=Superoperator(3, data.reshape(9, 9)))
    rep, ref = report_and_reference(monkeypatch, SPREAD3, made=made)
    assert canonical_dumps(rep) == canonical_dumps(ref)
    for other in ("energy-conserving", "lindblad"):
        assert rep["pairs"][f"redfield-in|{other}"] == {"max_abs_diff": 5.0, "at": at}


def test_block_report_of_equal_covariant_kernels_is_at_the_origin(monkeypatch):
    rep, ref = report_and_reference(monkeypatch, SPREAD3, made=made_kernels(
        np.random.default_rng(5)))
    assert canonical_dumps(rep) == canonical_dumps(ref)
    assert rep["pairs"]["energy-conserving|lindblad"] == {"max_abs_diff": 0.0,
                                                          "at": [[0, 0], [0, 0]]}
    assert rep["ec_equals_lindblad"] is True


@pytest.mark.parametrize("layout", ["dense", "other-label"])
def test_block_report_rejects_covariant_kernels_of_different_layouts(monkeypatch, tmp_path,
                                                                     capsys, layout):
    # lindblad handed over dense (one block over all pairs) or on the
    # label of levels (0, 0, 1) (as many size groups, other blocks): both
    # builders take the one Bohr label, so a mismatch is an invariant breach
    rng = np.random.default_rng(6)
    if layout == "dense":
        lindblad = Superoperator(3, rng.standard_normal((9, 9)))
    else:
        label = bohr_frequencies(build_spectrum([0.0, 0.0, 1.0]))[1]
        rows, cols = np.nonzero(label.ravel()[:, None] == label.ravel()[None, :])
        lindblad = Superoperator.from_terms(3, label, [(rows, cols, rng.standard_normal(rows.size))])
    made = made_kernels(rng, lindblad=lindblad)
    if layout == "other-label":
        assert len(lindblad.blocks) == len(made["energy-conserving"].blocks)
    monkeypatch.setattr(diagnostics, "build_kernel",
                        lambda spectrum, couplings, bath_spec, variant, omega=None: made[variant])
    error = "the covariant kernels have different block layouts"
    with pytest.raises(InvariantError, match=error):
        equivalence_report(*SPREAD3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "spectrum": {"levels": [0.0, 1.0, 3.0]},
        "couplings": {"kind": "hermitian", "matrix": np.zeros((3, 3, 2)).tolist()},
        "bath": {"kind": "flat", "rate": 0.1}}))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"invariant breach: {error}\n"
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("system", [
    (build_spectrum([0.5]), hermitian_channel(np.array([[0.3]])), flat_spectrum(1, 0.2)),
    (build_spectrum([0.0, 1.0, 2.5]), hermitian_channel(np.zeros((3, 3))), flat_spectrum(1, 0.2)),
], ids=["d1", "zero-coupling"])
def test_block_report_of_an_all_zero_comparison(monkeypatch, system):
    rep, ref = report_and_reference(monkeypatch, system, omega=0.4)
    assert canonical_dumps(rep) == canonical_dumps(ref)
    assert rep["scale"] == 0.0
    assert all(p == {"max_abs_diff": 0.0, "at": [[0, 0], [0, 0]]} for p in rep["pairs"].values())


def test_in_out_entries_keep_index_order_among_ties():
    from qmekit.diagnostics import _in_out_entries
    d = 3
    diff = np.zeros(d ** 4)
    diff[[5, 40, 17, 66, 80, 0]] = [2.0, 3.0, 2.0, 3.0, 1.0, 2.0]
    rep = _in_out_entries(diff.reshape(9, 9), threshold=0.5)
    order = [40, 66, 0, 5, 17, 80]
    assert [e["row"] + e["col"] for e in rep["entries"]] == [
        list(np.unravel_index(k, (d,) * 4)) for k in order]
    assert [e["abs_diff"] for e in rep["entries"]] == [3.0, 3.0, 2.0, 2.0, 2.0, 1.0]
    assert [e["population_block"] for e in rep["entries"]] == [
        True, False, True, False, False, True]
    assert rep["n_entries"] == 6 and rep["population_block_touched"] is True


def test_in_out_entries_are_the_head_of_the_full_stable_sort():
    # 120 hits with 40 tied at the 32nd largest value: the listed entries
    # are the first 32 of a stable argsort over every hit, and the one
    # population-block hit (flat 0, value 1.0) is counted though unlisted
    from qmekit.diagnostics import _in_out_entries
    d = 4
    rng = np.random.default_rng(3)
    diff = np.zeros(d ** 4)
    pop = np.zeros((d * d, d * d), dtype=bool)
    pop[::d + 1, ::d + 1] = True                 # (p, p) is flat p * (d + 1)
    off_pop = np.flatnonzero(~pop)
    hits = np.concatenate([[0], rng.choice(off_pop, 119, replace=False)])
    diff[hits] = np.repeat([1.0, 3.0, 2.0, 1.0], [1, 10, 40, 69])
    rep = _in_out_entries(diff.reshape(d * d, d * d), threshold=0.5)
    flat = np.flatnonzero(diff)
    order = flat[np.argsort(-diff[flat], kind="stable")[:32]]
    assert [e["row"] + e["col"] for e in rep["entries"]] == [
        list(np.unravel_index(k, (d,) * 4)) for k in order]
    assert [e["abs_diff"] for e in rep["entries"]] == diff[order].tolist()
    assert [e["population_block"] for e in rep["entries"]] == pop.ravel()[order].tolist()
    assert rep["n_entries"] == 120 and rep["population_block_touched"] is True


def test_probe_kets_draw_as_the_sequential_pairs():
    for seed in (0, 4, 123):
        for d in range(2, 13):
            rng = np.random.default_rng(seed)
            pairs = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(8)]
            raw = np.random.default_rng(seed).standard_normal((8, 2, d))
            assert np.array_equal(raw, np.array(pairs))
            kets = diagnostics._probe_states(d, 8, seed)
            assert np.array_equal(kets[:d], np.eye(d))
            ref = [(re + 1j * im) / np.linalg.norm(re + 1j * im) for re, im in pairs]
            assert np.max(np.abs(kets[d:] - np.array(ref))) <= 1e-15


def test_choi_matrix_of_a_stack_is_the_stack_of_choi_matrices():
    rng = np.random.default_rng(1)
    d = 3
    stack = rng.standard_normal((2, 4, d * d, d * d))
    choi = choi_matrix(stack, d)
    assert choi.shape == stack.shape
    for idx in np.ndindex(2, 4):
        assert np.array_equal(choi[idx], choi_matrix(stack[idx], d))
