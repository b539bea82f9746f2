"""Positivity probes, verdicts, and the variant comparison report."""

import numpy as np
import pytest
from scipy.linalg import expm

from qmekit import diagnostics
from qmekit.bath import flat_spectrum, thermal_ohmic_spectrum
from qmekit.core import InputError, Superoperator, build_spectrum, hermitian_channel, ladder_channels
from qmekit.kernels import VARIANT_TAGS, build_kernel, trace_condition_residual
from qmekit.dynamics import build_liouvillian
from qmekit.io import canonical_dumps
from qmekit.diagnostics import (
    CHOI_TOL,
    choi_matrix,
    choi_spectrum,
    default_probe_times,
    equivalence_report,
    flip_gain_sign,
    map_check,
    positivity_scan,
)
from conftest import make_system, BOX_SIZE

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


def test_default_probe_times_from_slowest_rate():
    rate = 0.3
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, rate),
                     "lindblad")
    probes = default_probe_times(k)
    assert np.allclose(probes, (0.1 / rate, 1.0 / rate, 10.0 / rate), rtol=1e-10)
    with pytest.raises(InputError, match="zero"):
        default_probe_times(Superoperator.zero(2))


def test_map_check_cp_consistent_for_lindblad():
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, 0.3),
                     "lindblad")
    liouv = build_liouvillian(QUBIT, k)
    check = map_check(liouv, k)
    assert check.verdict == "cp-consistent"
    assert np.all(check.choi_min >= -CHOI_TOL)
    assert check.witness_ket is None
    doc = check.as_dict()
    assert doc["verdict"] == "cp-consistent"
    assert "witness" not in doc


def test_map_check_convicts_flipped_gain():
    couplings = hermitian_channel(SIGMA_X)
    bath = flat_spectrum(1, 0.3)
    bad = flip_gain_sign(QUBIT, couplings, bath)
    # the sabotage breaks trace conservation too
    assert trace_condition_residual(bad) > 0.1
    liouv = build_liouvillian(QUBIT, bad)
    check = map_check(liouv, Superoperator(2, bad.data))
    assert check.verdict == "positivity-violating"
    assert check.scan_min < -CHOI_TOL

    # replay the witness: same propagator, same state, same eigenvalue
    ket, t_w = check.witness_ket, check.witness_time
    prop = expm(liouv.data * t_w)
    rho = np.outer(ket, ket.conj())
    out = (prop @ rho.ravel()).reshape(2, 2)
    out = (out + out.conj().T) / 2
    assert abs(np.linalg.eigvalsh(out)[0] - check.scan_min) < 1e-12

    # the payload holds arrays; its text is that of the float lists it held
    lists = dict(check.as_dict(),
                 probe_times=[float(t) for t in check.probe_times],
                 choi_min=[float(x) for x in check.choi_min],
                 choi_herm_defect=[float(x) for x in check.choi_herm_defect],
                 witness={"ket": [[z.real, z.imag] for z in ket.tolist()], "time": t_w})
    assert canonical_dumps(check.as_dict()) == canonical_dumps(lists)


def test_map_check_inconclusive_for_redfield_coherence_terms():
    k = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in")
    liouv = build_liouvillian(FIX3, k)
    check = map_check(liouv, k, n_random=64, seed=0)
    assert check.verdict == "inconclusive"
    assert np.min(check.choi_min) < -CHOI_TOL
    assert check.scan_min >= -CHOI_TOL


def test_choi_spectrum_shapes_and_hermiticity():
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, 0.3),
                     "lindblad")
    liouv = build_liouvillian(QUBIT, k)
    mins, defects = choi_spectrum(liouv, (0.5, 1.0))
    assert mins.shape == defects.shape == (2,)
    assert np.all(defects < 1e-12)
    assert np.all(mins >= -CHOI_TOL)


def test_positivity_scan_witness_is_replayable():
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, 0.3),
                     "lindblad")
    liouv = build_liouvillian(QUBIT, k)
    worst, (ket, t_w) = positivity_scan(liouv, (0.3, 3.0), n_random=16, seed=4)
    prop = expm(liouv.data * t_w)
    rho = np.outer(ket, ket.conj())
    out = (prop @ rho.ravel()).reshape(2, 2)
    out = (out + out.conj().T) / 2
    assert abs(np.linalg.eigvalsh(out)[0] - worst) < 1e-12


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


def test_in_out_entries_keep_index_order_among_ties():
    from qmekit.diagnostics import _in_out_entries
    d = 3
    diff = np.zeros(d ** 4)
    diff[[5, 40, 17, 66, 80, 0]] = [2.0, 3.0, 2.0, 3.0, 1.0, 2.0]
    rep = _in_out_entries(Superoperator(d, diff.reshape(9, 9)),
                          Superoperator.zero(d), threshold=0.5)
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
    rep = _in_out_entries(Superoperator(d, diff.reshape(d * d, d * d)),
                          Superoperator.zero(d), threshold=0.5)
    flat = np.flatnonzero(diff)
    order = flat[np.argsort(-diff[flat], kind="stable")[:32]]
    assert [e["row"] + e["col"] for e in rep["entries"]] == [
        list(np.unravel_index(k, (d,) * 4)) for k in order]
    assert [e["abs_diff"] for e in rep["entries"]] == diff[order].tolist()
    assert [e["population_block"] for e in rep["entries"]] == pop.ravel()[order].tolist()
    assert rep["n_entries"] == 120 and rep["population_block_touched"] is True


def _reference_probes(liouv, t_probes, n_random=64, seed=0):
    """The per-time, per-ket loops the batched probes replace: Choi
    minima and defects, every scan eigenvalue in (time, ket) order, the
    first minimum's witness and the verdict."""
    d = liouv.dim
    rng = np.random.default_rng(seed)
    kets = [np.eye(d, dtype=complex)[k] for k in range(d)]
    for _ in range(n_random):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kets.append(v / np.linalg.norm(v))
    mins, defects, lows, witness = [], [], [], None
    for t in t_probes:
        prop = expm(liouv.data * float(t))
        c = prop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        defects.append(float(np.max(np.abs(c - c.conj().T))))
        mins.append(float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0]))
        for ket in kets:
            out = (prop @ np.outer(ket, ket.conj()).ravel()).reshape(d, d)
            low = float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])
            if not lows or low < min(lows):
                witness = (ket.copy(), float(t))
            lows.append(low)
    if np.all(np.array(mins) >= -CHOI_TOL):
        verdict = "cp-consistent"
    else:
        verdict = "positivity-violating" if min(lows) < -CHOI_TOL else "inconclusive"
    return np.array(mins), np.array(defects), np.sort(lows), witness, verdict


def _probe_cases():
    """(name, generator, kernel, n_random): the seeded box in all five
    variants with 16 random kets, so that the reference loops stay quick,
    then the redfield-in three-level system and the flipped-gain qubit."""
    for seed in range(BOX_SIZE):
        spectrum, couplings, bath = make_system(seed)
        for variant in VARIANT_TAGS:
            omega = 0.7 if variant == "born" else None
            k = build_kernel(spectrum, couplings, bath, variant, omega=omega)
            yield f"box {seed} {variant}", build_liouvillian(spectrum, k), k, 16
    k = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in")
    yield "fix3 redfield-in", build_liouvillian(FIX3, k), k, 64
    bad = flip_gain_sign(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, 0.3))
    yield "flipped gain", build_liouvillian(QUBIT, bad), Superoperator(2, bad.data), 64


def test_batched_probes_match_the_per_time_per_ket_loops():
    verdicts = set()
    for name, liouv, kernel, n_random in _probe_cases():
        check = map_check(liouv, kernel, n_random=n_random)
        mins, defects, lows, (ket, t_w), verdict = _reference_probes(
            liouv, check.probe_times, n_random)
        # 1e-12, relative where a runaway (born) map reaches large values
        tol = 1e-12 * max(1.0, np.max(np.abs(mins)), abs(lows[0]))
        assert np.max(np.abs(check.choi_min - mins)) <= tol, name
        assert np.max(np.abs(check.choi_herm_defect - defects)) <= tol, name
        assert check.verdict == verdict, name
        assert abs(check.scan_min - lows[0]) <= tol, name
        scan_min, (scan_ket, scan_t) = positivity_scan(liouv, check.probe_times, n_random)
        assert abs(scan_min - lows[0]) <= tol, name
        if lows[1] - lows[0] > tol:
            assert scan_t == t_w and np.max(np.abs(scan_ket - ket)) <= 1e-15, name
            if verdict != "cp-consistent":
                assert check.witness_time == t_w, name
                assert np.max(np.abs(check.witness_ket - ket)) <= 1e-15, name
        verdicts.add(verdict)
    assert verdicts == {"cp-consistent", "positivity-violating", "inconclusive"}


def test_map_check_exponentiates_once(monkeypatch):
    calls = []
    monkeypatch.setattr(diagnostics, "expm", lambda a: calls.append(a.shape) or expm(a))
    k = build_kernel(FIX3, FIX3_COUPLING, FIX3_BATH, "redfield-in")
    check = map_check(build_liouvillian(FIX3, k), k)
    assert calls == [(3, 9, 9)]
    assert check.verdict == "inconclusive"


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


def test_empty_probe_set_certifies_nothing(monkeypatch):
    monkeypatch.setattr(diagnostics, "expm", None)      # no exponential is computed
    k = build_kernel(QUBIT, hermitian_channel(SIGMA_X), flat_spectrum(1, 0.3),
                     "lindblad")
    liouv = build_liouvillian(QUBIT, k)
    for probe in (lambda: map_check(liouv, k, t_probes=()),
                  lambda: positivity_scan(liouv, ()),
                  lambda: choi_spectrum(liouv, [])):
        with pytest.raises(InputError, match="t_probes"):
            probe()
