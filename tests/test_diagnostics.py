"""Positivity probes, verdicts, and the variant comparison report."""

import numpy as np
import pytest
from scipy.linalg import expm

from qmekit.bath import flat_spectrum, thermal_ohmic_spectrum
from qmekit.core import InputError, Superoperator, build_spectrum, hermitian_channel, ladder_channels
from qmekit.kernels import build_kernel, trace_condition_residual
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
