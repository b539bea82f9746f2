"""End-to-end runs of the batch front-end, in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmekit.kernels as kernels
from qmekit.cli import main, parse_config
from qmekit.diagnostics import flip_gain_sign
from qmekit.dynamics import NONLOCAL_DIM_LIMIT
from qmekit.io import canonical_dumps, complex_matrix_from_json


def as_json_matrix(m):
    m = np.asarray(m, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in m]


SIGMA_MINUS = as_json_matrix([[0, 1], [0, 0]])
SIGMA_X = as_json_matrix([[0, 1], [1, 0]])


def qubit_doc(bath=None, experiment=None, **extra):
    doc = {
        "spectrum": {"levels": [0.0, 1.0]},
        "couplings": {"kind": "ladder", "matrix": SIGMA_MINUS},
        "bath": bath or {"kind": "flat", "rate": 0.3},
    }
    if experiment is not None:
        doc["experiment"] = experiment
    doc.update(extra)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, command, doc, *flags):
    cfg = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--out", str(out), *flags]), out


def test_build_kernel_writes_csv_and_report(tmp_path, capsys):
    rc, out = run(tmp_path, "build-kernel", qubit_doc())
    assert rc == 0
    assert "trace residual:" in capsys.readouterr().out
    lines = (out / "kernel-lindblad.csv").read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 17
    report = json.loads((out / "kernel-lindblad-report.json").read_text())
    assert report["dim"] == 2
    assert report["variant"]["tag"] == "lindblad"
    assert report["trace_residual"] < 1e-12
    assert len(report["provenance"]["config_sha256"]) == 64


def test_build_kernel_variant_flag_and_json_payload(tmp_path):
    doc = qubit_doc(experiment={"omega": 1.3})
    rc, out = run(tmp_path, "build-kernel", doc, "--variant", "born",
                  "--format", "json")
    assert rc == 0
    env = json.loads((out / "kernel-born.json").read_text())
    assert env["variant"]["tag"] == "born"
    assert env["variant"]["omega"] == 1.3
    k = complex_matrix_from_json(env["entries"])
    assert k.shape == (4, 4)
    assert env["max_abs_entry"] == pytest.approx(np.max(np.abs(k)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_build_kernel_scans_the_kernel_once(tmp_path, monkeypatch, fmt):
    calls = []
    residual = kernels.trace_condition_residual

    def counting(k):
        calls.append(k)
        return residual(k)

    # patched where it is defined and, should cli import it by name, there
    monkeypatch.setattr(kernels, "trace_condition_residual", counting)
    monkeypatch.setattr("qmekit.cli.trace_condition_residual", counting,
                        raising=False)
    rc, _ = run(tmp_path, "build-kernel", qubit_doc(), "--format", fmt)
    assert rc == 0 and len(calls) == 1


def test_cli_import_leaves_the_integrator_out():
    # only the adaptive propagator needs scipy.integrate, the largest import
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, qmekit.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_build_kernel_rejects_unknown_variant(tmp_path, capsys):
    rc, _ = run(tmp_path, "build-kernel", qubit_doc(), "--variant", "bogus")
    assert rc == 2
    assert "--variant" in capsys.readouterr().err


def test_zero_coupling_yields_zero_kernel(tmp_path):
    doc = qubit_doc()
    doc["couplings"]["matrix"] = as_json_matrix(np.zeros((2, 2)))
    rc, out = run(tmp_path, "build-kernel", doc)
    assert rc == 0
    body = np.loadtxt(out / "kernel-lindblad.csv", delimiter=",", skiprows=1)
    assert np.all(body[:, 1:] == 0.0)


def test_malformed_tabulated_csv_names_the_row(tmp_path, capsys):
    table = tmp_path / "bath.csv"
    table.write_text('omega,"re[S,S]","im[S,S]"\n-1.0,0.5,0\n0.5,nope,0\n')
    doc = {
        "spectrum": {"levels": [0.0, 1.0]},
        "couplings": {"kind": "hermitian", "matrix": SIGMA_X},
        "bath": {"kind": "tabulated", "path": str(table)},
    }
    rc, _ = run(tmp_path, "build-kernel", doc)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bath:")
    assert "row 3" in err


def test_evolve_matches_rate_equation(tmp_path):
    doc = qubit_doc(experiment={
        "variant": "lindblad",
        "t_grid": {"start": 0.0, "stop": 10.0, "num": 41},
        "initial_state": {"kind": "excited"},
    })
    rc, out = run(tmp_path, "evolve", doc)
    assert rc == 0
    body = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    t = body[:, 0]
    # flat bath drives both directions at 0.3, so p_e decays to 1/2 at
    # the summed rate
    want = 0.5 + 0.5 * np.exp(-0.6 * t)
    assert np.max(np.abs(body[:, 7] - want)) < 1e-10
    diag = json.loads((out / "evolve-diagnostics.json").read_text())
    assert diag["markov"]["trace_drift_max"] < 1e-10
    assert diag["markov"]["method"] == "expm"


def test_evolve_json_payload(tmp_path):
    doc = qubit_doc(experiment={
        "t_grid": {"start": 0.0, "stop": 1.0, "num": 5},
    })
    rc, out = run(tmp_path, "evolve", doc, "--format", "json")
    assert rc == 0
    traj = json.loads((out / "trajectory.json").read_text())
    assert set(traj) == {"times", "states", "trace_drift_max",
                         "herm_defect_max", "min_eigenvalue", "method"}
    states = complex_matrix_from_json(traj["states"])
    assert states.shape == (5, 2, 2)
    assert abs(states[0, 1, 1] - 1.0) < 1e-15


def test_evolve_nonlocal_pairing(tmp_path):
    doc = qubit_doc(
        bath={"kind": "gaussian", "rate": 0.1, "width": 5.0},
        experiment={
            "variant": "redfield-in",
            "t_grid": {"start": 0.0, "stop": 2.0, "num": 201},
            "initial_state": {"kind": "excited"},
            "nonlocal": {
                "tau_grid": {"start": 0.0, "stop": 1.0, "num": 101},
                "tau_memory": 1.0,
            },
        })
    rc, out = run(tmp_path, "evolve", doc)
    assert rc == 0
    assert (out / "trajectory-nonlocal.csv").exists()
    diag = json.loads((out / "evolve-diagnostics.json").read_text())
    nl = diag["nonlocal"]
    assert nl["trace_drift_max"] < 1e-8
    assert 0.0 <= nl["max_trace_distance_to_markov"] < 0.1


@pytest.mark.parametrize("d, width, tau_num, error", [
    (2, 10.0, 5, "tau grid too coarse"),
    (NONLOCAL_DIM_LIMIT + 1, 1.0, 101, f"supports d <= {NONLOCAL_DIM_LIMIT}"),
], ids=["coarse-tau-grid", "too-many-levels"])
def test_failed_nonlocal_run_writes_nothing(tmp_path, capsys, d, width, tau_num,
                                            error):
    doc = {
        "spectrum": {"levels": [float(p) for p in range(d)]},
        "couplings": {"kind": "ladder", "matrix": as_json_matrix(np.eye(d, k=1))},
        "bath": {"kind": "gaussian", "rate": 0.1, "width": width},
        "experiment": {
            "t_grid": {"start": 0.0, "stop": 1.0, "num": 11},
            "nonlocal": {"tau_grid": {"start": 0.0, "stop": 1.0, "num": tau_num},
                         "tau_memory": 1.0},
        },
    }
    rc, out = run(tmp_path, "evolve", doc)
    assert rc == 2
    assert error in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_only_build_kernel_computes_kernel_provenance(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("kernel provenance computed")

    monkeypatch.setattr("qmekit.cli.kernel_provenance", unused)
    for command in ("evolve", "steady-state", "block-report"):
        rc, _ = run(tmp_path, command, qubit_doc())
        assert rc == 0, command
    with pytest.raises(AssertionError, match="kernel provenance computed"):
        run(tmp_path, "build-kernel", qubit_doc())


def test_steady_state_thermal_ratio(tmp_path, capsys):
    beta = 1.3
    doc = qubit_doc(bath={"kind": "thermal-ohmic", "coupling": 0.2,
                          "cutoff": 5.0, "beta": beta})
    rc, out = run(tmp_path, "steady-state", doc)
    assert rc == 0
    assert "multiplicity: 1" in capsys.readouterr().out
    report = json.loads((out / "steady-state.json").read_text())
    assert report["multiplicity"] == 1
    assert report["states"][0]["trace_normalized"] is True
    rho = complex_matrix_from_json(report["states"][0]["matrix"])
    assert abs(rho[1, 1] / rho[0, 0] - np.exp(-beta)) < 1e-10


def test_steady_state_reports_unitary_multiplicity(tmp_path, capsys):
    doc = qubit_doc()
    doc["couplings"]["matrix"] = as_json_matrix(np.zeros((2, 2)))
    rc, _ = run(tmp_path, "steady-state", doc)
    assert rc == 0
    assert "multiplicity: 2" in capsys.readouterr().out


def test_compare_reports_qubit_coincidence(tmp_path, capsys):
    rc, out = run(tmp_path, "compare", qubit_doc())
    assert rc == 0
    text = capsys.readouterr().out
    assert "energy-conserving == lindblad: yes" in text
    rep = json.loads((out / "compare.json").read_text())
    assert rep["ec_equals_lindblad"] is True
    assert rep["in_out"]["n_entries"] == 0
    assert all(v["max_abs_diff"] == 0.0 for v in rep["pairs"].values())


def test_block_report_flags_degenerate_mixing(tmp_path, capsys):
    doc = {
        "spectrum": {"levels": [0.0, 1.0, 1.0]},
        "couplings": {"kind": "hermitian", "matrix": as_json_matrix(
            [[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]])},
        "bath": {"kind": "flat", "rate": 0.2},
        "experiment": {"variant": "energy-conserving"},
    }
    rc, out = run(tmp_path, "block-report", doc)
    assert rc == 0
    assert "populations feed coherences: True" in capsys.readouterr().out
    rep = json.loads((out / "block-report.json").read_text())
    assert rep["degeneracy_classes"] == [[0], [1, 2]]
    assert rep["coherences_feed_populations"] is True


def strong_flat_doc(d=16, rate=1e3):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return {
        "spectrum": {"levels": np.sort(rng.uniform(0.0, 4.0, d)).tolist()},
        "couplings": {"kind": "hermitian", "matrix": as_json_matrix((m + m.conj().T) / 2)},
        "bath": {"kind": "flat", "rate": rate},
    }


@pytest.mark.parametrize("variant", ["redfield-in", "lindblad"])
def test_trace_gate_scales_with_the_kernel(tmp_path, variant):
    # correct kernels with entries ~1e4: rounding alone puts the trace
    # residual above 1e-12, so only a gate relative to max|K| passes them
    rc, out = run(tmp_path, "build-kernel", strong_flat_doc(), "--variant", variant)
    report = json.loads((out / f"kernel-{variant}-report.json").read_text())
    assert report["trace_residual"] > 1e-12
    assert report["trace_residual"] < 1e-14 * report["max_abs_entry"]
    assert rc == 0


def test_trace_gate_fails_a_kernel_that_leaks_trace(tmp_path, monkeypatch):
    monkeypatch.setattr("qmekit.cli.build_kernel",
                        lambda spectrum, couplings, bath, *a, **kw:
                        flip_gain_sign(spectrum, couplings, bath))
    rc, out = run(tmp_path, "build-kernel", strong_flat_doc(d=4, rate=0.3))
    report = json.loads((out / "kernel-lindblad-report.json").read_text())
    assert report["trace_residual"] > 0.1 * report["max_abs_entry"]
    assert rc == 1


def validate_doc(eta):
    return qubit_doc(
        experiment={"initial_state": {"kind": "excited"}},
        validate={"eta": eta, "omega_band": 5.0, "n_modes": 60,
                  "t_star": 30.0, "num": 121},
    )


def test_validate_weak_coupling_contracts_in_band(tmp_path, capsys):
    rc, out = run(tmp_path, "validate", validate_doc(2e-5))
    assert rc == 0
    assert "contraction ratios:" in capsys.readouterr().out
    rep = json.loads((out / "validate.json").read_text())
    assert rep["in_band"] is True
    assert all(3.0 <= r <= 5.0 for r in rep["ratios"])
    assert rep["quadrature"]["rule"] == "gauss-legendre"


def test_validate_strong_coupling_breaches(tmp_path, capsys):
    rc, out = run(tmp_path, "validate", validate_doc(2e-3))
    assert rc == 1
    rep = json.loads((out / "validate.json").read_text())
    assert rep["in_band"] is False


def test_validate_requires_its_section(tmp_path, capsys):
    rc, _ = run(tmp_path, "validate", qubit_doc())
    assert rc == 2
    assert "validate: section missing" in capsys.readouterr().err


def test_deterministic_reruns_are_byte_identical(tmp_path):
    doc = qubit_doc(bath={"kind": "thermal-ohmic", "coupling": 0.2,
                          "cutoff": 5.0, "beta": 2.0})
    cfg = write_doc(tmp_path, doc)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["build-kernel", "--config", cfg, "--out", str(out),
                   "--format", "json", "--seed", "7"])
        assert rc == 0
        outs.append(out)
    for fname in ("kernel-lindblad.json", "kernel-lindblad-report.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_seed_override_enters_provenance(tmp_path):
    cfg = write_doc(tmp_path, qubit_doc())
    hashes = []
    for seed in ("7", "8"):
        out = tmp_path / seed
        rc = main(["build-kernel", "--config", cfg, "--out", str(out),
                   "--seed", seed])
        assert rc == 0
        report = json.loads((out / "kernel-lindblad-report.json").read_text())
        assert report["provenance"]["seed"] == int(seed)
        hashes.append(report["provenance"]["config_sha256"])
    assert hashes[0] != hashes[1]


def test_missing_config_file(tmp_path, capsys):
    rc = main(["evolve", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error: --config:" in capsys.readouterr().err


def test_config_must_be_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["evolve", "--config", str(path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_errors_name_the_field(tmp_path, capsys):
    doc = qubit_doc()
    doc["spectrum"]["levels"] = [0.0, "x"]
    rc, _ = run(tmp_path, "build-kernel", doc)
    assert rc == 2
    assert "spectrum.levels[1]" in capsys.readouterr().err


def test_unknown_section_is_rejected(tmp_path, capsys):
    rc, _ = run(tmp_path, "build-kernel", qubit_doc(typo_section={"x": 1}))
    assert rc == 2
    assert "typo_section: unknown top-level section" in capsys.readouterr().err


OHMIC = {"kind": "thermal-ohmic", "coupling": 0.2, "cutoff": 5.0, "beta": 1.3}
EXCITED = {"kind": "excited"}


@pytest.mark.parametrize("where, doc", [
    ("experiment.varaint", qubit_doc(experiment={"varaint": "born"})),
    ("spectrum.eps", qubit_doc(spectrum={"levels": [0.0, 1.0], "eps": 0.1})),
    ("couplings.adjoint_map",
     qubit_doc(couplings={"kind": "ladder", "matrix": SIGMA_MINUS, "adjoint_map": [1, 0]})),
    ("couplings.matrices[1].adjoint",
     qubit_doc(couplings={"kind": "explicit", "adjoint_map": [1, 0], "matrices": [
         {"label": "L", "matrix": SIGMA_MINUS},
         {"label": "Ld", "matrix": as_json_matrix([[0, 0], [1, 0]]), "adjoint": 0}]})),
    ("bath.width", qubit_doc(bath=dict(OHMIC, width=1.0))),
    ("bath.beta", qubit_doc(bath={"kind": "flat", "rate": 0.3, "beta": 1.0})),
    ("experiment.t_grid.step",
     qubit_doc(experiment={"t_grid": {"start": 0, "stop": 1, "num": 3, "step": 0.5}})),
    ("experiment.initial_state.matrix",
     qubit_doc(experiment={"initial_state": dict(EXCITED, matrix=SIGMA_X)})),
    ("experiment.nonlocal.tau_step",
     qubit_doc(experiment={"nonlocal": {"tau_grid": [0, 1], "tau_memory": 1,
                                        "tau_step": 1}})),
    ("validate.n_mode", qubit_doc(validate={"eta": 0.01, "omega_band": 5.0, "n_modes": 4,
                                            "t_star": 2.0, "n_mode": 4})),
])
def test_unknown_keys_are_rejected_with_their_path(tmp_path, capsys, where, doc):
    rc, out = run(tmp_path, "evolve", doc)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {where}: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize("section", [0, [], "", [{"tau_memory": 1}]])
def test_nonlocal_section_must_be_an_object(tmp_path, capsys, section):
    rc, out = run(tmp_path, "evolve", qubit_doc(experiment={"nonlocal": section}))
    assert rc == 2
    assert capsys.readouterr().err == "error: experiment.nonlocal: expected an object\n"
    assert not out.exists()


@pytest.mark.parametrize("where, doc", [
    ("bath.cutoff", qubit_doc(bath=dict(OHMIC, cutoff=float("nan")))),
    ("bath.beta", qubit_doc(bath=dict(OHMIC, beta=float("nan")))),
    ("bath.beta", qubit_doc(bath=dict(OHMIC, beta=-float("inf")))),
    ("bath.rate", qubit_doc(bath={"kind": "flat", "rate": float("inf")})),
    ("spectrum.levels[1]", qubit_doc(spectrum={"levels": [0.0, float("inf")]})),
    ("experiment.omega", qubit_doc(experiment={"omega": float("nan")})),
])
def test_non_finite_numbers_are_rejected_with_their_path(tmp_path, capsys, where, doc):
    rc, out = run(tmp_path, "build-kernel", doc)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: expected a finite number")
    assert not out.exists()


def test_vacuum_bath_takes_infinite_beta(tmp_path):
    rc, out = run(tmp_path, "steady-state", qubit_doc(bath=dict(OHMIC, beta=float("inf"))))
    assert rc == 0
    report = json.loads((out / "steady-state.json").read_text())
    ground = complex_matrix_from_json(report["states"][0]["matrix"])
    assert np.allclose(ground, [[1, 0], [0, 0]], atol=1e-12)


def test_invalid_initial_state_is_rejected(tmp_path, capsys):
    doc = qubit_doc(experiment={
        "initial_state": {"kind": "matrix",
                          "matrix": as_json_matrix([[1.5, 0], [0, 0]])},
    })
    rc, _ = run(tmp_path, "evolve", doc)
    assert rc == 2
    assert "experiment.initial_state" in capsys.readouterr().err


def test_parse_serialize_round_trip():
    doc = qubit_doc(
        bath={"kind": "thermal-ohmic", "coupling": 0.2, "cutoff": 5.0,
              "beta": 2.0},
        experiment={
            "variant": "redfield-out",
            "omega": 0.4,
            "t_grid": [0.0, 0.5, 2.0],
            "initial_state": {"kind": "maximally-mixed"},
            "seed": 3,
        })
    cfg = parse_config(json.dumps(doc))
    again = parse_config(cfg.normalized)
    assert canonical_dumps(again.normalized) == canonical_dumps(cfg.normalized)
