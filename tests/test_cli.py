"""End-to-end runs of the batch front-end, in process."""

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import qmekit.bath as bath
import qmekit.core as core
import qmekit.kernels as kernels
from qmekit.bath import write_tabulated_csv
from qmekit.cli import COMMANDS, main, parse_config
from qmekit.diagnostics import flip_gain_sign
from qmekit.dynamics import (
    NONLOCAL_DIM_LIMIT, block_structure_report, build_liouvillian, evolve_nonlocal,
)
from qmekit.io import canonical_dumps, complex_matrix_from_json, complex_matrix_to_json

# no numpy warning may reach stderr, on any exit
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def run_python(code, *args):
    """Run code in a fresh interpreter on this checkout; its stdout lines."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


SCIPY_LOADED = ("def scipy_loaded():\n"
                "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n")


def test_cli_import_leaves_the_integrator_out():
    # scipy is imported on first use, by the propagators only
    code = ("import importlib, sys\n" + SCIPY_LOADED +
            "for name in ('qmekit', 'qmekit.cli'):\n"
            "    importlib.import_module(name)\n"
            "    print(name, scipy_loaded())\n")
    assert run_python(code) == ["qmekit []", "qmekit.cli []"]


def test_cli_import_leaves_the_csv_formatter_tables_unbuilt():
    # the tables are built on the first dense CSV chunk, not at start-up
    code = ("import qmekit.cli, qmekit.io\n"
            "print(qmekit.io._g17_tables.cache_info().currsize)\n")
    assert run_python(code) == ["0"]


def test_only_the_propagating_commands_load_scipy(tmp_path):
    # dynamics.expm is numpy alone, so evolve loads no scipy; only the rk
    # path (forced here with EXPM_DIM_LIMIT = 0) imports scipy.integrate.
    # validate runs the one-excitation sector, never the sparse oracle
    code = ("import json, sys\n"
            "import qmekit.dynamics as dynamics\n"
            "from qmekit.cli import main\n" + SCIPY_LOADED +
            "argv, rows = ['--config', sys.argv[1], '--out', sys.argv[2]], []\n"
            "for command in ('build-kernel', 'steady-state', 'compare', 'block-report',\n"
            "                'validate', 'evolve'):\n"
            "    rows.append([command, main([command, *argv]), bool(scipy_loaded())])\n"
            "dynamics.EXPM_DIM_LIMIT = 0\n"
            "rows.append(['evolve rk', main(['evolve', *argv]),\n"
            "             'scipy.integrate' in scipy_loaded()])\n"
            "print(json.dumps(rows))\n")
    rows = json.loads(run_python(code, write_doc(tmp_path, dict(README_DOC, validate=VALIDATE)),
                                 str(tmp_path / "out"))[-1])
    assert rows == [["build-kernel", 0, False], ["steady-state", 0, False],
                    ["compare", 0, False], ["block-report", 0, False],
                    ["validate", 0, False], ["evolve", 0, False], ["evolve rk", 0, True]]


def test_build_kernel_rejects_unknown_variant(tmp_path, capsys):
    rc, _ = run(tmp_path, "build-kernel", qubit_doc(), "--variant", "bogus")
    assert rc == 2
    assert "--variant" in capsys.readouterr().err


# the flag slots that no command reads: 30 slots less these 9 leaves 21
@pytest.mark.parametrize("command, flag, value", [
    ("evolve", "--variant", "lindblad"),
    *[(command, flag, value)
      for command in ("steady-state", "compare", "validate", "block-report")
      for flag, value in (("--variant", "lindblad"), ("--format", "json"))],
])
def test_a_flag_the_command_does_not_read_is_an_argv_error(tmp_path, capsys, command,
                                                           flag, value):
    rc, out = run(tmp_path, command, qubit_doc(), flag, value)
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, rc", [
    (["evolve"], 2), (["evolve", "--config", "c.json", "--seed", "x"], 2),
    (["bogus-command"], 2), (["evolve", "--help"], 0), (["--help"], 0),
], ids=["no-config", "bad-seed", "bad-command", "command-help", "help"])
def test_argv_exit_codes_are_returned(capsys, argv, rc):
    assert main(argv) == rc


@pytest.mark.parametrize("argv, message", [
    (["build-kernel", "--config", "{cfg}", "--out", "{out}", "--form", "json"],
     "qmekit: error: unrecognized arguments: --form json\n"),
    (["steady-state", "--config", "{cfg}", "--o", "{out}"],
     "qmekit: error: unrecognized arguments: --o {out}\n"),
    # --conf is no spelling of --config, so --config is missing
    (["evolve", "--conf", "{cfg}", "--out", "{out}"],
     "qmekit evolve: error: the following arguments are required: --config\n"),
], ids=["form", "o", "conf"])
def test_each_flag_has_one_spelling(tmp_path, capsys, argv, message):
    paths = {"cfg": write_doc(tmp_path, qubit_doc()), "out": tmp_path / "out"}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.endswith(message.format(**paths))
    assert not paths["out"].exists()


def test_main_builds_no_parser(tmp_path, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    rc, out = run(tmp_path, "build-kernel", qubit_doc(), "--format", "json")
    assert rc == 0
    assert (out / "kernel-lindblad.json").exists()


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



D_COHERENT = 4
ONE_COHERENCE = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
ONE_COHERENCE[0, 3], ONE_COHERENCE[3, 0] = 0.3j, -0.3j


def generic_doc(variant, initial_state, d=D_COHERENT):
    """Generic levels, a dense hermitian coupling, 21 points on [0, 5]."""
    rng = np.random.default_rng(d)
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    return {"spectrum": {"levels": np.sort(rng.uniform(0.0, 4.0, d)).tolist()},
            "couplings": {"kind": "hermitian", "matrix": as_json_matrix(m + m.conj().T)},
            "bath": {"kind": "thermal-ohmic", "coupling": 0.2, "cutoff": 5.0, "beta": 1.0},
            "experiment": {"variant": variant, "initial_state": initial_state,
                           "t_grid": {"start": 0.0, "stop": 5.0, "num": 21}}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant", ["lindblad", "redfield-in"])
@pytest.mark.parametrize("initial_state", [
    {"kind": "ground"}, {"kind": "excited"}, {"kind": "maximally-mixed"},
    {"kind": "matrix", "matrix": as_json_matrix(ONE_COHERENCE)},
], ids=["ground", "excited", "maximally-mixed", "one-coherence"])
def test_evolve_reports_the_exponential_and_the_dense_diagnostics(tmp_path, fmt, variant,
                                                                  initial_state):
    # the covariant (lindblad) run propagates only the Bohr bins the start
    # occupies, and a diagonal trajectory takes its diagnostics off the
    # diagonal; redfield-in is one block and fills every coherence
    d = D_COHERENT
    doc = generic_doc(variant, initial_state)
    rc, out = run(tmp_path, "evolve", doc, "--format", fmt)
    assert rc == 0
    health = json.loads((out / "evolve-diagnostics.json").read_text())["markov"]
    if fmt == "csv":
        body = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        t, min_eig = body[:, 0], body[:, -1]
        states = body[:, 1:-2].view(complex).reshape(len(t), d, d)
    else:
        report = json.loads((out / "trajectory.json").read_text())
        assert {k: report[k] for k in health} == health
        t, states = np.array(report["times"]), complex_matrix_from_json(report["states"])
        min_eig = None
    cfg = parse_config(json.dumps(doc))
    liouv = build_liouvillian(cfg.spectrum, kernels.build_kernel(
        cfg.spectrum, cfg.couplings, cfg.bath, variant))
    rho0 = cfg.experiment.initial_state
    want = (expm(liouv.data * t[:, None, None]) @ rho0.ravel()).reshape(len(t), d, d)
    assert np.max(np.abs(states - want)) < 1e-12
    if variant == "lindblad":
        # every Bohr bin but the zero bin is one pair: the state keeps
        # exactly the coherences it starts with
        off = ~np.eye(d, dtype=bool)
        assert np.array_equal(states[:, off] != 0,
                              np.broadcast_to(rho0[off] != 0, (len(t), d * d - d)))
    adjoint = np.conj(np.swapaxes(states, 1, 2))
    herm = np.max(np.abs(states - adjoint), axis=(1, 2))
    dense_min = np.linalg.eigvalsh((states + adjoint) / 2)[:, 0]
    assert health["herm_defect_max"] == np.max(herm)
    assert health["min_eigenvalue"] == np.min(dense_min)
    if min_eig is not None:
        assert np.array_equal(min_eig, dense_min)


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


T_GRID = {"start": 0.0, "stop": 1.0, "num": 11}
TAU_GRID = {"start": 0.0, "stop": 1.0, "num": 101}


@pytest.mark.parametrize("d, width, t_grid, tau_grid, tau_memory, error", [
    (2, 10.0, T_GRID, dict(TAU_GRID, num=5), 1.0, "tau grid too coarse: band edge "
     "pi/dtau = 12.5664 is below the spectral support 80 of kind 'gaussian'"),
    (NONLOCAL_DIM_LIMIT + 1, 1.0, T_GRID, TAU_GRID, 1.0,
     f"nonlocal propagation supports d <= {NONLOCAL_DIM_LIMIT}"),
    (2, 1.0, T_GRID, TAU_GRID, 2.0, "tau_memory must lie inside the tau grid"),
    (2, 1.0, T_GRID, dict(TAU_GRID, start=0.5), 0.5,
     "tau grid must be uniform, increasing, starting at 0"),
    (2, 1.0, [0.0, 0.1, 0.3, 0.4], TAU_GRID, 1.0,
     "nonlocal propagation needs a uniform time grid"),
], ids=["coarse-tau-grid", "too-many-levels", "memory-past-the-grid", "tau-from-0.5",
        "non-uniform-t-grid"])
def test_failed_nonlocal_run_writes_nothing(tmp_path, capsys, monkeypatch, d, width,
                                            t_grid, tau_grid, tau_memory, error):
    # every command judges the section alike, at parse time, before any numerics
    def unreached(*args, **kwargs):
        raise AssertionError("numerics ran before the nonlocal checks")

    for name in ("qmekit.cli.build_kernel", "qmekit.bath.time_correlation",
                 "qmekit.cli.evolve_markov"):
        monkeypatch.setattr(name, unreached)
    doc = {
        "spectrum": {"levels": [float(p) for p in range(d)]},
        "couplings": {"kind": "ladder", "matrix": as_json_matrix(np.eye(d, k=1))},
        "bath": {"kind": "gaussian", "rate": 0.1, "width": width},
        "experiment": {
            "t_grid": t_grid,
            "nonlocal": {"tau_grid": tau_grid, "tau_memory": tau_memory},
        },
    }
    for command in ("build-kernel", "evolve", "steady-state", "compare", "block-report"):
        rc, out = run(tmp_path, command, doc)
        assert rc == 2, command
        assert capsys.readouterr().err == f"error: experiment.nonlocal: {error}\n", command
        assert not out.exists(), command


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_evolve_is_a_breach_that_writes_nothing(tmp_path, capsys, fmt):
    # a finite rate so large that the propagated states overflow
    doc = qubit_doc(bath={"kind": "flat", "rate": 1e300})
    rc, out = run(tmp_path, "evolve", doc, "--format", fmt)
    assert rc == 1
    assert capsys.readouterr().err == (
        "invariant breach: propagated state is not finite from t=0.1 on\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rate", [1e12, 1e16])
def test_evolve_that_loses_trace_is_a_breach_that_writes_nothing(tmp_path, capsys, rate):
    # stiff enough that the exponentials keep the states finite but lose
    # their trace (a drift near 8e-4 at 1e12 and 236 at 1e16)
    rc, out = run(tmp_path, "evolve", qubit_doc(bath={"kind": "flat", "rate": rate}))
    assert rc == 1
    err = re.fullmatch(r"invariant breach: the markov trajectory loses trace: "
                       r"drift (\S+) > 1e-08\n", capsys.readouterr().err)
    assert err and float(err[1]) > 1e-4
    assert list(out.iterdir()) == []


def test_nonlocal_trajectory_that_loses_trace_is_a_breach(tmp_path, capsys, monkeypatch):
    def leaky(*args):
        traj = evolve_nonlocal(*args)
        return dataclasses.replace(traj, trace_drift=traj.trace_drift + 2e-8)

    monkeypatch.setattr("qmekit.cli.evolve_nonlocal", leaky)
    doc = qubit_doc(bath={"kind": "gaussian", "rate": 0.1, "width": 5.0}, experiment={
        "t_grid": T_GRID, "nonlocal": {"tau_grid": TAU_GRID, "tau_memory": 0.5}})
    rc, out = run(tmp_path, "evolve", doc)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "invariant breach: the nonlocal trajectory loses trace: drift 2e-08 > 1e-08")
    assert list(out.iterdir()) == []


def test_allocation_failure_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.00 GiB for an array")

    monkeypatch.setattr("qmekit.cli.build_kernel", too_large)
    rc, out = run(tmp_path, "build-kernel", qubit_doc())
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'config.json'}: Unable to allocate 5.00 GiB for an array\n")
    assert list(out.iterdir()) == []


def test_allocation_failure_without_a_message_says_out_of_memory(tmp_path, capsys,
                                                                   monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qmekit.cli.build_kernel", too_large)
    rc, out = run(tmp_path, "build-kernel", qubit_doc())
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'config.json'}: out of memory\n"
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


def test_compare_chains_the_bohr_differences_once(tmp_path, monkeypatch):
    # the parser checks the Bohr bins and both kernel builders reuse them
    callers, chain = [], core._chain

    def counted(values, eps):
        callers.append(sys._getframe(1).f_code.co_name)
        return chain(values, eps)

    monkeypatch.setattr(core, "_chain", counted)
    doc = qubit_doc(spectrum={"levels": [0.0, 1.0, 2.5]},
                    couplings={"kind": "hermitian", "matrix": as_json_matrix(np.ones((3, 3)))})
    rc, _ = run(tmp_path, "compare", doc)
    assert rc == 0
    assert sorted(callers) == ["_bohr_bins", "build_spectrum"]


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


@pytest.mark.parametrize("variant", ["energy-conserving", "redfield-in", "lindblad"])
def test_block_report_file_is_the_library_document(tmp_path, variant):
    # block-report.json is block_structure_report's document plus
    # provenance and variant, bit for bit
    doc = {
        "spectrum": {"levels": [0.0, 1.0, 1.0]},
        "couplings": {"kind": "hermitian", "matrix": as_json_matrix(
            [[0.0, 0.7, 0.3], [0.7, 0.0, 0.55], [0.3, 0.55, 0.0]])},
        "bath": {"kind": "flat", "rate": 0.2},
        "experiment": {"variant": variant},
    }
    rc, out = run(tmp_path, "block-report", doc)
    assert rc == 0
    written = json.loads((out / "block-report.json").read_text())
    assert written.pop("variant") == variant
    assert written.pop("provenance")
    cfg = parse_config(json.dumps(doc))
    rep = block_structure_report(cfg.spectrum, kernels.build_kernel(
        cfg.spectrum, cfg.couplings, cfg.bath, variant))
    assert canonical_dumps(written) == canonical_dumps(rep)
    assert rep["cross_entries"]


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


VALIDATE = {"eta": 2e-5, "omega_band": 5.0, "n_modes": 60, "t_star": 30.0, "num": 121}


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


@pytest.mark.parametrize("doc, error", [
    (qubit_doc(experiment={"initial_state": {"kind": "ground"}}, validate=VALIDATE),
     "trace distance to the exact evolution is 0 at scale 1; "
     "the contraction ratios are undefined"),
    # LAPACK's eigh gives up on this finite sector Hamiltonian here; where
    # it converges, the kernel overflows instead
    (qubit_doc(couplings={"kind": "ladder", "matrix": as_json_matrix([[0, 1e300], [0, 0]])},
               validate=dict(VALIDATE, n_modes=20, t_star=10.0)), ""),
], ids=["stationary-state", "coupling-out-of-range"])
def test_validate_without_a_measurable_deviation_is_a_breach(tmp_path, capsys, doc, error):
    rc, out = run(tmp_path, "validate", doc)
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"invariant breach: {error}")
    assert list(out.iterdir()) == []


def test_validate_horizon_past_the_recurrence_guard_names_the_field(tmp_path, capsys):
    doc = qubit_doc(experiment={"initial_state": {"kind": "excited"}},
                    validate=dict(VALIDATE, n_modes=10))
    rc, out = run(tmp_path, "validate", doc)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: validate.t_star: requested horizon 30 exceeds the recurrence "
        "guard 5.80638 for this mode grid\n")
    assert list(out.iterdir()) == []


def test_validate_past_the_oracle_dimension_cap_names_the_field(tmp_path, capsys):
    # a ladder that is not c sigma-minus leaves the one-excitation sector
    doc = qubit_doc(couplings={"kind": "ladder", "matrix": SIGMA_X},
                    experiment={"initial_state": {"kind": "excited"}}, validate=VALIDATE)
    rc, out = run(tmp_path, "validate", doc)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: validate.n_modes: Hilbert dimension 2305843009213693952 exceeds "
        "the cap 4096\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("n_modes", [4095, 8000])
def test_validate_checks_its_mode_count_before_any_numerics(tmp_path, capsys, monkeypatch,
                                                            n_modes):
    # n_modes + 2 levels, the one-excitation sector, is the smallest exact
    # run, so a larger count is refused before the modes are computed
    def no_modes(*args):
        raise AssertionError("validate computed the bath modes")

    monkeypatch.setattr("qmekit.cli.gauss_legendre_modes", no_modes)
    doc = qubit_doc(experiment={"initial_state": {"kind": "excited"}},
                    validate=dict(VALIDATE, n_modes=n_modes))
    rc, out = run(tmp_path, "validate", doc)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: validate.n_modes: Hilbert dimension {n_modes + 2} exceeds the cap 4096\n")
    assert list(out.iterdir()) == []
    assert run(tmp_path, "compare", doc)[0] == 0       # the other commands take it


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
@pytest.mark.parametrize("extra", [0.1, 0.3])
@pytest.mark.parametrize("n_modes", [4, 8])
def test_validate_rejects_a_ladder_outside_the_one_excitation_sector(
        tmp_path, capsys, monkeypatch, entry, extra, n_modes):
    # the exact run holds one excitation, which only c sigma-minus keeps
    matrix = np.array([[0, 1], [0, 0]], dtype=complex)
    matrix[entry] = extra
    doc = qubit_doc(couplings={"kind": "ladder", "matrix": as_json_matrix(matrix)},
                    experiment={"initial_state": {"kind": "excited"}},
                    validate=dict(VALIDATE, n_modes=n_modes, t_star=0.5))

    def no_exact_run(*args):
        raise AssertionError("validate ran the exact evolution")

    monkeypatch.setattr("qmekit.cli.exact_reduced_evolution", no_exact_run)
    rc, out = run(tmp_path, "validate", doc)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: couplings: validate needs c sigma-minus, a ladder whose only "
        "nonzero entry is matrix[0][1]: its exact run holds one excitation\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("doc, message", [
    (qubit_doc(), "section missing from config"),
    (qubit_doc(spectrum={"levels": [0.0, 1.0, 2.0]}, validate=VALIDATE,
               couplings={"kind": "ladder", "matrix": as_json_matrix(np.eye(3, k=1))}),
     "needs a two-level spectrum"),
    (qubit_doc(couplings={"kind": "hermitian", "matrix": SIGMA_X}, validate=VALIDATE),
     "needs a ladder coupling pair"),
], ids=["section-missing", "three-levels", "hermitian-coupling"])
def test_validate_requires_its_section(tmp_path, capsys, doc, message):
    rc, out = run(tmp_path, "validate", doc)
    assert rc == 2
    assert capsys.readouterr().err == f"error: validate: {message}\n"
    assert list(out.iterdir()) == []


AMBIGUOUS_DOC = {
    # Bohr frequencies 1, 1.0008, 1.0016 chain within eps_deg over 1.6 eps_deg
    "spectrum": {"levels": [0.0, 1.0, 2.0008, 3.0024], "eps_deg": 1e-3},
    "couplings": {"kind": "hermitian",
                  "matrix": as_json_matrix(np.diag([1.0, 1.0, 1.0], 1)
                                           + np.diag([1.0, 1.0, 1.0], -1))},
    "bath": {"kind": "flat", "rate": 0.3},
}


@pytest.mark.parametrize("command, flags", [
    *[("build-kernel", ("--variant", tag)) for tag in kernels.VARIANT_TAGS],
    ("evolve", ()), ("steady-state", ()), ("compare", ()), ("block-report", ()),
])
def test_an_ambiguous_bohr_chain_is_a_spectrum_error(tmp_path, capsys, monkeypatch,
                                                     command, flags):
    def no_numerics(*args, **kwargs):
        raise AssertionError("numerics ran on an ambiguous spectrum")

    for name in ("build_kernel", "equivalence_report"):
        monkeypatch.setattr(f"qmekit.cli.{name}", no_numerics)
    rc, out = run(tmp_path, command, AMBIGUOUS_DOC, *flags)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: spectrum: Bohr frequencies [1.0, 1.0008, 1.0016000000000003] chain "
        "within eps_deg=0.001 but spread over more than eps_deg\n")
    assert not out.exists()


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


def assert_close_trees(a, b, tol):
    """Same JSON structure and strings, every number within tol."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b)
        for k in a:
            assert_close_trees(a[k], b[k], tol)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_close_trees(x, y, tol)
    elif isinstance(a, (int, float)) and not isinstance(a, bool):
        assert abs(a - b) <= tol, (a, b)
    else:
        assert a == b


def test_outputs_agree_across_blas_thread_counts(tmp_path):
    # byte identity is promised at one BLAS thread count; at another the
    # last digits of dense linear algebra may move (by about 1e-15 on this
    # born d=12 system), so only agreement is asserted, not bytes
    rng = np.random.default_rng(12)
    d = 12
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    doc = {"spectrum": {"levels": np.sort(rng.uniform(0.0, 4.0, d)).tolist()},
           "couplings": {"kind": "hermitian", "matrix": as_json_matrix(m + m.conj().T)},
           "bath": {"kind": "thermal-ohmic", "coupling": 0.2, "cutoff": 5.0, "beta": 1.0},
           "experiment": {"variant": "born",
                          "t_grid": {"start": 0.0, "stop": 5.0, "num": 51}}}
    cfg = write_doc(tmp_path, doc)
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        for command in ("steady-state", "evolve"):
            proc = subprocess.run([sys.executable, "-m", "qmekit", command,
                                   "--config", cfg, "--out", str(out)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        outs.append(out)
    one, two = ([json.loads((out / "steady-state.json").read_text()),
                 np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)]
                for out in outs)
    assert_close_trees(one[0], two[0], 1e-13)
    assert one[1].shape == two[1].shape == (51, 3 + 2 * d * d)     # t, rho, trace, min_eig
    assert np.max(np.abs(one[1] - two[1])) <= 1e-13


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


@pytest.mark.parametrize("command, where, doc", [
    ("evolve", "experiment.t_grid[1]", qubit_doc(experiment={"t_grid": [0, 0, 1]})),
    ("evolve", "experiment.t_grid", qubit_doc(experiment={"t_grid": [0.5]})),
    ("evolve", "experiment.nonlocal.tau_grid[2]",
     qubit_doc(experiment={"nonlocal": {"tau_grid": [0, 0.5, 0.5], "tau_memory": 0.5}})),
    ("validate", "validate.eta", qubit_doc(validate=dict(VALIDATE, eta=0))),
    ("validate", "validate.eta", qubit_doc(validate=dict(VALIDATE, eta=-1e-5))),
    ("validate", "validate.omega_band", qubit_doc(validate=dict(VALIDATE, omega_band=0))),
    ("validate", "validate.t_star", qubit_doc(validate=dict(VALIDATE, t_star=0))),
    ("validate", "validate.num", qubit_doc(validate=dict(VALIDATE, num=1))),
    ("validate", "validate.scales[1]",
     qubit_doc(validate=dict(VALIDATE, scales=[1.0, 0.0, 0.25]))),
    ("validate", "validate.scales", qubit_doc(validate=dict(VALIDATE, scales=5))),
    ("validate", "validate.scales", qubit_doc(validate=dict(VALIDATE, scales=[1.0, 0.5]))),
    ("validate", "validate.n_modes", qubit_doc(validate=dict(VALIDATE, n_modes=1))),
    ("evolve", "experiment.t_grid.num",
     qubit_doc(experiment={"t_grid": {"start": 0, "stop": 1, "num": 1}})),
    ("build-kernel", "couplings.matrix",
     qubit_doc(couplings={"kind": "hermitian", "matrix": as_json_matrix([[1.0]])})),
    ("build-kernel", "couplings.matrix",
     qubit_doc(couplings={"kind": "hermitian",
                          "matrix": [[[0, 0], [10**400, 0]], [[10**400, 0], [0, 0]]]})),
    ("build-kernel", "couplings.matrices", qubit_doc(couplings={"kind": "explicit",
                                                                "matrices": []})),
    ("build-kernel", "couplings.adjoint_map",
     qubit_doc(couplings={"kind": "explicit", "adjoint_map": [True],
                          "matrices": [{"label": "X", "matrix": SIGMA_X}]})),
    ("build-kernel", "couplings",
     qubit_doc(couplings={"kind": "explicit", "adjoint_map": [1, 0], "matrices": [
         {"label": "L", "matrix": SIGMA_MINUS}, {"label": "Ld", "matrix": SIGMA_MINUS}]})),
    ("build-kernel", "bath.path", qubit_doc(bath={"kind": "tabulated",
                                                  "path": "one-channel.csv"})),
    ("build-kernel", "config", [qubit_doc()]),
], ids=["repeated-time", "one-time", "repeated-tau", "eta-zero", "eta-negative",
        "band-zero", "t-star-zero", "num-one", "scale-zero", "scales-not-a-list",
        "two-scales", "one-mode", "t-grid-num-one", "matrix-1x1", "entry-overflow",
        "no-matrices", "adjoint-map-bool", "not-adjoint", "table-one-channel",
        "top-level-array"])
def test_grids_and_validate_values_are_checked_at_parse_time(tmp_path, capsys, monkeypatch,
                                                             command, where, doc):
    # a relative bath path resolves in tmp_path, which holds a one-channel
    # table (the qubit's ladder pair has two channels)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one-channel.csv").write_text('omega,"re[S,S]","im[S,S]"\n-5,0.1,0\n5,0.2,0\n')
    rc, out = run(tmp_path, command, doc)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-kernel", "steady-state", "compare",
                                     "block-report"])
def test_non_finite_tabulated_values_are_rejected(tmp_path, capsys, command):
    table = tmp_path / "bath.csv"
    table.write_text('omega,"re[S,S]","im[S,S]"\n-5,0.1,0\n0,nan,0\n5,inf,0\n')
    doc = qubit_doc(couplings={"kind": "hermitian", "matrix": SIGMA_X},
                    bath={"kind": "tabulated", "path": str(table)})
    rc, out = run(tmp_path, command, doc)
    assert rc == 2
    assert capsys.readouterr().err == f"error: bath: {table}: row 3: values must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-kernel", "steady-state", "compare",
                                     "block-report"])
def test_tabulated_gamma_must_be_positive_semidefinite(tmp_path, capsys, command):
    # a qubit under sigma_x with gamma = -0.3 on |omega - 1| < 0.5 and
    # 0.2 elsewhere: without the check, steady-state reports diag(3, -2).
    # A blank line after the header moves every node one file row down
    grid = np.linspace(-4.0, 4.0, 81)
    gamma = np.where(np.abs(grid - 1.0) < 0.5, -0.3, 0.2)[:, None, None]
    table = tmp_path / "bath.csv"
    write_tabulated_csv(table, grid, gamma, labels=("S",))
    header, rest = table.read_text().split("\n", 1)
    table.write_text(header + "\n\n" + rest)
    doc = qubit_doc(couplings={"kind": "hermitian", "matrix": SIGMA_X},
                    bath={"kind": "tabulated", "path": str(table)})
    rc, out = run(tmp_path, command, doc)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: bath: {table}: gamma(omega) is not positive semidefinite at "
        "omega=0.6 (row 49, min eigenvalue -0.3)\n")
    assert not out.exists()
    write_tabulated_csv(table, grid, np.abs(gamma), labels=("S",))
    assert run(tmp_path, command, doc)[0] == 0


def test_tabulated_gamma_matrix_with_a_positive_diagonal_can_fail(tmp_path, capsys):
    # two channels (the ladder pair), gamma = I but [[1, 2], [2, 1]] at
    # omega = 1, whose eigenvalues are 3 and -1: each node's whole matrix
    # is checked, not its diagonal
    grid = np.array([-1.0, 0.0, 1.0, 2.0])
    gamma = np.repeat(np.eye(2, dtype=complex)[None], 4, axis=0)
    gamma[2] = [[1, 2], [2, 1]]
    table = tmp_path / "bath.csv"
    write_tabulated_csv(table, grid, gamma, labels=("L", "Ldag"))
    rc, out = run(tmp_path, "build-kernel", qubit_doc(bath={"kind": "tabulated",
                                                            "path": str(table)}))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: bath: {table}: gamma(omega) is not positive semidefinite at "
        "omega=1 (row 4, min eigenvalue -1)\n")
    assert not out.exists()


def test_a_table_named_bath_keeps_the_field_name(tmp_path, capsys, monkeypatch):
    # a relative path that starts with "bath" is still prefixed by the
    # field, as any other table's content error is
    monkeypatch.chdir(tmp_path)
    table = 'omega,"re[S,S]","im[S,S]"\n-5,0.1,0\n0,nan,0\n5,0.1,0\n'
    (tmp_path / "bath.csv").write_text(table)
    doc = qubit_doc(couplings={"kind": "hermitian", "matrix": SIGMA_X},
                    bath={"kind": "tabulated", "path": "bath.csv"})
    rc, out = run(tmp_path, "build-kernel", doc)
    assert rc == 2
    assert capsys.readouterr().err == "error: bath: bath.csv: row 3: values must be finite\n"
    assert not out.exists()


def test_a_tabulated_bath_file_is_read_once(tmp_path, monkeypatch):
    # the spectrum and the check of its nodes take the same table
    read, calls = bath.read_tabulated_csv, []

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(bath, "read_tabulated_csv", counted)
    table = tmp_path / "bath.csv"
    write_tabulated_csv(table, [-4.0, 0.0, 4.0], np.full((3, 1, 1), 0.2), labels=("S",))
    doc = qubit_doc(couplings={"kind": "hermitian", "matrix": SIGMA_X},
                    bath={"kind": "tabulated", "path": str(table)})
    assert run(tmp_path, "steady-state", doc)[0] == 0
    assert calls == [str(table)]


@pytest.mark.parametrize("command, variant", [
    ("build-kernel", "lindblad"), ("steady-state", "lindblad"),
    ("compare", "redfield-in"), ("block-report", "lindblad"),
])
def test_overflowing_kernel_is_a_breach_that_writes_nothing(tmp_path, capsys, command,
                                                           variant):
    # finite couplings and rate whose products overflow in the kernel
    big = as_json_matrix(1e200 * np.array([[0, 1], [1, 0]]))
    doc = qubit_doc(couplings={"kind": "hermitian", "matrix": big},
                    bath={"kind": "flat", "rate": 1e200})
    rc, out = run(tmp_path, command, doc)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"invariant breach: the {variant} kernel has a non-finite entry\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("where, doc", [
    ("couplings.matrix",
     qubit_doc(couplings={"kind": "ladder", "matrix": [[[0, 0], [float("nan"), 0]],
                                                      [[0, 0], [0, 0]]]})),
    ("experiment.initial_state.matrix",
     qubit_doc(experiment={"initial_state": {"kind": "matrix", "matrix": [
         [[1, 0], [0, float("inf")]], [[0, 0], [0, 0]]]}})),
    ("couplings.matrix",
     qubit_doc(couplings={"kind": "ladder", "matrix": [[[0, 0], [1, float("inf")]],
                                                      [[0, 0], [0, 0]]]})),
])
def test_non_finite_matrix_entries_are_rejected_with_their_path(tmp_path, capsys, where,
                                                                doc):
    # a warning would print before the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(tmp_path, "steady-state", doc)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {where}: entries must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("where, doc", [
    ("couplings.matrix",
     qubit_doc(couplings={"kind": "hermitian", "matrix": [[[0, 0], [True, 0]],
                                                         [[1, 0], [0, 0]]]})),
    ("couplings.matrices[0].matrix",
     qubit_doc(couplings={"kind": "explicit", "adjoint_map": [0], "matrices": [
         {"label": "S", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, False]]]}]})),
    ("experiment.initial_state.matrix",
     qubit_doc(experiment={"initial_state": {"kind": "matrix", "matrix": [
         [[0, 0], [0, 0]], [[0, 0], [True, 0]]]}})),
])
def test_boolean_matrix_entries_are_rejected_with_their_path(tmp_path, capsys, where, doc):
    rc, out = run(tmp_path, "build-kernel", doc)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {where}: not a complex matrix of [re, im] pairs "
        f"(matrix: entries must be [re, im] number pairs, got bool)\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, rc", [("gaussian", 0), ("lorentzian", 1)])
def test_bath_width_whose_square_overflows_runs_to_an_exit_code(tmp_path, kind, rc):
    # gaussian: exp(-w^2 / inf) is a flat spectrum; lorentzian: inf / inf
    doc = qubit_doc(bath={"kind": kind, "rate": 0.2, "width": 1e300})
    assert run(tmp_path, "steady-state", doc)[0] == rc


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


def test_config_hash_reads_the_same_bytes_as_the_nested_lists():
    # the normalized config carries arrays; its canonical text must be the
    # one the per-element nested lists gave: -0.0 as 0, 17 digits
    rng = np.random.default_rng(3)
    m = np.round(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 3)
    m[0, 1] = -0.0 + 0.1j
    m[1, 2] = 1 / 3 - 0.0j
    doc = {
        "spectrum": {"levels": [0.0, 0.7, 1.9]},
        "couplings": {"kind": "ladder", "matrix": np.stack([m.real, m.imag], -1).tolist()},
        "bath": {"kind": "gaussian", "rate": 0.3, "width": 2.0},
        # a nonlocal run needs a uniform t_grid; thirds take all 17 digits
        "experiment": {"t_grid": [k / 3 for k in range(4)],
                       "initial_state": {"kind": "maximally-mixed"},
                       "nonlocal": {"tau_grid": {"start": 0.0, "stop": 2.0, "num": 41},
                                    "tau_memory": 1.5}},
    }
    cfg = parse_config(json.dumps(doc))
    ref = copy.deepcopy(cfg.normalized)
    for entry, mat in zip(ref["couplings"]["matrices"], cfg.couplings.matrices):
        entry["matrix"] = complex_matrix_to_json(mat)
    exp = ref["experiment"]
    exp["t_grid"] = [float(t) for t in cfg.experiment.t_grid]
    exp["initial_state"]["matrix"] = complex_matrix_to_json(cfg.experiment.initial_state)
    exp["nonlocal"]["tau_grid"] = [float(t) for t in exp["nonlocal"]["tau_grid"]]
    assert canonical_dumps(cfg.normalized) == canonical_dumps(ref)
    again = parse_config(cfg.normalized)
    assert canonical_dumps(again.normalized) == canonical_dumps(ref)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_hash_is_the_sha256_of_the_canonical_text(tmp_path, command):
    doc = dict(README_DOC, validate=VALIDATE)
    text = canonical_dumps(parse_config(json.dumps(doc)).normalized)
    rc, out = run(tmp_path, command, doc)
    assert rc == 0
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    hashes = {r["provenance"]["config_sha256"] for r in reports if "provenance" in r}
    assert hashes == {hashlib.sha256(text.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# config fuzzing: one mutation of a valid document, one command

README_DOC = {
    "spectrum": {"levels": [0.0, 1.0]},
    "couplings": {"kind": "ladder", "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
    "bath": {"kind": "thermal-ohmic", "coupling": 0.2, "cutoff": 5.0, "beta": 1.3},
    "experiment": {
        "variant": "lindblad",
        "t_grid": {"start": 0.0, "stop": 10.0, "num": 101},
        "initial_state": {"kind": "excited"},
    },
}
QUTRIT_DOC = {
    "spectrum": {"levels": [0.0, 0.7, 1.5], "eps_deg": 1e-9},
    "couplings": {"kind": "hermitian",
                  "matrix": as_json_matrix([[0, 0.5, 0.2], [0.5, 0, 0.4], [0.2, 0.4, 0]])},
    "bath": {"kind": "gaussian", "rate": 0.2, "width": 1.0},
    "experiment": {
        "variant": "redfield-in",
        "omega": 0.7,
        "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "initial_state": {"kind": "matrix", "matrix": as_json_matrix(np.eye(3) / 3)},
        "seed": 1,
        "nonlocal": {"tau_grid": {"start": 0.0, "stop": 2.0, "num": 41},
                     "tau_memory": 1.0},
    },
    "validate": {"eta": 1e-4, "omega_band": 5.0, "n_modes": 8, "t_star": 5.0,
                 "num": 11, "scales": [1.0, 0.5, 0.25]},
}
FUZZ_VALUES = (0, -1, 1e-300, 1e300, float("nan"), float("inf"), -float("inf"),
               True, "x", None, [])


def _nodes(node, path=()):
    """(path, value) of node and of every value below it."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutations(doc):
    """Every single mutation of doc: replace one value (a leaf, list or
    object) by one FUZZ_VALUES entry, delete one key, or add one unknown
    key to one object."""
    for path, value in _nodes(doc):
        if isinstance(value, dict):
            yield "add", path, None
        if path:
            yield from (("replace", path, v) for v in range(len(FUZZ_VALUES)))
        if path and isinstance(path[-1], str):
            yield "delete", path, None


FUZZ_CASES = [(doc, *m) for doc in (README_DOC, QUTRIT_DOC) for m in _mutations(doc)]


def mutated(doc, op, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1] if op != "add" else path:
        parent = parent[key]
    if op == "add":
        parent["unknown_key"] = 1
    elif op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = FUZZ_VALUES[value]
    return doc


# a top-level key, known or not, then .key and [i] segments
FIELD_ERROR = re.compile(r"error: \w+(\.\w+|\[\d+\])*: [^\n]*\n")


def run_main(argv):
    """main(argv) in process, asserting that it issues no warning; its
    exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return rc, err.getvalue()


def run_contract(doc, command):
    """Run one command in process; the exit code is 0, 1 or 2, nothing
    escapes main, no warning is issued, and an input error leaves --out
    empty and prints one line that names the field."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        rc, err = run_main([command, "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert not out.exists() or not any(out.iterdir())
            assert FIELD_ERROR.fullmatch(err), err
        return rc


@pytest.mark.parametrize("doc", [README_DOC, QUTRIT_DOC], ids=["readme", "qutrit"])
def test_fuzz_base_documents_run(doc):
    assert run_contract(doc, "evolve") == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_CASES), st.sampled_from(sorted(COMMANDS)))
def test_fuzzed_config_keeps_the_exit_contract(case, command):
    run_contract(mutated(*case), command)


def assert_input_error(argv, pattern, out):
    """main exits 2 with one stderr line matching pattern, issues no
    warning, and leaves no file in the --out directory out."""
    rc, err = run_main(argv)
    assert rc == 2
    assert re.fullmatch(pattern, err), err
    assert not out.is_dir() or not [p for p in out.rglob("*") if p.is_file()]


OUT_ERROR = r"error: --out: [^\n]*\n"
CONFIG_ERROR = r"error: config is not valid JSON: [^\n]*\n"
BATH_PATH_ERROR = r"error: bath\.path: [^\n]*\n"


@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_out_that_is_no_directory_is_an_input_error(tmp_path, below):
    blocker = tmp_path / "f"
    blocker.touch()
    out = blocker / below
    assert_input_error(["steady-state", "--config", write_doc(tmp_path, README_DOC),
                        "--out", str(out)], OUT_ERROR, out)
    assert blocker.read_bytes() == b""


def test_writer_os_error_is_an_out_error(tmp_path):
    out = tmp_path / "out"
    (out / "steady-state.json").mkdir(parents=True)
    assert_input_error(["steady-state", "--config", write_doc(tmp_path, README_DOC),
                        "--out", str(out)], OUT_ERROR, out)


@pytest.mark.parametrize("command, doc, last", [
    ("build-kernel", README_DOC, "kernel-lindblad-report.json"),
    ("evolve", QUTRIT_DOC, "evolve-diagnostics.json"),
])
def test_a_failed_last_write_leaves_none_of_the_earlier_files(tmp_path, command, doc,
                                                              last):
    # the payload files are written first; all are staged as .part until
    # the last write is done, so none of them reaches --out
    out = tmp_path / "out"
    (out / last).mkdir(parents=True)
    assert_input_error([command, "--config", write_doc(tmp_path, doc), "--out", str(out)],
                       rf"error: --out: \[Errno \d+\] Is a directory: "
                       rf"{re.escape(repr(str(out / last)))}\n", out)
    assert [p.name for p in out.iterdir()] == [last]


HUGE_NUM = 2 ** 62      # past numpy's array size limit: fails before any allocation
HUGE_GRID = {"start": 0.0, "stop": 1.0, "num": HUGE_NUM}


@pytest.mark.parametrize("command, field, doc", [
    ("steady-state", "experiment.t_grid.num", qubit_doc(experiment={"t_grid": HUGE_GRID})),
    ("evolve", "experiment.t_grid.num", qubit_doc(experiment={"t_grid": HUGE_GRID})),
    ("evolve", "experiment.nonlocal.tau_grid.num",
     qubit_doc(experiment={"nonlocal": {"tau_grid": HUGE_GRID, "tau_memory": 1.0}})),
    ("validate", "validate.num",
     qubit_doc(experiment={"initial_state": {"kind": "excited"}},
               validate=dict(VALIDATE, num=HUGE_NUM))),
], ids=["steady-state-t-grid", "evolve-t-grid", "tau-grid", "validate"])
def test_a_time_grid_too_large_to_hold_names_its_field(tmp_path, command, field, doc):
    out = tmp_path / "out"
    assert_input_error([command, "--config", write_doc(tmp_path, doc), "--out", str(out)],
                       rf"error: {re.escape(field)}: {HUGE_NUM} points do not fit in "
                       rf"memory \([^\n]+\)\n", out)


NOT_UTF8 = b'{"spectrum": {"levels": [0.0, 1.0]}, "x": "\xff"}'
TOO_DEEP = b"[" * 100000


@pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
def test_config_that_json_cannot_read_is_an_input_error(tmp_path, text):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    assert_input_error(["compare", "--config", str(cfg), "--out", str(out)],
                       CONFIG_ERROR, out)
    assert not out.exists()
    with pytest.raises(core.InputError, match="config is not valid JSON"):
        parse_config(text)


@pytest.mark.parametrize("table", ["missing", "directory", "not-utf8"])
def test_unreadable_tabulated_bath_names_bath_path(tmp_path, table):
    path = tmp_path / "bath.csv"
    if table == "directory":
        path.mkdir()
    elif table == "not-utf8":
        path.write_bytes(b'omega,"re[S,S]","im[S,S]"\n-1.0,0.5,0\xff\n')
    doc = qubit_doc(bath={"kind": "tabulated", "path": str(path)})
    doc["couplings"] = {"kind": "hermitian", "matrix": SIGMA_X}
    out = tmp_path / "out"
    assert_input_error(["build-kernel", "--config", write_doc(tmp_path, doc),
                        "--out", str(out)], BATH_PATH_ERROR, out)
    assert not out.exists()
