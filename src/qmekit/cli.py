"""Batch front-end: JSON configs in, tables and reports out.

Every command reads one config document, validates it completely before
touching any numerics (failures name the offending field), and embeds a
provenance hash of the normalized config plus the package version in
each report it writes.  Identical config and seed give byte-identical
JSON output.

Exit codes: 0 ok, 1 invariant breach, 2 input error.
"""

import argparse
import errno
import os
import sys
import json
import numpy as np
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import (
    DensityMatrix, InputError, InvariantError,
    bohr_frequencies, build_spectrum, hermitian_channel, ladder_channels,
    CouplingChannelSet,
)
from . import bath as _bath
from . import io as _io
from .kernels import (
    VARIANT_TAGS, build_kernel, kernel_provenance, kernel_to_csv,
    kernel_envelope,
)
from .dynamics import (
    build_liouvillian, evolve_markov, evolve_nonlocal, check_nonlocal_grid,
    steady_state, block_structure_report, trace_distance, trajectory_to_csv,
)
from .diagnostics import equivalence_report
from .oracle import DIM_CAP, FiniteBathModel, exact_reduced_evolution, gauss_legendre_modes

__all__ = ["main", "parse_config", "serialize_config", "ModelConfig"]

TRACE_RESIDUAL_LIMIT = 1e-12          # relative to max|K|
TRACE_DRIFT_LIMIT = 1e-8              # evolve: largest |tr rho - 1| of a trajectory
SCALING_BAND = (3.0, 5.0)


# ---------------------------------------------------------------------------
# config parsing: parse first, validate everything, name the field

def _fail(path, msg):
    raise InputError(f"{path}: {msg}")


def _req(d, key, path):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    if key not in d:
        _fail(f"{path}.{key}", "missing required field")
    return d[key]


def _keys(d, path, allowed):
    """Reject an object with keys outside ``allowed``, naming the first."""
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    unknown = sorted(map(str, set(d) - allowed))
    if unknown:
        _fail(f"{path}.{unknown[0]}", "unknown key")


def _num(x, path):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, f"expected a number, got {type(x).__name__}")
    if not abs(x) <= sys.float_info.max:        # NaN, infinities, huge ints
        _fail(path, f"expected a finite number, got {x}")
    return float(x)


def _positive(x, path):
    x = _num(x, path)
    if x <= 0:
        _fail(path, "must be positive")
    return x


def _beta(x, path):
    """An inverse temperature: a number, or Infinity for a vacuum bath."""
    return np.inf if x == np.inf else _num(x, path)


def _int(x, path):
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected an integer, got {type(x).__name__}")
    return x


def _str(x, path, allowed=None):
    if not isinstance(x, str):
        _fail(path, f"expected a string, got {type(x).__name__}")
    if allowed is not None and x not in allowed:
        _fail(path, f"expected one of {sorted(allowed)}, got {x!r}")
    return x


def _matrix(x, path, dim):
    try:
        m = _io.complex_matrix_from_json(x)
    except (InputError, ValueError, TypeError) as exc:
        _fail(path, f"not a complex matrix of [re, im] pairs ({exc})")
    if m.shape != (dim, dim):
        _fail(path, f"expected shape {(dim, dim)}, got {m.shape}")
    if not np.isfinite(m).all():
        _fail(path, "entries must be finite")
    return m


# each bath kind: its constructor and its parameters besides "kind", read
# in this order; only tabulated may leave out beta, and it counts its own channels
BATHS = {
    "flat": (_bath.flat_spectrum, ("rate",)),
    "thermal-ohmic": (_bath.thermal_ohmic_spectrum, ("coupling", "cutoff", "beta")),
    "lorentzian": (_bath.lorentzian_spectrum, ("rate", "width")),
    "gaussian": (_bath.gaussian_spectrum, ("rate", "width")),
    "tabulated": (lambda n_channels, **kw: _bath.tabulated_spectrum(**kw), ("path", "beta")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str
    omega: float
    t_grid: np.ndarray
    initial_state: np.ndarray
    seed: int
    nonlocal_params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModelConfig:
    spectrum: object
    couplings: object
    bath: object
    bath_doc: dict
    experiment: ExperimentConfig
    validate_params: dict

    @property
    def normalized(self):
        return serialize_config(self)


def _parse_spectrum(d):
    _keys(d, "spectrum", {"levels", "eps_deg"})
    levels = _req(d, "levels", "spectrum")
    if not isinstance(levels, list) or not levels:
        _fail("spectrum.levels", "expected a nonempty list of numbers")
    vals = [_num(x, f"spectrum.levels[{i}]") for i, x in enumerate(levels)]
    eps = d.get("eps_deg")
    if eps is not None:
        eps = _num(eps, "spectrum.eps_deg")
    try:
        spectrum = build_spectrum(vals, eps_deg=eps)
        bohr_frequencies(spectrum)          # an ambiguous Bohr chain is an input error
    except InputError as exc:
        _fail("spectrum", str(exc))
    return spectrum


def _parse_couplings(d, dim):
    kind = _str(_req(d, "kind", "couplings"), "couplings.kind",
                {"hermitian", "ladder", "explicit"})
    if kind in ("hermitian", "ladder"):
        _keys(d, "couplings", {"kind", "matrix", "label"})
        m = _matrix(_req(d, "matrix", "couplings"), "couplings.matrix", dim)
        label = d.get("label", "S" if kind == "hermitian" else "L")
        _str(label, "couplings.label")
        try:
            if kind == "hermitian":
                return hermitian_channel(m, label=label)
            return ladder_channels(m, label=label)
        except InputError as exc:
            _fail("couplings.matrix", str(exc))
    _keys(d, "couplings", {"kind", "matrices", "adjoint_map"})
    mats = _req(d, "matrices", "couplings")
    if not isinstance(mats, list) or not mats:
        _fail("couplings.matrices", "expected a nonempty list")
    labels, arrays = [], []
    for i, entry in enumerate(mats):
        _keys(entry, f"couplings.matrices[{i}]", {"label", "matrix"})
        labels.append(_str(_req(entry, "label", f"couplings.matrices[{i}]"),
                           f"couplings.matrices[{i}].label"))
        arrays.append(_matrix(_req(entry, "matrix", f"couplings.matrices[{i}]"),
                              f"couplings.matrices[{i}].matrix", dim))
    amap = _req(d, "adjoint_map", "couplings")
    if (not isinstance(amap, list)
            or len(amap) != len(arrays)
            or any(isinstance(x, bool) or not isinstance(x, int) for x in amap)):
        _fail("couplings.adjoint_map",
              f"expected a list of {len(arrays)} channel indices")
    try:
        return CouplingChannelSet(np.array(arrays), tuple(labels), tuple(amap))
    except InputError as exc:
        _fail("couplings", str(exc))


def _parse_bath(d, n_channels):
    kind = _str(_req(d, "kind", "bath"), "bath.kind", set(BATHS))
    make, names = BATHS[kind]
    _keys(d, "bath", {"kind", *names})
    params = {}
    for name in names:
        if kind == "tabulated" and name == "beta" and d.get("beta") is None:
            continue
        read = {"path": _str, "beta": _beta}.get(name, _num)
        params[name] = read(_req(d, name, "bath"), f"bath.{name}")
    try:
        spec = make(n_channels=n_channels, **params)
    except (OSError, UnicodeDecodeError) as exc:       # a tabulated file
        _fail("bath.path", str(exc))
    except InputError as exc:
        _fail("bath", str(exc))
    if spec.n_channels != n_channels:
        _fail("bath.path", f"tabulated file has {spec.n_channels} channels, "
                           f"couplings have {n_channels}")
    return spec


def _parse_t_grid(d, path):
    if isinstance(d, (list, np.ndarray)):          # serialize_config gives arrays
        vals = np.array([_num(x, f"{path}[{i}]") for i, x in enumerate(d)])
        if vals.size < 2:
            _fail(path, "need at least 2 points")
        down = np.flatnonzero(np.diff(vals) <= 0)
        if down.size:
            _fail(f"{path}[{down[0] + 1}]", "must exceed the previous point")
        return vals
    _keys(d, path, {"start", "stop", "num"})
    start = _num(_req(d, "start", path), f"{path}.start")
    stop = _num(_req(d, "stop", path), f"{path}.stop")
    num = _int(_req(d, "num", path), f"{path}.num")
    if num < 2:
        _fail(f"{path}.num", "need at least 2 points")
    if stop <= start:
        _fail(f"{path}.stop", "must exceed start")
    return _linspace(start, stop, num, f"{path}.num")


def _linspace(start, stop, num, path):
    """``np.linspace(start, stop, num)``; a grid too large to hold fails at path."""
    try:
        return np.linspace(start, stop, num)
    except (ValueError, MemoryError) as exc:    # ValueError: past numpy's size limit
        _fail(path, f"{num} points do not fit in memory ({exc})")


def _parse_initial_state(d, dim):
    kind = _str(_req(d, "kind", "experiment.initial_state"),
                "experiment.initial_state.kind",
                {"ground", "excited", "maximally-mixed", "matrix"})
    _keys(d, "experiment.initial_state",
          {"kind", "matrix"} if kind == "matrix" else {"kind"})
    if kind == "maximally-mixed":
        return DensityMatrix.maximally_mixed(dim).matrix
    if kind != "matrix":
        return DensityMatrix.from_ket(np.eye(dim)[0 if kind == "ground" else -1]).matrix
    m = _matrix(_req(d, "matrix", "experiment.initial_state"),
                "experiment.initial_state.matrix", dim)
    try:
        return DensityMatrix(m).matrix
    except InputError as exc:
        _fail("experiment.initial_state", str(exc))


def _parse_experiment(d, dim, bath_spec):
    if d is None:
        d = {}
    _keys(d, "experiment",
          {"variant", "omega", "t_grid", "initial_state", "seed", "nonlocal"})
    variant = d.get("variant", "lindblad")
    _str(variant, "experiment.variant", set(VARIANT_TAGS))
    omega = _num(d.get("omega", 0.0), "experiment.omega")
    t_grid = (_parse_t_grid(d["t_grid"], "experiment.t_grid")
              if "t_grid" in d else np.linspace(0.0, 10.0, 101))
    init = (_parse_initial_state(d["initial_state"], dim)
            if "initial_state" in d else _parse_initial_state({"kind": "excited"}, dim))
    seed = _int(d.get("seed", 0), "experiment.seed")
    nl = d.get("nonlocal", {})
    _keys(nl, "experiment.nonlocal", {"tau_grid", "tau_memory"})
    if nl:
        tau_grid = _parse_t_grid(_req(nl, "tau_grid", "experiment.nonlocal"),
                                 "experiment.nonlocal.tau_grid")
        tau_memory = _num(_req(nl, "tau_memory", "experiment.nonlocal"),
                          "experiment.nonlocal.tau_memory")
        try:                # the library's own checks, before any numerics
            _bath.check_tau_grid(bath_spec, tau_grid, tau_memory)
            check_nonlocal_grid(t_grid, dim)
        except InputError as exc:
            _fail("experiment.nonlocal", str(exc))
        nl = {"tau_grid": tau_grid, "tau_memory": tau_memory}
    return ExperimentConfig(variant, omega, t_grid, init, seed, nl)


def _parse_validate(d):
    if d is None:
        return {}
    _keys(d, "validate", {"eta", "omega_band", "n_modes", "t_star", "num", "scales"})
    out = {
        "eta": _positive(_req(d, "eta", "validate"), "validate.eta"),
        "omega_band": _positive(_req(d, "omega_band", "validate"), "validate.omega_band"),
        "n_modes": _int(_req(d, "n_modes", "validate"), "validate.n_modes"),
        "t_star": _positive(_req(d, "t_star", "validate"), "validate.t_star"),
        "num": _int(d.get("num", 121), "validate.num"),
    }
    scales = d.get("scales", [1.0, 0.5, 0.25])
    if not isinstance(scales, list):
        _fail("validate.scales", "expected a list of numbers")
    out["scales"] = [_positive(x, f"validate.scales[{i}]") for i, x in enumerate(scales)]
    if out["n_modes"] < 2:
        _fail("validate.n_modes", "need at least 2 modes")
    if out["num"] < 2:
        _fail("validate.num", "need at least 2 points")
    if len(out["scales"]) < 3:
        _fail("validate.scales", "need at least 3 scale points")
    return out


def parse_config(doc):
    """Parse and fully validate a config document (dict, or JSON text as
    str or UTF-8 bytes)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InputError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("config: expected a JSON object at top level")
    unknown = set(doc) - {"spectrum", "couplings", "bath", "experiment", "validate"}
    if unknown:
        _fail(sorted(unknown)[0], "unknown top-level section")
    spectrum = _parse_spectrum(_req(doc, "spectrum", "config"))
    couplings = _parse_couplings(_req(doc, "couplings", "config"), spectrum.dim)
    bath_doc = _req(doc, "bath", "config")
    bath_spec = _parse_bath(bath_doc, couplings.n_channels)
    experiment = _parse_experiment(doc.get("experiment"), spectrum.dim, bath_spec)
    validate_params = _parse_validate(doc.get("validate"))
    return ModelConfig(spectrum, couplings, bath_spec, dict(bath_doc),
                       experiment, validate_params)


def serialize_config(cfg):
    """Normalized dict form of a parsed config; parse(serialize(c)) == c.
    Matrices go out as (d, d, 2) [re, im] float arrays and grids as
    float arrays, which the JSON writer fills in one pass."""
    spec = {"levels": [float(x) for x in cfg.spectrum.levels],
            "eps_deg": float(cfg.spectrum.eps_deg)}
    mats = cfg.couplings.matrices
    mats = np.stack([mats.real, mats.imag], axis=-1)
    coup = {
        "kind": "explicit",
        "matrices": [{"label": label, "matrix": m}
                     for label, m in zip(cfg.couplings.labels, mats)],
        "adjoint_map": [int(x) for x in cfg.couplings.adjoint_map],
    }
    exp = cfg.experiment
    rho = exp.initial_state
    exp_doc = {
        "variant": exp.variant,
        "omega": exp.omega,
        "t_grid": np.asarray(exp.t_grid, dtype=float),
        "initial_state": {"kind": "matrix",
                          "matrix": np.stack([rho.real, rho.imag], axis=-1)},
        "seed": exp.seed,
    }
    if exp.nonlocal_params:
        exp_doc["nonlocal"] = {
            "tau_grid": np.asarray(exp.nonlocal_params["tau_grid"], dtype=float),
            "tau_memory": float(exp.nonlocal_params["tau_memory"]),
        }
    out = {"spectrum": spec, "couplings": coup, "bath": dict(cfg.bath_doc),
           "experiment": exp_doc}
    if cfg.validate_params:
        out["validate"] = dict(cfg.validate_params)
    return out


def _provenance(cfg):
    return {
        "config_sha256": _io.sha256_of(cfg.normalized),
        "version": _io.PACKAGE_VERSION,
        "seed": cfg.experiment.seed,
    }


# ---------------------------------------------------------------------------
# commands

def _build(cfg, variant):
    omega = cfg.experiment.omega if variant == "born" else None
    return build_kernel(cfg.spectrum, cfg.couplings, cfg.bath, variant, omega=omega)


def cmd_build_kernel(cfg, args, out):
    variant = args.variant or cfg.experiment.variant
    kernel = _build(cfg, variant)
    report = kernel_envelope(kernel, kernel_provenance(
        cfg.spectrum, cfg.couplings, cfg.bath, variant, omega=cfg.experiment.omega))
    report["provenance"] = _provenance(cfg)
    if args.format == "csv":
        kernel_to_csv(kernel, out(f"kernel-{variant}.csv"))
    else:
        _io.write_json(out(f"kernel-{variant}.json"),
                       dict(report, entries=kernel.data))
    _io.write_json(out(f"kernel-{variant}-report.json"), report)
    residual = report["trace_residual"]
    print(f"trace residual: {_io.fmt(residual)}")
    scale = max(report["max_abs_entry"], 1e-300)
    return 0 if residual < TRACE_RESIDUAL_LIMIT * scale else 1


def _health(traj):
    return {
        "trace_drift_max": float(np.max(traj.trace_drift)),
        "herm_defect_max": float(np.max(traj.herm_defect)),
        "min_eigenvalue": float(np.min(traj.min_eigenvalue)),
        "method": traj.method,
    }


def _write_trajectory(traj, out, stem, fmt):
    if fmt == "csv":
        trajectory_to_csv(traj, out(f"{stem}.csv"))
    else:
        _io.write_json(out(f"{stem}.json"),
                       dict(_health(traj), times=traj.times, states=traj.states))


def cmd_evolve(cfg, args, out):
    exp = cfg.experiment
    nl = None
    if exp.nonlocal_params:         # parse_config has checked the section
        corr = _bath.time_correlation(cfg.bath, **exp.nonlocal_params,
                                      adjoint_map=cfg.couplings.adjoint_map)
        nl = evolve_nonlocal(cfg.spectrum, cfg.couplings, corr,
                             exp.initial_state, exp.t_grid)
    liouv = build_liouvillian(cfg.spectrum, _build(cfg, exp.variant))
    traj = evolve_markov(liouv, exp.initial_state, exp.t_grid)
    for name, run in (("markov", traj), ("nonlocal", nl)):
        if run is not None and not np.max(run.trace_drift) <= TRACE_DRIFT_LIMIT:
            raise InvariantError(f"the {name} trajectory loses trace: drift "
                                 f"{np.max(run.trace_drift):g} > {TRACE_DRIFT_LIMIT:g}")
    diag = {"provenance": _provenance(cfg), "variant": exp.variant,
            "markov": _health(traj)}
    if nl is not None:
        diag["nonlocal"] = {
            "trace_drift_max": float(np.max(nl.trace_drift)),
            "min_eigenvalue": float(np.min(nl.min_eigenvalue)),
            "max_trace_distance_to_markov":
                float(np.max(trace_distance(nl.states, traj.states))),
        }
    _write_trajectory(traj, out, "trajectory", args.format)
    if nl is not None:
        _write_trajectory(nl, out, "trajectory-nonlocal", args.format)
    _io.write_json(out("evolve-diagnostics.json"), diag)
    print(f"evolved {exp.t_grid.size} steps; "
          f"trace drift {_io.fmt(diag['markov']['trace_drift_max'])}")
    return 0


def cmd_steady_state(cfg, args, out):
    exp = cfg.experiment
    liouv = build_liouvillian(cfg.spectrum, _build(cfg, exp.variant))
    doc = steady_state(liouv)
    _io.write_json(out("steady-state.json"),
                   dict(doc, provenance=_provenance(cfg), variant=exp.variant))
    print(f"steady-state multiplicity: {doc['multiplicity']}")
    return 0


def cmd_compare(cfg, args, out):
    rep = equivalence_report(cfg.spectrum, cfg.couplings, cfg.bath,
                             omega=cfg.experiment.omega)
    rep["provenance"] = _provenance(cfg)
    _io.write_json(out("compare.json"), rep)
    width = max(len(k) for k in rep["pairs"])
    print(f"{'pair'.ljust(width)}  max |difference|")
    for name in sorted(rep["pairs"]):
        print(f"{name.ljust(width)}  {_io.fmt(rep['pairs'][name]['max_abs_diff'])}")
    ok = rep["ec_equals_lindblad"]
    print(f"energy-conserving == lindblad: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def cmd_block_report(cfg, args, out):
    exp = cfg.experiment
    rep = block_structure_report(cfg.spectrum, _build(cfg, exp.variant))
    _io.write_json(out("block-report.json"),
                   dict(rep, provenance=_provenance(cfg), variant=exp.variant))
    print(f"coherences feed populations: {rep['coherences_feed_populations']}; "
          f"populations feed coherences: {rep['populations_feed_coherences']}")
    return 0


def cmd_validate(cfg, args, out):
    if not cfg.validate_params:
        raise InputError("validate: section missing from config")
    if cfg.spectrum.dim != 2:
        raise InputError("validate: needs a two-level spectrum")
    if (cfg.couplings.n_channels != 2
            or tuple(cfg.couplings.adjoint_map) != (1, 0)):
        raise InputError("validate: needs a ladder coupling pair")
    p = cfg.validate_params
    dim = p["n_modes"] + 2          # the one-excitation sector: the smallest exact run
    if dim > DIM_CAP:
        _fail("validate.n_modes", f"Hilbert dimension {dim} exceeds the cap {DIM_CAP}")
    eta0, band = p["eta"], p["omega_band"]
    t = _linspace(0.0, p["t_star"], p["num"], "validate.num")
    rho0 = cfg.experiment.initial_state
    omegas, gs, record = gauss_legendre_modes(
        lambda w: eta0 * w, band, p["n_modes"])
    try:
        models = [FiniteBathModel(cfg.spectrum, cfg.couplings, omegas, c * gs,
                                  n_max=1, beta=np.inf, coupling_kind="rotating-pair")
                  for c in p["scales"]]
    except InputError as exc:               # the oracle's dimension cap
        _fail("validate.n_modes", str(exc))
    if not models[0].sector_eligible:
        _fail("couplings", "validate needs c sigma-minus, a ladder whose only nonzero "
                           "entry is matrix[0][1]: its exact run holds one excitation")
    t_rec = models[0].recurrence_time()
    if p["t_star"] >= t_rec:
        _fail("validate.t_star", f"requested horizon {p['t_star']:g} exceeds the "
                                 f"recurrence guard {t_rec:g} for this mode grid")
    rows = []
    for c, model in zip(p["scales"], models):
        exact = exact_reduced_evolution(model, rho0, t)
        eta = eta0 * c * c

        def gamma_fn(w, eta=eta, band=band):
            w = np.asarray(w, dtype=float)
            j = np.where((w > 0) & (w < band), 2 * eta * np.clip(w, 0, None), 0.0)
            out = np.zeros(w.shape + (2, 2))
            out[..., 0, 0] = j
            return out

        bspec = _bath.custom_spectrum(2, gamma_fn, beta=np.inf,
                                      support_scale=band + 1.0)
        kernel = build_kernel(cfg.spectrum, cfg.couplings, bspec, "lindblad")
        liouv = build_liouvillian(cfg.spectrum, kernel)
        markov = evolve_markov(liouv, rho0, t)
        td = trace_distance(exact.states[-1], markov.states[-1])
        rows.append({"scale": float(c), "trace_distance": float(td)})
    zero = [row["scale"] for row in rows if row["trace_distance"] == 0.0]
    if zero:
        raise InvariantError(f"trace distance to the exact evolution is 0 at scale "
                             f"{zero[0]:g}; the contraction ratios are undefined")
    ratios = [rows[i]["trace_distance"] / rows[i + 1]["trace_distance"]
              for i in range(len(rows) - 1)]
    in_band = all(SCALING_BAND[0] <= r <= SCALING_BAND[1] for r in ratios)
    doc = {
        "provenance": _provenance(cfg),
        "quadrature": record,
        "t_star": p["t_star"],
        "points": rows,
        "ratios": ratios,
        "expected_band": list(SCALING_BAND),
        "in_band": in_band,
    }
    _io.write_json(out("validate.json"), doc)
    print("scale     trace distance")
    for row in rows:
        print(f"{row['scale']:<8g}  {_io.fmt(row['trace_distance'])}")
    print(f"contraction ratios: {', '.join(f'{r:.3f}' for r in ratios)} "
          f"(band {SCALING_BAND[0]:g}..{SCALING_BAND[1]:g})")
    return 0 if in_band else 1


# the flags some commands read; all take --config, --out and --seed
FLAGS = {
    "--variant": dict(choices=VARIANT_TAGS, help="overrides experiment.variant"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="payload format for kernels and trajectories"),
}

# each command: its handler and the FLAGS it reads
COMMANDS = {
    "build-kernel": (cmd_build_kernel, ("--variant", "--format")),
    "evolve": (cmd_evolve, ("--format",)),
    "steady-state": (cmd_steady_state, ()),
    "compare": (cmd_compare, ()),
    "validate": (cmd_validate, ()),
    "block-report": (cmd_block_report, ()),
}


def _parser():
    # allow_abbrev=False: each flag has one spelling, no prefix of it
    p = argparse.ArgumentParser(
        prog="qmekit",
        description="Dissipative kernel builders, propagators and oracles.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed override recorded in provenance")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    return p


PARSER = _parser()


# explicit checks catch every non-finite value (the kernel and trajectory
# builders, the writers), so no numpy warning is printed on any exit
@np.errstate(all="ignore")
def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:       # argparse: 2 for bad argv, 0 for --help
        return exc.code
    try:
        text = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: --config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, experiment=replace(cfg.experiment, seed=args.seed))
        staged = []                 # the files written, each as <name>.part

        def out(name):              # a command's path for --out/<name>
            staged.append(os.path.join(args.out, name))
            return staged[-1] + ".part"

        try:                        # after parsing, only the writers touch files
            Path(args.out).mkdir(parents=True, exist_ok=True)
            rc = COMMANDS[args.command][0](cfg, args, out)
            for target in staged:   # no file moves unless all can
                if os.path.isdir(target):
                    raise IsADirectoryError(errno.EISDIR, "Is a directory", target)
            for target in staged:
                os.replace(target + ".part", target)
            return rc
        except OSError as exc:
            raise InputError(f"--out: {exc}") from None
        finally:                    # a run that fails leaves no file
            for part in [t + ".part" for t in staged if os.path.isfile(t + ".part")]:
                os.unlink(part)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # an input too large for this host
        print(f"error: {args.config}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
