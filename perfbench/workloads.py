"""Seeded job lists for the four benchmark workloads.

A job is one ``qmekit`` CLI call: a command, extra flags, and the JSON
config document it reads.  Every list here is a pure function of
``(workload, seed, smoke)``, so the worker that runs the jobs and the
checker that verifies their outputs build the same list independently.
Only numpy is needed; nothing here imports the program.

Each job also carries ``group``, the cost group it was placed in when
the list was composed (see README.md), and ``meta``, the properties the
output checks depend on.
"""

import numpy as np

VARIANTS = ("born", "redfield-in", "redfield-out", "energy-conserving", "lindblad")
COVARIANT = ("energy-conserving", "lindblad")

BOX_SIZE = 108
# multiple of lcm(5, 3, 2, 4): system seeds keep the residues that set
# d, degeneracy, coupling kind and bath kind in the seeded box
BOX_STRIDE = 60 * 1000

SIGMA_MINUS = [[0.0, 1.0], [0.0, 0.0]]


def cmatrix(m):
    """Nested [re, im] pairs, the CLI's complex-matrix encoding."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _job(name, command, doc, group, flags=(), **meta):
    return {"name": name, "command": command, "flags": list(flags),
            "doc": doc, "group": group, "meta": meta}


# ---------------------------------------------------------------------------
# building blocks

# The jump-large, relax-large and memory-kernel jobs draw only coupling
# entries and generic level positions from the seed.  Energy range,
# coupling norm and bath parameters are fixed, so that a job's cost, and
# with it the benchmark's figures, does not move with the seed.
SPAN = 4.0
FLAT = {"kind": "flat", "rate": 0.3}
THERMAL = {"kind": "thermal-ohmic", "coupling": 0.2, "cutoff": 5.0, "beta": 1.0}


def _coupling(rng, d, kind):
    """Dense random coupling with rms entry 1/2 whatever the draw."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "hermitian":
        m = m + m.conj().T
    return {"kind": kind, "matrix": cmatrix(m * (0.5 * d / np.linalg.norm(m)))}


def generic_levels(rng, d):
    """Levels spanning [0, SPAN] whose d^2 - d ordered Bohr differences
    are all distinct (d^2 - d + 1 Bohr bins counting the zero bin)."""
    while True:
        e = np.sort(rng.random(d))
        e = SPAN * (e - e[0]) / (e[-1] - e[0])
        pos = np.sort((e[None, :] - e[:, None])[np.triu_indices(d, 1)])
        if pos[0] > 1e-3 and np.all(np.diff(pos) > 1e-6):
            return [float(x) for x in e]


def harmonic_levels(d):
    """Equally spaced ladder within [0, SPAN], step a multiple of 1/64
    so every Bohr difference is exact: 2d - 1 Bohr bins."""
    step = np.floor(64 * SPAN / (d - 1)) / 64
    return [k * step for k in range(d)]


def _levels(rng, family, d):
    return generic_levels(rng, d) if family == "generic" else harmonic_levels(d)


def _doc(levels, couplings, bath, **experiment):
    return {"spectrum": {"levels": levels}, "couplings": couplings,
            "bath": bath, "experiment": experiment}


# ---------------------------------------------------------------------------
# box-sweep: the seeded 108-system box of the test suite, five commands

def box_system(system_seed):
    """Config sections for one box system.

    Same rule as ``make_system`` in ``tests/conftest.py``: dyadic level
    ticks k/64, a forced degenerate pair in every third system, d
    cycling 2..6, hermitian/ladder couplings alternating, flat/thermal
    baths alternating in pairs.
    """
    rng = np.random.default_rng(system_seed)
    d = 2 + system_seed % 5
    ticks = np.sort(rng.choice(np.arange(-128, 129), size=d, replace=False))
    if system_seed % 3 == 0 and d >= 3:
        ticks[1] = ticks[0]
    levels = [float(t) / 64.0 for t in ticks]
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    if system_seed % 2 == 0:
        couplings = {"kind": "hermitian", "matrix": cmatrix(m + m.conj().T)}
    else:
        couplings = {"kind": "ladder", "matrix": cmatrix(m)}
    if system_seed % 4 < 2:
        bath = {"kind": "flat", "rate": float(0.1 + 0.4 * rng.random())}
    else:
        beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        bath = {"kind": "thermal-ohmic", "coupling": float(0.1 + 0.3 * rng.random()),
                "cutoff": 5.0, "beta": beta}
    degenerate = len(set(ticks.tolist())) < d
    return levels, couplings, bath, degenerate


BOX_COMMANDS = (
    ("build-kernel", ("--format", "json")),
    ("evolve", ("--format", "json")),
    ("steady-state", ()),
    ("compare", ()),
    ("block-report", ()),
)


def validate_doc(rng):
    """Two-level sigma-minus ladder with a weak ohmic band (in the
    contraction band for every draw)."""
    return {
        "spectrum": {"levels": [0.0, 1.0]},
        "couplings": {"kind": "ladder", "matrix": cmatrix(SIGMA_MINUS)},
        "bath": {"kind": "flat", "rate": 0.1},
        "experiment": {"initial_state": {"kind": "excited"}},
        "validate": {"eta": float(1e-5 * (1.0 + rng.random())), "omega_band": 5.0,
                     "n_modes": int(rng.choice([60, 70, 80])),
                     "t_star": 30.0, "num": 121},
    }


def box_sweep(seed, smoke=False):
    n = 10 if smoke else BOX_SIZE
    jobs = []
    for i in range(n):
        levels, couplings, bath, degenerate = box_system(BOX_STRIDE * seed + i)
        variant = VARIANTS[(i // 5) % 5]
        doc = _doc(levels, couplings, bath, variant=variant)
        d = len(levels)
        for command, flags in BOX_COMMANDS:
            jobs.append(_job(f"box{i:03d}-{command}", command, doc, f"d{d}", flags,
                             d=d, variant=variant, bath=bath["kind"],
                             degenerate=degenerate))
    rng = np.random.default_rng([seed, 1])
    for i in range(1 if smoke else 4):
        jobs.append(_job(f"validate{i}", "validate", validate_doc(rng), "validate",
                         d=2, variant="lindblad", bath="flat", degenerate=False))
    return jobs


# ---------------------------------------------------------------------------
# jump-large: lindblad kernels as CSV and variant comparisons at d = 16..20

# One pass of each list below (16 jobs) is composed from cost groups
# (README.md).  Jobs in the top, tail and mid groups differ only in their
# random draws; the low group mixes families, couplings and baths.  With
# the three to five passes a run makes at this size, the median falls
# inside "mid" and the highest sample with ten samples above it inside
# "tail"; "top" is the one job per pass costlier than the tail group.

# (command, family, d, coupling kind, cost group)
JUMP_LIST = (
    ("build-kernel", "generic", 20, "hermitian", "top"),
    *[("build-kernel", "harmonic", 16, "hermitian", "tail")] * 5,
    *[("compare", "generic", 16, "hermitian", "mid")] * 6,
    ("compare", "harmonic", 16, "hermitian", "low"),
    ("compare", "harmonic", 16, "hermitian", "low"),
    ("compare", "harmonic", 16, "ladder", "low"),
    ("compare", "harmonic", 16, "ladder", "low"),
)
JUMP_SMOKE = (("build-kernel", "generic", 4, "hermitian", "low"),
              ("build-kernel", "harmonic", 4, "ladder", "low"),
              ("compare", "generic", 3, "ladder", "low"),
              ("compare", "harmonic", 4, "hermitian", "low"))


def jump_large(seed, smoke=False):
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for i, (command, family, d, coupling, group) in enumerate(
            JUMP_SMOKE if smoke else JUMP_LIST):
        doc = _doc(_levels(rng, family, d), _coupling(rng, d, coupling), THERMAL,
                   variant="lindblad")
        flags = ("--variant", "lindblad", "--format", "csv") if command == "build-kernel" else ()
        jobs.append(_job(f"jump{i:02d}-{command}-{family}{d}-{coupling}", command, doc,
                         group, flags, d=d, family=family, variant="lindblad",
                         bath="thermal-ohmic", degenerate=False))
    return jobs


# ---------------------------------------------------------------------------
# relax-large: energy-conserving steady states and CSV trajectories, d = 16..32

# (command, family, d, coupling kind, bath kind, cost group)
RELAX_LIST = (
    ("steady-state", "generic", 32, "hermitian", "thermal", "top"),
    *[("evolve", "generic", 24, "hermitian", "thermal", "tail")] * 5,
    *[("evolve", "harmonic", 16, "ladder", "thermal", "mid")] * 6,
    ("steady-state", "generic", 16, "hermitian", "thermal", "low"),
    ("steady-state", "harmonic", 16, "ladder", "thermal", "low"),
    ("steady-state", "generic", 16, "ladder", "flat", "low"),
    ("steady-state", "harmonic", 16, "hermitian", "flat", "low"),
)
RELAX_SMOKE = (("steady-state", "generic", 4, "hermitian", "thermal", "low"),
               ("steady-state", "harmonic", 4, "ladder", "flat", "low"),
               ("evolve", "generic", 3, "ladder", "thermal", "low"),
               ("evolve", "harmonic", 4, "hermitian", "flat", "low"))
RELAX_T_GRID = {"start": 0.0, "stop": 10.0, "num": 101}


def relax_large(seed, smoke=False):
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for i, (command, family, d, coupling, bath, group) in enumerate(
            RELAX_SMOKE if smoke else RELAX_LIST):
        bath_doc = THERMAL if bath == "thermal" else FLAT
        doc = _doc(_levels(rng, family, d), _coupling(rng, d, coupling), bath_doc,
                   variant="energy-conserving", t_grid=RELAX_T_GRID,
                   initial_state={"kind": "excited"})
        flags = ("--format", "csv") if command == "evolve" else ()
        jobs.append(_job(f"relax{i:02d}-{command}-{family}{d}-{coupling}-{bath}", command,
                         doc, group, flags, d=d, family=family,
                         variant="energy-conserving", bath=bath_doc["kind"],
                         degenerate=False))
    return jobs


# ---------------------------------------------------------------------------
# memory-kernel: nonlocal evolution, d = 2..6, 1001 steps, broad Gaussian bath

# (d, family, coupling kind, cost group)
MEMORY_LIST = (
    (6, "generic", "hermitian", "top"),
    *[(4, "harmonic", "hermitian", "tail")] * 5,
    *[(3, "generic", "hermitian", "mid")] * 6,
    (2, "harmonic", "ladder", "low"),
    (2, "generic", "hermitian", "low"),
    (2, "harmonic", "hermitian", "low"),
    (2, "generic", "ladder", "low"),
)
MEMORY_SMOKE = ((2, "harmonic", "ladder", "low"), (3, "generic", "hermitian", "low"))
MEMORY_STEPS = 1001
MEMORY_BATH = {"kind": "gaussian", "rate": 0.1, "width": 10.0}


def memory_experiment(stop, steps, tau_memory, width):
    """Nonlocal section whose tau spacing is a quarter of the time step,
    so every memory node sits on a tau grid point at steps h, h/2, h/4."""
    dtau = stop / (steps - 1) / 4
    if np.pi / dtau < 8.0 * width:
        raise ValueError("tau grid too coarse for the Gaussian's support")
    n_tau = int(round(tau_memory / dtau)) + 1
    return {
        "variant": "redfield-in",
        "t_grid": {"start": 0.0, "stop": stop, "num": steps},
        "initial_state": {"kind": "excited"},
        "nonlocal": {"tau_grid": {"start": 0.0, "stop": (n_tau - 1) * dtau, "num": n_tau},
                     "tau_memory": tau_memory},
    }


def memory_kernel(seed, smoke=False):
    rng = np.random.default_rng([seed, 4])
    jobs = []
    steps = 201 if smoke else MEMORY_STEPS
    for i, (d, family, coupling, group) in enumerate(MEMORY_SMOKE if smoke else MEMORY_LIST):
        doc = _doc(_levels(rng, family, d), _coupling(rng, d, coupling), MEMORY_BATH,
                   **memory_experiment(4.0 if smoke else 10.0, steps, 0.5,
                                       MEMORY_BATH["width"]))
        jobs.append(_job(f"memory{i:02d}-d{d}-{family}-{coupling}", "evolve", doc, group,
                         ("--format", "csv"), d=d, family=family, variant="redfield-in",
                         bath="gaussian", degenerate=False))
    return jobs


GENERATORS = {"box-sweep": box_sweep, "jump-large": jump_large,
              "relax-large": relax_large, "memory-kernel": memory_kernel}
WORKLOADS = tuple(GENERATORS)


def jobs_for(workload, seed, smoke=False):
    return GENERATORS[workload](int(seed), smoke)
