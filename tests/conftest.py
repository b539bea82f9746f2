"""Shared fixtures: the seeded system box and the acceptance summary hook."""

import numpy as np
import pytest

from qmekit.core import build_spectrum, hermitian_channel, ladder_channels
from qmekit.bath import flat_spectrum, thermal_ohmic_spectrum


def make_system(seed):
    """One seeded (spectrum, couplings, bath) triple.

    Levels are dyadic ticks (k/64) so degeneracies and Bohr-frequency
    coincidences are exact in floating point; every third system carries
    a forced degenerate pair.  Dimensions cycle 2..6, couplings
    alternate hermitian/ladder, baths alternate flat/thermal-ohmic.
    """
    rng = np.random.default_rng(seed)
    d = 2 + seed % 5
    ticks = rng.choice(np.arange(-128, 129), size=d, replace=False)
    ticks = np.sort(ticks)
    if seed % 3 == 0 and d >= 3:
        ticks[1] = ticks[0]
    spectrum = build_spectrum(ticks / 64.0)

    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    if seed % 2 == 0:
        couplings = hermitian_channel(m + m.conj().T)
    else:
        couplings = ladder_channels(m)

    if seed % 4 < 2:
        bath = flat_spectrum(couplings.n_channels, 0.1 + 0.4 * rng.random())
    else:
        beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        bath = thermal_ohmic_spectrum(0.1 + 0.3 * rng.random(), 5.0, beta,
                                      n_channels=couplings.n_channels)
    return spectrum, couplings, bath


def reference_bohr_bins(spectrum):
    """Bohr bins by a per-value scan: sorted (omega, pairs) tuples.

    One d x d comparison per distinct positive difference; a value joins
    the open bin while it sits within eps_deg of the bin's first value,
    and the bin's omega is the mean of its distinct values.  Negative
    bins mirror the positive ones by exact negation.
    """
    eps = spectrum.eps_deg
    diff = -spectrum.bohr_matrix()          # diff[p, q] = E[q] - E[p]
    groups = []
    for v in np.unique(diff[diff > 0]):
        if groups and v - groups[-1][0] <= eps:
            groups[-1].append(v)
        else:
            groups.append([v])
    same = spectrum.class_of[:, None] == spectrum.class_of[None, :]
    bins = [(0.0, set(zip(*np.nonzero(same))))]
    for g in groups:
        sel = np.zeros(diff.shape, dtype=bool)
        for v in g:
            sel |= diff == v
        pairs = set(zip(*np.nonzero(sel)))
        bins.append((float(np.mean(g)), pairs))
        bins.append((-float(np.mean(g)), {(q, p) for (p, q) in pairs}))
    return sorted(bins, key=lambda b: b[0])


def reference_jump_stack(spectrum, couplings):
    """Bin omegas and the dense (bins, channels, d, d) jump-operator
    stack, filled one level pair at a time."""
    bins = reference_bohr_bins(spectrum)
    d = spectrum.dim
    stack = np.zeros((len(bins), couplings.n_channels, d, d), dtype=complex)
    for b, (_, pairs) in enumerate(bins):
        for (p, q) in pairs:
            stack[b, :, p, q] = couplings.matrices[:, p, q]
    return np.array([omega for omega, _ in bins]), stack


BOX_SIZE = 108


@pytest.fixture(scope="session")
def system_box():
    """Seeded systems spanning d=2..6, with and without degeneracy,
    flat and thermal baths."""
    return [make_system(s) for s in range(BOX_SIZE)]


def large_systems(d=16, seed=16):
    """Generic, harmonic and degenerate d-level systems, one hermitian
    channel and a thermal-ohmic bath."""
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    levels = {"generic": np.sort(rng.uniform(0.0, 4.0, d)), "harmonic": 0.25 * np.arange(d),
              "degenerate": np.repeat(0.5 * np.arange(d // 2), 2)}
    return [(build_spectrum(v), hermitian_channel(m + m.conj().T),
             thermal_ohmic_spectrum(0.2, 5.0, 1.0)) for v in levels.values()]


# registry filled by test_acceptance, printed after the run
ACCEPTANCE = []


def record_criterion(number, description, passed, metric):
    ACCEPTANCE.append((int(number), description, bool(passed), metric))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n, desc, ok, metric in sorted(ACCEPTANCE):
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[PRIMARY {n}] {desc}: {word} ({metric})")
