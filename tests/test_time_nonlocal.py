"""The time-nonlocal layer against the per-tau, per-channel-pair and
per-step code it replaced, kept here as references: the scalar,
recursive correlation lookup, the looped memory kernels and
double-commutator quadrature, and the window-rebuilding Heun stepper."""

import numpy as np
import pytest

from qmekit.bath import custom_spectrum, gaussian_spectrum, time_correlation
from qmekit.core import (
    CouplingChannelSet, build_spectrum, hermitian_channel, ladder_channels, lrmul,
)
from qmekit.dynamics import _memory_kernels, evolve_nonlocal
from qmekit.oracle import eqm_born_kernel

WIDTH = 2.0                      # Gaussian width; its support is 8 * WIDTH


# -- references ---------------------------------------------------------

def reference_at(corr, tau):
    """D(tau) for one real tau, linear interpolation on the grid."""
    if tau < 0:
        pos = reference_at(corr, -tau)
        adj = list(corr.adjoint_map)
        return np.conj(pos[np.ix_(adj, adj)].T)
    idx = tau / corr.dtau
    lo = int(np.floor(idx))
    if lo >= len(corr.tau_grid) - 1:
        if tau <= corr.tau_grid[-1] * (1 + 1e-12):
            return corr.values[-1]
        return np.zeros_like(corr.values[0])
    frac = idx - lo
    return (1 - frac) * corr.values[lo] + frac * corr.values[lo + 1]


def reference_memory_kernels(spectrum, couplings, corr, taus):
    esnap = spectrum.snapped
    s = couplings.matrices
    n = couplings.n_channels
    d = spectrum.dim
    out = np.empty((len(taus), d * d, d * d), dtype=complex)
    for idx, tau in enumerate(taus):
        u = np.diag(np.exp(-1j * esnap * tau))
        ud = u.conj()
        dp = reference_at(corr, tau)
        dm = reference_at(corr, -tau)
        k = np.zeros((d * d, d * d), dtype=complex)
        for a in range(n):
            for b in range(n):
                sa, sb = s[a], s[b]
                k -= dp[a, b] * lrmul(sa @ u @ sb, ud)
                k -= dm[a, b] * lrmul(u, sa @ ud @ sb)
                k += dm[a, b] * lrmul(sb @ u, sa @ ud)
                k += dp[a, b] * lrmul(u @ sb, ud @ sa)
        out[idx] = k
    return out


def reference_evolve_nonlocal(spectrum, couplings, corr, rho0, t):
    """Heun stepping that rebuilds and reverses each node's window."""
    h = t[1] - t[0]
    d = spectrum.dim
    m = max(int(round(corr.tau_memory / h)), 1)
    kt = reference_memory_kernels(spectrum, couplings, corr, np.arange(m + 1) * h)
    lh = -1j * spectrum.bohr_matrix().ravel()
    hist = np.empty((t.size, d * d), dtype=complex)
    hist[0] = rho0.ravel()

    def deriv(i, head):
        if i == 0:
            return lh * head
        j = min(i, m)
        w = np.ones(j + 1)
        w[0] = w[-1] = 0.5
        window = np.empty((j + 1, d * d), dtype=complex)
        window[0] = head
        window[1:] = hist[i - j:i][::-1]
        return lh * head + h * np.einsum("j,jab,jb->a", w, kt[: j + 1], window)

    for i in range(t.size - 1):
        f0 = deriv(i, hist[i])
        f1 = deriv(i + 1, hist[i] + h * f0)
        hist[i + 1] = hist[i] + 0.5 * h * (f0 + f1)
    return hist.reshape(t.size, d, d)


def reference_eqm_born_kernel(spectrum, couplings, corr):
    grid = corr.tau_grid
    taus = np.concatenate([-grid[:0:-1], grid])
    weights = np.full(taus.size, corr.dtau)
    weights[0] = weights[-1] = 0.5 * corr.dtau
    s = couplings.matrices
    n = couplings.n_channels
    d = spectrum.dim
    eye = np.eye(d)
    data = np.zeros((d * d, d * d), dtype=complex)
    for tau, w in zip(taus, weights):
        u = np.diag(np.exp(-1j * spectrum.snapped * tau))
        dp = reference_at(corr, tau)
        dm = reference_at(corr, -tau)
        for a in range(n):
            for b in range(n):
                sbt = u @ s[b] @ u.conj().T
                sa = s[a]
                term = (-dp[a, b] * lrmul(sa @ sbt, eye)
                        - dm[b, a] * lrmul(eye, sbt @ sa)
                        + dm[b, a] * lrmul(sa, sbt)
                        + dp[a, b] * lrmul(sbt, sa))
                data += 0.5 * w * term
    return data


# -- systems ------------------------------------------------------------

def levels(family, d, rng):
    if family == "generic":
        return np.sort(rng.uniform(0.0, 3.0, d))
    if family == "harmonic":
        return 0.375 * np.arange(d)
    # degenerate: repeated levels, so some classes hold two
    return np.sort(np.concatenate([np.arange(d - d // 2), np.arange(d // 2)]) * 0.5)


def correlated_pair(w):
    """A 2 x 2 hermitian, positive spectrum with cross-channel terms."""
    g = np.exp(-np.asarray(w) ** 2 / (2 * WIDTH ** 2))[..., None, None]
    tilt = np.tanh(np.asarray(w))[..., None, None]
    return g * (np.array([[1.0, 0.4 + 0.3j], [0.4 - 0.3j, 1.0]])
                + tilt * np.array([[0.3, 0.0], [0.0, -0.2]]))


def system(d, family, coupling, seed):
    rng = np.random.default_rng(seed)
    spectrum = build_spectrum(levels(family, d, rng))

    def draw():
        return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d

    if coupling == "hermitian":
        m = draw()
        couplings = hermitian_channel(m + m.conj().T)
        bath = gaussian_spectrum(0.3, WIDTH)
    elif coupling == "ladder":
        couplings = ladder_channels(draw())
        bath = gaussian_spectrum(0.3, WIDTH, n_channels=2)
    else:
        a, b = draw(), draw()
        couplings = CouplingChannelSet(np.stack([a + a.conj().T, b + b.conj().T]),
                                       labels=("A", "B"), adjoint_map=(0, 1))
        bath = custom_spectrum(2, correlated_pair, support_scale=8 * WIDTH)
    return spectrum, couplings, bath


def correlation(bath, couplings, dtau, n_tau, tau_memory):
    return time_correlation(bath, np.arange(n_tau) * dtau, tau_memory,
                            adjoint_map=couplings.adjoint_map)


CASES = [
    (2, "generic", "ladder"),
    (2, "harmonic", "two-channel"),
    (3, "degenerate", "hermitian"),
    (4, "harmonic", "ladder"),
    (5, "generic", "two-channel"),
    (6, "degenerate", "ladder"),
    (8, "generic", "hermitian"),
    (9, "degenerate", "two-channel"),
    (12, "harmonic", "hermitian"),
    (12, "generic", "ladder"),
]
IDS = [f"d{d}-{family}-{coupling}" for d, family, coupling in CASES]


def relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# -- tests --------------------------------------------------------------

@pytest.mark.parametrize("coupling", ["hermitian", "ladder", "two-channel"])
def test_correlation_lookup_matches_the_scalar_recursion(coupling):
    _, couplings, bath = system(2, "generic", coupling, 1)
    dtau = 0.05
    corr = correlation(bath, couplings, dtau, 21, 1.0)
    end = corr.tau_grid[-1]
    # the grid end within its relative tolerance 1e-12 still counts as a node
    nodes = np.append(corr.tau_grid[[0, 1, 7, 19, 20]], end * (1 + 1e-13))
    between = np.array([0.3, 1.5, 7.25, 19.999]) * dtau
    past = np.array([end + 0.5 * dtau, end + dtau, 3 * end])
    taus = np.concatenate([nodes, between, past, [0.0]])
    taus = np.concatenate([taus, -taus])
    got = corr.at(taus)
    n = couplings.n_channels
    assert got.shape == (taus.size, n, n)
    for tau, value in zip(taus, got):
        assert np.array_equal(value, reference_at(corr, tau))
        assert np.array_equal(corr.at(tau), reference_at(corr, tau))
    grid = taus[:12].reshape(3, 4)
    assert np.array_equal(corr.at(grid), got[:12].reshape(3, 4, *got.shape[1:]))
    assert np.all(corr.at(-past) == 0.0)


@pytest.mark.parametrize("d, family, coupling", CASES, ids=IDS)
def test_memory_kernels_match_the_per_tau_loop(d, family, coupling):
    spectrum, couplings, bath = system(d, family, coupling, d)
    corr = correlation(bath, couplings, 0.025, 41, 1.0)
    # nodes on the tau grid, between its nodes, past its end and negative
    taus = np.concatenate([np.arange(6) * 0.1, [0.0375, 0.51, 1.3, -0.2]])
    got = _memory_kernels(spectrum, couplings, corr, taus)
    assert got.shape == (taus.size, d * d, d * d)
    assert relative(got, reference_memory_kernels(spectrum, couplings, corr, taus)) < 1e-13
    # the nodes side by side are a reshape of the same buffer
    assert np.shares_memory(got.transpose(1, 0, 2).reshape(d * d, -1), got)


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("d, family, coupling", CASES, ids=IDS)
def test_nonlocal_states_match_the_window_stepper(d, family, coupling, m):
    spectrum, couplings, bath = system(d, family, coupling, 10 + d)
    h = 0.05
    corr = correlation(bath, couplings, h / 4, 4 * m + 3, m * h)
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[-1, -1] = 1.0
    # 14 steps: the first m nodes see a window shorter than the memory
    t = np.arange(15) * h
    got = evolve_nonlocal(spectrum, couplings, corr, rho0, t).states
    want = reference_evolve_nonlocal(spectrum, couplings, corr, rho0, t)
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("d, family, coupling", CASES, ids=IDS)
def test_quadrature_kernel_matches_the_looped_sum(d, family, coupling):
    spectrum, couplings, bath = system(d, family, coupling, 20 + d)
    corr = correlation(bath, couplings, 0.05, 31, 1.5)
    got = eqm_born_kernel(spectrum, couplings, corr).data
    assert relative(got, reference_eqm_born_kernel(spectrum, couplings, corr)) < 1e-13
