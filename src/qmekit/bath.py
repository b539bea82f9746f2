"""Bath correlation spectra and their time-domain correlation functions.

The stored primitive is the full-Fourier spectrum

    gamma^{ab}(w) = <B^{a-bar}(tau) B^b(0)> transformed with
    D~(w) = int dtau e^{i w tau} D(tau),

which is hermitian and positive semidefinite in the channel indices at
every w.  The ordered correlation D^{ab}(w) = <B^a B^b>(w) follows from
gamma by permuting the first index through the channel adjoint map, and
that permutation happens at the call site (kernels know the map, the
bath does not).

Only the dissipative part is represented; principal-value (Lamb-shift)
integrals are out of scope.  The inverse transform back to time carries
the 1/(2 pi).
"""

import csv
import math

import numpy as np
from dataclasses import dataclass

from .core import InputError
from .io import write_csv_rows

__all__ = [
    "BathSpectrum",
    "TimeCorrelation",
    "flat_spectrum",
    "thermal_ohmic_spectrum",
    "lorentzian_spectrum",
    "gaussian_spectrum",
    "custom_spectrum",
    "tabulated_spectrum",
    "read_tabulated_csv",
    "write_tabulated_csv",
    "kms_residual",
    "time_correlation",
]


@dataclass(frozen=True)
class BathSpectrum:
    """Channel-resolved bath spectrum gamma^{ab}(w).

    :param n_channels: number of bath operators B^a.
    :param kind: tag ("flat", "thermal-ohmic", "lorentzian", "gaussian",
        "tabulated", "custom").
    :param beta: inverse temperature when the kind has one (flat uses
        the beta = 0 convention); None means detailed balance is not
        declared and :func:`kms_residual` refuses to run.
    :param params: constructor parameters, kept for provenance records.
    """

    n_channels: int
    kind: str
    beta: float
    params: dict
    _eval: callable
    # largest |w| at which the spectrum is still non-negligible; None
    # means unbounded support (flat) and disables the Nyquist check
    support_scale: float

    def gamma(self, omega):
        """gamma^{ab} at scalar or array omega; shape (..., n, n)."""
        w = np.asarray(omega, dtype=float)
        out = self._eval(w)
        want = w.shape + (self.n_channels, self.n_channels)
        if np.shape(out) != want:
            raise InputError(
                f"{self.kind} evaluator returned shape {np.shape(out)}, want {want}")
        return out

    def correlation_ft(self, omega, adjoint_map=None):
        """Ordered-correlation matrix D^{ab}(w) = gamma^{a-bar, b}(w)."""
        g = self.gamma(omega)
        if adjoint_map is None:
            return g
        return g[..., list(adjoint_map), :]


def _scalar_kind(n_channels, kind, beta, params, scalar_fn, support_scale):
    # diagonal embedding of a scalar spectrum: gamma^{ab} = delta_ab * f(w)
    nc = int(n_channels)
    if nc < 1:
        raise InputError("n_channels must be >= 1")
    eye = np.eye(nc)

    def ev(w):
        return np.multiply.outer(scalar_fn(w), eye)

    return BathSpectrum(nc, kind, beta, params, ev, support_scale)


def flat_spectrum(n_channels, rate):
    """White spectrum gamma^{ab}(w) = rate * delta_ab.

    Infinite-temperature convention: beta = 0, so detailed balance holds
    with residual zero.
    """
    rate = float(rate)
    if rate < 0:
        raise InputError("flat spectrum rate must be non-negative")
    return _scalar_kind(
        n_channels, "flat", 0.0, {"rate": rate},
        lambda w: np.broadcast_to(rate, np.shape(w)).astype(float),
        support_scale=None,
    )


def thermal_ohmic_spectrum(coupling, cutoff, beta, n_channels=1):
    """Ohmic spectrum J(w) = coupling * w with exponential cutoff.

    gamma(w) = 2 J(|w|) e^{-|w|/cutoff} * (n_B(w) + 1)   for w > 0,
               2 J(|w|) e^{-|w|/cutoff} * n_B(|w|)       for w < 0,
               2 * coupling / beta                        at w = 0,

    evaluated through the single stable expression
    2 * coupling * w * e^{-|w|/cutoff} / (1 - e^{-beta w}).  beta may be
    numpy.inf (vacuum: the w < 0 side and the w = 0 value vanish).
    """
    coupling = float(coupling)
    cutoff = float(cutoff)
    beta = float(beta)
    if coupling < 0:
        raise InputError("ohmic coupling must be non-negative")
    if cutoff <= 0:
        raise InputError("ohmic cutoff must be positive")
    if beta < 0:
        raise InputError("beta must be non-negative")
    if beta == 0:
        # gamma(0) = 2*coupling/beta diverges; refuse rather than emit inf
        raise InputError("thermal-ohmic requires beta > 0 (use flat for beta=0)")

    def scalar(w):
        w = np.asarray(w, dtype=float)
        out = np.empty_like(w)
        zero = w == 0.0
        nz = ~zero
        wn = w[nz]
        # 1/(1 - e^{-beta w}) via expm1; 1/inf -> 0 covers beta*|w| overflow
        with np.errstate(over="ignore"):
            occ = 1.0 / (-np.expm1(-beta * wn))
        out[nz] = 2.0 * coupling * wn * np.exp(-np.abs(wn) / cutoff) * occ
        out[zero] = 0.0 if np.isinf(beta) else 2.0 * coupling / beta
        return out

    return _scalar_kind(
        n_channels, "thermal-ohmic", beta,
        {"coupling": coupling, "cutoff": cutoff, "beta": beta},
        scalar, support_scale=30.0 * cutoff + (0.0 if np.isinf(beta) else 30.0 / beta),
    )


def lorentzian_spectrum(rate, width, n_channels=1):
    """gamma(w) = rate * width^2 / (w^2 + width^2); correlation time 1/width."""
    rate = float(rate)
    width = np.float64(float(width))    # width**2 overflows to inf, not an error
    if rate < 0 or width <= 0:
        raise InputError("lorentzian needs rate >= 0 and width > 0")
    return _scalar_kind(
        n_channels, "lorentzian", None, {"rate": rate, "width": width},
        lambda w: rate * width**2 / (np.asarray(w, dtype=float) ** 2 + width**2),
        support_scale=30.0 * width,
    )


def gaussian_spectrum(rate, width, n_channels=1):
    """gamma(w) = rate * exp(-w^2 / (2 width^2)); entire, fast-decaying."""
    rate = float(rate)
    width = np.float64(float(width))    # width**2 overflows to inf, not an error
    if rate < 0 or width <= 0:
        raise InputError("gaussian needs rate >= 0 and width > 0")
    return _scalar_kind(
        n_channels, "gaussian", None, {"rate": rate, "width": width},
        lambda w: rate * np.exp(-np.asarray(w, dtype=float) ** 2 / (2 * width**2)),
        support_scale=8.0 * width,
    )


def custom_spectrum(n_channels, matrix_fn, beta=None, support_scale=None, params=None):
    """Wrap a user evaluator w -> (..., n, n) gamma matrix."""

    def ev(w):
        return np.asarray(matrix_fn(w), dtype=complex)

    return BathSpectrum(int(n_channels), "custom", beta, params or {}, ev, support_scale)


# ---------------------------------------------------------------------------
# tabulated spectra (CSV)

def _pair_columns(labels):
    cols = ["omega"]
    for a in labels:
        for b in labels:
            cols.append(f"re[{a},{b}]")
            cols.append(f"im[{a},{b}]")
    return cols


def _pair_table(gammas):
    """The (n_omega, 2 n^2) real table of (n_omega, n, n) complex samples:
    Re and Im of each channel pair side by side, in _pair_columns order."""
    g = np.ascontiguousarray(gammas, dtype=complex)
    return g.reshape(g.shape[0], g.shape[1] * g.shape[2]).view(float)


def write_tabulated_csv(path, omega_grid, gamma_samples, labels):
    """Write gamma samples to CSV: omega column plus one Re/Im column
    pair per channel pair, header naming the pair as re[a,b]/im[a,b];
    the rows as :func:`qmekit.io.write_csv_rows` writes them."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    g = np.asarray(gamma_samples, dtype=complex)
    n = len(labels)
    if g.shape != (omega_grid.size, n, n):
        raise InputError("gamma_samples must have shape (n_omega, n, n)")
    # each pair name holds a comma, so it is quoted as csv.writer quotes it
    header = ["omega"] + ['"%s"' % c.replace('"', '""') for c in _pair_columns(labels)[1:]]
    write_csv_rows(path, header, np.column_stack([omega_grid, _pair_table(g)]))


def read_tabulated_csv(path):
    """Parse a tabulated-spectrum CSV; returns (labels, omega, gamma,
    rows), rows holding the file row (header = 1) of each omega node.

    :raises InputError: naming the offending row on malformed input.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty spectrum CSV")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "omega":
        raise InputError(f"{path}: header row must start with 'omega'")
    labels = []
    for col in header[1:]:
        if col.startswith("re[") and col.endswith("]"):
            a, _, b = col[3:-1].partition(",")
            if a and a not in labels:
                labels.append(a)
    if not labels:
        raise InputError(f"{path}: no re[a,b]/im[a,b] channel-pair columns found")
    if header != _pair_columns(labels):
        raise InputError(
            f"{path}: header must list re/im pairs for all {len(labels)}^2 "
            f"channel pairs in row-major order"
        )
    n = len(labels)
    width = 1 + 2 * n * n
    table, file_rows = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise InputError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise InputError(f"{path}: row {i}: {exc}") from None
        if not all(map(math.isfinite, vals)):
            raise InputError(f"{path}: row {i}: values must be finite")
        table.append(vals)
        file_rows.append(i)
    table = np.array(table).reshape(-1, width)
    omegas = table[:, 0]
    if omegas.size < 2:
        raise InputError(f"{path}: need at least two omega samples")
    down = np.flatnonzero(np.diff(omegas) <= 0)
    if down.size:
        raise InputError(f"{path}: omega column must be strictly increasing "
                         f"(row {file_rows[down[0] + 1]})")
    gammas = (table[:, 1::2] + 1j * table[:, 2::2]).reshape(-1, n, n)
    return labels, omegas, gammas, file_rows


def tabulated_spectrum(path, beta=None):
    """Spectrum linearly interpolated from a CSV table, zero outside the
    tabulated support."""
    labels, omegas, gammas, _ = read_tabulated_csv(path)
    n = len(labels)
    columns = np.ascontiguousarray(_pair_table(gammas).T)

    def ev(w):
        w = np.asarray(w, dtype=float)
        vals = np.stack([np.interp(w, omegas, c, left=0.0, right=0.0)
                         for c in columns], axis=-1)
        return (vals[..., 0::2] + 1j * vals[..., 1::2]).reshape(w.shape + (n, n))

    return BathSpectrum(
        n, "tabulated", beta,
        {"path": str(path), "labels": labels,
         "omega_min": float(omegas[0]), "omega_max": float(omegas[-1])},
        ev, support_scale=float(np.max(np.abs(omegas))),
    )


# ---------------------------------------------------------------------------
# spectrum checks

def kms_residual(spectrum, omega_grid):
    """max-abs defect of gamma(-w) - e^{-beta w} gamma(w) over the grid.

    :raises InputError: when the spectrum does not declare beta.
    """
    if spectrum.beta is None:
        raise InputError(
            f"kind {spectrum.kind!r} declares no temperature; "
            f"detailed balance is undefined"
        )
    # the condition is symmetric under w -> -w, so fold to |w| where the
    # Boltzmann factor is <= 1 and cannot overflow
    w = np.abs(np.asarray(omega_grid, dtype=float))
    gp = spectrum.gamma(w)
    gm = spectrum.gamma(-w)
    with np.errstate(invalid="ignore"):
        factor = np.where(w == 0.0, 1.0, np.exp(-spectrum.beta * w))
    return float(np.max(np.abs(gm - factor[..., None, None] * gp)))


# ---------------------------------------------------------------------------
# time-domain correlation

def _tau_grid(tau_grid, tau_memory):
    """tau_grid as a float array, checked to be uniform and increasing from
    0 and to hold tau_memory."""
    t = np.asarray(tau_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InputError("tau grid must hold at least two points")
    dtau = t[1] - t[0]
    tol = 1e-12 * (abs(t[-1]) + abs(dtau))
    if dtau <= 0 or np.any(np.abs(np.diff(t) - dtau) > tol) or t[0] != 0.0:
        raise InputError("tau grid must be uniform, increasing, starting at 0")
    if not (0.0 < tau_memory <= t[-1] * (1 + 1e-12)):
        raise InputError("tau_memory must lie inside the tau grid")
    return t


@dataclass(frozen=True)
class TimeCorrelation:
    """D^{ab}(tau) on a uniform tau >= 0 grid, with the memory cutoff.

    Negative arguments follow from stationarity,
    D^{ab}(-tau) = conj(D^{b-bar, a-bar}(tau)), using the channel
    adjoint map the correlation was built with.
    """

    tau_grid: np.ndarray          # (m,), uniform, starts at 0
    values: np.ndarray            # (m, n, n) complex, D^{ab}(tau_j)
    tau_memory: float
    adjoint_map: tuple
    quadrature: dict              # omega-grid metadata of the transform

    def __post_init__(self):
        t = _tau_grid(self.tau_grid, self.tau_memory)
        v = np.asarray(self.values, dtype=complex)
        if v.shape[0] != t.size or v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise InputError("values must have shape (len(tau_grid), n, n)")
        object.__setattr__(self, "tau_grid", t)
        object.__setattr__(self, "values", v)

    @property
    def n_channels(self):
        return self.values.shape[1]

    @property
    def dtau(self):
        return float(self.tau_grid[1] - self.tau_grid[0])

    def at(self, tau):
        """D(tau) at a scalar or an array of real tau; shape (..., n, n).

        One linear interpolation at |tau| on the grid, zero past its end;
        negative arguments then take D^{ab}(-tau) = conj(D^{b-bar,
        a-bar}(tau)) from the adjoint map.
        """
        tau = np.asarray(tau, dtype=float)
        idx = np.abs(tau) / self.dtau
        lo = np.minimum(np.floor(idx), self.tau_grid.size - 2)
        # past the last node frac clips to 1, which is the last value
        frac = np.minimum(idx - lo, 1.0)[..., None, None]
        lo = lo.astype(int)
        pos = (1 - frac) * self.values[lo] + frac * self.values[lo + 1]
        past = np.abs(tau) > self.tau_grid[-1] * (1 + 1e-12)
        pos = np.where(past[..., None, None], 0.0, pos)
        return np.where((tau < 0)[..., None, None], self._reversed(pos), pos)

    def _reversed(self, pos):
        """D(-tau) from a stack of D(tau), by stationarity."""
        adj = list(self.adjoint_map)
        return np.conj(np.swapaxes(pos[..., adj, :][..., adj], -1, -2))

    def check_system(self, spectrum, couplings):
        """Raise InputError unless the couplings act on the spectrum's
        levels and pair with this correlation's channels and adjoint map."""
        if couplings.dim != spectrum.dim:
            raise InputError("coupling dimension does not match spectrum")
        if self.n_channels != couplings.n_channels:
            raise InputError("correlation/coupling channel mismatch")
        if tuple(self.adjoint_map) != tuple(couplings.adjoint_map):
            raise InputError(
                "correlation function was built with a different channel adjoint "
                "map than the couplings; rebuild it with the matching map"
            )

    def fourier_transform(self, omega_grid):
        """Trapezoid forward transform int_{-T}^{T} e^{i w tau} D(tau) dtau,
        negative-tau values supplied by stationarity."""
        w = np.atleast_1d(np.asarray(omega_grid, dtype=float))
        t = self.tau_grid
        v = self.values
        vneg = self._reversed(v)                 # D(-tau_j)
        weights = np.full(t.size, self.dtau)
        weights[0] = weights[-1] = self.dtau / 2
        # half weight at tau=0 on each side adds up to the full interior
        # weight of the [-T, T] trapezoid
        phase_p = np.exp(1j * np.outer(w, t))
        out = np.einsum("wt,t,tab->wab", phase_p, weights, v)
        out += np.einsum("wt,t,tab->wab", np.conj(phase_p), weights, vneg)
        return out if np.ndim(omega_grid) else out[0]


def time_correlation(spectrum, tau_grid, tau_memory, adjoint_map=None):
    """Inverse transform of a bath spectrum onto a uniform tau grid.

    The omega quadrature is the DFT band conjugate to the tau grid
    (band edge pi/dtau), evaluated with an FFT, so transforming back
    with :meth:`TimeCorrelation.fourier_transform` on matching grids is
    exact to rounding.

    :raises InputError: when the grid cannot resolve the spectrum
        (band edge below the kind's declared support scale) or
        tau_memory falls outside the grid.
    """
    t = _tau_grid(tau_grid, tau_memory)
    dtau = t[1] - t[0]
    band_edge = np.pi / dtau
    if spectrum.support_scale is not None and band_edge < spectrum.support_scale:
        raise InputError(
            f"tau grid too coarse: band edge pi/dtau = {band_edge:g} is below "
            f"the spectral support {spectrum.support_scale:g} of kind "
            f"{spectrum.kind!r}"
        )
    if adjoint_map is None:
        adjoint_map = tuple(range(spectrum.n_channels))

    m = t.size
    n_fft = 2 * m
    domega = 2 * np.pi / (n_fft * dtau)
    omegas = (np.arange(n_fft) - m) * domega
    g = spectrum.correlation_ft(omegas, adjoint_map)   # D~(w) samples
    # D(tau_j) = (domega / 2pi) * (-1)^j * FFT_j, the phase undoing the
    # -m shift of the omega grid
    ft = np.fft.fft(g, axis=0)[:m]
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    vals = (domega / (2 * np.pi)) * signs[:, None, None] * ft
    return TimeCorrelation(
        tau_grid=t,
        values=vals,
        tau_memory=float(tau_memory),
        adjoint_map=tuple(adjoint_map),
        quadrature={"omega_max": float(-omegas[0]), "n_omega": int(n_fft),
                    "rule": "fft-rectangle"},
    )
