"""Dissipative kernel builders in the energy eigenbasis.

Five constructions of the d^2 x d^2 kernel K_{pp',qq'} for the same
system/bath data, differing in where the bath spectrum is sampled:

``born_kernel_frequency``
    frequency-resolved second-order kernel K~(omega), the common
    ancestor of the rest.
``redfield_kernel``
    Markov kernel with the resonance argument taken from the incoming
    (column) index pair (``ansatz="in"``) or the outgoing (row) pair
    (``ansatz="out"``).
``energy_conserving_kernel``
    the "in" kernel with Kronecker deltas enforcing energy conservation
    between the paired indices, taken from the Bohr bins.
``lindblad_kernel``
    jump-operator (GKLS) form summed over Bohr-frequency bins.

The energy-conserving and Lindblad constructions are algebraically the
same object; ``tests`` and the comparison helpers check the agreement to
float rounding with no rotating-wave step involved; both take energy
conservation from the Bohr bins, each with its own formula.

Index conventions live in :mod:`qmekit.core`: rows are the out pair
(p, p'), columns the in pair (q, q'), flat index p*d + p'.  The bath
enters through D^{ab}(w) = gamma^{a-bar, b}(w) with the channel adjoint
map supplied by the coupling set.
"""

import numpy as np
from dataclasses import dataclass
from functools import partial

from .core import (InputError, InvariantError, Superoperator, bohr_frequencies,
                   decompose_jump_operators)
from . import io as _io

__all__ = [
    "KossakowskiBlock",
    "VARIANT_TAGS",
    "born_kernel_frequency",
    "redfield_kernel",
    "energy_conserving_kernel",
    "lindblad_kernel",
    "build_kernel",
    "kossakowski_matrix",
    "kernel_difference",
    "trace_condition_residual",
    "kernel_provenance",
    "kernel_to_csv",
    "kernel_envelope",
]

VARIANT_TAGS = ("born", "redfield-in", "redfield-out", "energy-conserving", "lindblad")


def _prep(spectrum, couplings, bath_spec):
    """Shared validation; returns (bohr matrix, S stack, D-tilde evaluator)."""
    if couplings.dim != spectrum.dim:
        raise InputError("coupling dimension does not match spectrum")
    if bath_spec.n_channels != couplings.n_channels:
        raise InputError(
            f"bath has {bath_spec.n_channels} channels, couplings have "
            f"{couplings.n_channels}"
        )
    bohr = spectrum.bohr_matrix()          # bohr[p, q] = E_p - E_q, snapped
    # D^{ab}(w) = gamma^{a-bar, b}(w); rows permuted by the adjoint map
    dtilde = partial(bath_spec.correlation_ft, adjoint_map=couplings.adjoint_map)
    return bohr, couplings.matrices, dtilde


def born_kernel_frequency(spectrum, couplings, bath_spec, omega):
    """Frequency-resolved Born kernel K~(omega).

    Parameters
    ----------
    omega : float
        Fourier frequency of the kernel.  The Markov variants fix it to
        a Bohr frequency per matrix element; here it stays free.

    Returns
    -------
    Superoperator

    Notes
    -----
    The four terms sample the bath at omega +/- shifted Bohr
    frequencies; columns (q, q') always trace-cancel against the two
    gain terms, so sum_p K[p, p, q, q'] vanishes to rounding at any
    omega.  K~(omega) is a hermiticity-preserving map only at omega = 0;
    at finite omega the exact symmetry pairs it with K~(-omega).
    """
    bohr, s, dtilde = _prep(spectrum, couplings, bath_spec)
    omega = float(omega)
    d = spectrum.dim
    k = np.zeros((d, d, d, d), dtype=complex)
    rng = np.arange(d)

    wp = dtilde(omega + bohr)              # [x, y] = omega + E_{xy}
    wm = dtilde(-omega + bohr)

    t1 = np.einsum("apl,blq,Qlab->pqQ", s, s, wp)      # D(omega + E_{q'l})
    k[:, rng, :, rng] -= 0.5 * t1.transpose(2, 0, 1)

    t2 = np.einsum("aQl,blP,qlab->QPq", s, s, wm)      # D(-omega + E_{ql})
    k[rng, :, rng, :] -= 0.5 * t2.transpose(2, 1, 0)

    k += 0.5 * np.einsum("bpq,aQP,qPab->pPqQ", s, s, wm)   # D(-omega + E_{qp'})
    k += 0.5 * np.einsum("bpq,aQP,Qpab->pPqQ", s, s, wp)   # D(omega + E_{q'p})

    return Superoperator(d, k.reshape(d * d, d * d))


def redfield_kernel(spectrum, couplings, bath_spec, ansatz="in"):
    """Markov kernel with the bath sampled at literal Bohr differences.

    Parameters
    ----------
    ansatz : {"in", "out"}
        "in" takes the resonance frequency from the incoming (column)
        pair, which resolves the four bath arguments to E_{ql}, E_{q'l},
        E_{q'p'}, E_{qp}.  "out" uses the outgoing (row) pair instead,
        swapping the loss-term arguments to E_{pl}, E_{p'l}; the two
        gain terms carry the same half weight and merely exchange their
        arguments, so the ansatz choice only moves entries in coherence
        rows/columns.

    Returns
    -------
    Superoperator
    """
    if ansatz not in ("in", "out"):
        raise InputError(f"unknown ansatz {ansatz!r}, want 'in' or 'out'")
    bohr, s, dtilde = _prep(spectrum, couplings, bath_spec)
    d = spectrum.dim
    g = dtilde(bohr)                       # g[x, y, a, b] = D^{ab}(E_{xy})
    k = np.zeros((d, d, d, d), dtype=complex)
    rng = np.arange(d)

    if ansatz == "in":
        t1 = np.einsum("apl,blq,qlab->pq", s, s, g)
        t2 = np.einsum("aQl,blP,Qlab->QP", s, s, g)
    else:
        t1 = np.einsum("apl,blq,plab->pq", s, s, g)
        t2 = np.einsum("aQl,blP,Plab->QP", s, s, g)
    k[:, rng, :, rng] -= 0.5 * t1[None, :, :]
    k[rng, :, rng, :] -= 0.5 * t2.T[None, :, :]

    # gain terms: half weight each, arguments E_{q'p'} and E_{qp}; their
    # sum is ansatz-independent
    k += 0.5 * np.einsum("bpq,aQP,QPab->pPqQ", s, s, g)
    k += 0.5 * np.einsum("bpq,aQP,qpab->pPqQ", s, s, g)

    return Superoperator(d, k.reshape(d * d, d * d))


def energy_conserving_kernel(spectrum, couplings, bath_spec):
    """The "in" kernel with the Kronecker deltas of energy conservation
    taken from the Bohr bins of :func:`qmekit.core.bohr_frequencies`.

    Loss terms keep (p, q) and (p', q') in the zero bin (one degeneracy
    class); the two gain terms collapse into a single unit-weight term,
    evaluated only where (p, q) and (p', q') share a bin, with the bath
    sampled at E_{q'p'}.  There the alternative argument E_{qp} is the
    same number; tests assert that instead of choosing.  Cross-blocks
    between populations and coherences vanish identically for
    nondegenerate spectra: the bins come from exact class-snapped
    energies, so the zeros are structural, not rounded.

    Returned in block form, one block per Bohr bin: the loss and gain
    entries go straight into the blocks, in the order loss, loss, gain.
    """
    bohr, s, dtilde = _prep(spectrum, couplings, bath_spec)
    d = spectrum.dim
    g = dtilde(bohr)                       # g[x, y, a, b] = D^{ab}(E_{xy})
    omegas, label = bohr_frequencies(spectrum)
    zero = omegas.size // 2                # the bin of omega = 0
    t1 = np.einsum("apl,blq,qlab->pq", s, s, g) * (label == zero)
    t2 = np.einsum("aQl,blP,Qlab->QP", s, s, g) * (label == zero)
    # coupled (p, q) and (q', p') in mirrored bins: S_b[p, q] S_a[q', p']
    p, q, b, v = _coupled_pairs(s, label)
    i, j = _partners(b, 2 * zero - b)
    gain = np.einsum("eb,ea,eab->e", v[i], v[j], g[p[j], q[j]])
    return Superoperator.from_terms(d, label, [*_loss_terms(-0.5 * t1, -0.5 * t2.T),
                                               (p[i] * d + q[j], q[i] * d + p[j], gain)])


def _coupled_pairs(s, label):
    """Coupled level pairs (p, q) grouped by bin (C order within a bin),
    their bins label[p, q] and channel entries v[i, a] = S_a[p_i, q_i]."""
    p, q = np.nonzero(np.any(s != 0, axis=0))
    order = np.argsort(label[p, q], kind="stable")
    p, q = p[order], q[order]
    return p, q, label[p, q], s.transpose(1, 2, 0)[p, q]


def _partners(b, want):
    """Every (i, j) with b[j] == want[i], in C order: np.nonzero of
    want[:, None] == b[None, :] without the square mask (b sorted)."""
    lo = np.searchsorted(b, want, "left")
    n = np.searchsorted(b, want, "right") - lo
    i = np.repeat(np.arange(b.size), n)
    return i, np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


def _loss_terms(a, c):
    """Coordinate terms of k[p r, q r] += a[p, q] and k[r P, r Q] +=
    c[P, Q] for every level r, at the nonzero entries of a and c."""
    d = len(a)
    r = np.arange(d)
    p, q = np.nonzero(a)
    P, Q = np.nonzero(c)
    return [((p[:, None] * d + r).ravel(), (q[:, None] * d + r).ravel(),
             np.repeat(a[p, q], d)),
            ((r[:, None] * d + P).ravel(), (r[:, None] * d + Q).ravel(),
             np.tile(c[P, Q], d))]


def lindblad_kernel(spectrum, couplings, bath_spec):
    """GKLS kernel summed over Bohr-frequency bins.

    For each bin omega_b with jump operators J_a = S^a(omega_b):

        K += sum_ab gamma^{ab}(omega_b) [ kron(J_b, conj(J_a))
             - 1/2 kron(J_a^H J_b, 1) - 1/2 kron(1, (J_a^H J_b)^T) ]

    No rotating-wave averaging is involved; binning plus the snapped
    energies make this agree with :func:`energy_conserving_kernel` to
    summation rounding.

    A bin's gain term touches only the level pairs of that bin, so the
    work is O(sum_b |bin_b|^2 n^2) for n channels, and the result comes
    in block form, with no d^4 array, instead of O(bins d^4).
    """
    return _jump_kernel(spectrum, couplings, bath_spec, gain_sign=1.0)


def _jump_kernel(spectrum, couplings, bath_spec, gain_sign):
    """Jump-form kernel with its per-bin gain blocks scaled by gain_sign,
    in block form, one block per Bohr bin: the gain entries, then the two
    loss terms.

    Each coupled level pair lies in exactly one bin, so the gain entries
    of a bin's pairs (p, q), (p', q') land on distinct slots (pp', qq').
    """
    _, s, _ = _prep(spectrum, couplings, bath_spec)
    d = spectrum.dim
    jumps = decompose_jump_operators(spectrum, couplings)
    p, q, b, v = _coupled_pairs(s, jumps.label)
    gv = np.einsum("iab,ib->ia", bath_spec.gamma(jumps.omegas[b]), v)
    i, j = _partners(b, b)
    # sum_ab gamma^{ab} J_b[p_i, q_i] conj(J_a[p_j, q_j])
    block = np.einsum("ea,ea->e", gv[i], v[j].conj())
    loss = np.zeros((d, d), dtype=complex)
    row = p[i] == p[j]                 # J_a^H J_b joins pairs sharing a row
    np.add.at(loss, (q[j][row], q[i][row]), block[row])
    gain = (p[i] * d + p[j], q[i] * d + q[j], gain_sign * block)
    return Superoperator.from_terms(d, jumps.label,
                                    [gain, *_loss_terms(-0.5 * loss, -0.5 * loss.T)])


def build_kernel(spectrum, couplings, bath_spec, variant, omega=None):
    """Dispatch on a variant tag; see ``VARIANT_TAGS``.  Finite inputs
    that overflow to a non-finite kernel raise InvariantError."""
    system = (spectrum, couplings, bath_spec)
    # an overflow shows as a non-finite entry, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "born":
            if omega is None:
                raise InputError("born variant needs omega")
            kernel = born_kernel_frequency(*system, omega)
        elif variant in ("redfield-in", "redfield-out"):
            kernel = redfield_kernel(*system, variant.split("-")[1])
        elif variant == "energy-conserving":
            kernel = energy_conserving_kernel(*system)
        elif variant == "lindblad":
            kernel = lindblad_kernel(*system)
        else:
            raise InputError(f"unknown kernel variant {variant!r}")
    if not kernel.all_finite():
        raise InvariantError(f"the {variant} kernel has a non-finite entry")
    return kernel


# ---------------------------------------------------------------------------
# per-bin dissipator blocks

@dataclass(frozen=True)
class KossakowskiBlock:
    """Channel-space rate matrix of one Bohr bin."""

    omega: float
    labels: tuple
    matrix: np.ndarray
    min_eigenvalue: float
    is_psd: bool


def kossakowski_matrix(spectrum, couplings, bath_spec, omega):
    """gamma(omega_b) restricted to the channels active in the bin.

    Parameters
    ----------
    omega : float
        Must match a Bohr bin of the spectrum within eps_deg.

    Raises
    ------
    InputError
        When omega matches no bin, or the bin carries no coupling
        support (empty Kossakowski block).
    """
    _prep(spectrum, couplings, bath_spec)
    jumps = decompose_jump_operators(spectrum, couplings)
    b = jumps.bin_index(float(omega), spectrum.eps_deg)
    active = np.flatnonzero(
        np.any(couplings.matrices[:, jumps.label == b] != 0, axis=1)).tolist()
    if not active:
        raise InputError(
            f"no coupling channel has support in the Bohr bin at "
            f"omega={jumps.omegas[b]:g}"
        )
    g = bath_spec.gamma(float(jumps.omegas[b]))[np.ix_(active, active)]
    h = (g + g.conj().T) / 2
    evals = np.linalg.eigvalsh(h)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(h))))
    return KossakowskiBlock(
        omega=float(jumps.omegas[b]),
        labels=tuple(couplings.labels[a] for a in active),
        matrix=g,
        min_eigenvalue=float(evals[0]),
        is_psd=bool(evals[0] >= -tol),
    )


# ---------------------------------------------------------------------------
# comparisons and checks

def kernel_difference(kernel_a, kernel_b):
    """Entrywise max |A - B| and the ((p, p'), (q, q')) index where it sits."""
    if kernel_a.dim != kernel_b.dim:
        raise InputError("kernel dimensions differ")
    d = kernel_a.dim
    diff = np.abs(kernel_a.data - kernel_b.data)
    row, col = np.unravel_index(np.argmax(diff), diff.shape)
    return float(diff[row, col]), (divmod(int(row), d), divmod(int(col), d))


def trace_condition_residual(kernel):
    """max over columns of |sum_p K[p p, q q']|; zero means trace is
    conserved by the dissipator."""
    t = kernel.tensor()
    col_sums = np.einsum("ppqr->qr", t)
    return float(np.max(np.abs(col_sums)))


# ---------------------------------------------------------------------------
# provenance and export

def kernel_provenance(spectrum, couplings, bath_spec, variant, omega=None):
    """Kernel tag plus the provenance of everything that went into it;
    omega enters for the born variant only."""
    prov = {
        "tag": variant,
        "spectrum_hash": _io.spectrum_hash(spectrum),
        "coupling_hash": _io.coupling_hash(couplings),
        "bath_id": _io.bath_id(bath_spec),
    }
    if variant == "born":
        prov["omega"] = float(omega) if omega is not None else 0.0
    return prov


def kernel_to_csv(kernel, path):
    """Write entries as (flat index, Re, Im); index is row*d^2 + col."""
    entries = np.ascontiguousarray(kernel.data).view(float).reshape(-1, 2)
    _io.write_csv_rows(path, ["index", "re", "im"], entries, index=True)


def kernel_envelope(kernel, provenance):
    """JSON-ready report enveloping a kernel build, with the
    :func:`kernel_provenance` dict as its variant."""
    return {
        "dim": kernel.dim,
        "variant": provenance,
        "trace_residual": trace_condition_residual(kernel),
        "max_abs_entry": float(np.max(np.abs(kernel.data))),
        "version": _io.PACKAGE_VERSION,
    }
