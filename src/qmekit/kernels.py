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

The two dense builders fold each term's bath weight into one coupling
factor (an n^2 d^3 einsum for n channels), S_b (S_a g) and not
(S_b S_a) g, and build the d^4 terms as batched matmuls.

Index conventions live in :mod:`qmekit.core`: rows are the out pair
(p, p'), columns the in pair (q, q'), flat index p*d + p'.  The bath
enters through D^{ab}(w) = gamma^{a-bar, b}(w) with the channel adjoint
map supplied by the coupling set.
"""

import numpy as np
from functools import partial

from .core import (InputError, InvariantError, Superoperator, bohr_frequencies,
                   decompose_jump_operators)
from . import io as _io

__all__ = [
    "VARIANT_TAGS",
    "born_kernel_frequency",
    "redfield_kernel",
    "energy_conserving_kernel",
    "lindblad_kernel",
    "build_kernel",
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
    at finite omega the exact symmetry pairs it with K~(-omega).  The
    loss tables are (d, d, n d) @ (n d, d) products; each gain is a
    matmul over the n channels, batched over q or p.
    """
    bohr, s, dtilde = _prep(spectrum, couplings, bath_spec)
    omega = float(omega)
    d, n = spectrum.dim, couplings.n_channels
    wp = dtilde(omega + bohr)              # [x, y] = omega + E_{xy}
    wm = dtilde(-omega + bohr)

    # each term's bath weight is folded into one factor by an n^2 d^3 einsum
    t1 = np.einsum("apl,Qlab->Qpbl", 0.5 * s, wp).reshape(d, d, n * d) @ s.reshape(n * d, d)
    t2 = np.einsum("blP,qlab->qPal", 0.5 * s, wm).reshape(d, d, n * d) \
        @ s.transpose(0, 2, 1).reshape(n * d, d)
    # gains: g1[q, p, P Q] at D(-omega + E_{qp'}), g2[p, q, Q P] at D(omega + E_{q'p})
    g1 = s.transpose(2, 1, 0) @ np.einsum("aQP,qPab->qbPQ", 0.5 * s, wm).reshape(d, n, d * d)
    k = g1.reshape((d,) * 4).transpose(1, 2, 0, 3).copy()
    g2 = s.transpose(1, 2, 0) @ np.einsum("aQP,Qpab->pbQP", 0.5 * s, wp).reshape(d, n, d * d)
    k += g2.reshape((d,) * 4).transpose(0, 3, 1, 2)
    rng = np.arange(d)
    k[:, rng, :, rng] -= t1                # D(omega + E_{q'l}), t1[Q, p, q]
    k[rng, :, rng, :] -= t2                # D(-omega + E_{ql}), t2[q, P, Q]
    return Superoperator(d, k.reshape(d * d, d * d))


def redfield_kernel(spectrum, couplings, bath_spec, ansatz="in"):
    """Markov kernel with the bath sampled at literal Bohr differences.

    The gain is taken in factored form, sum_b S_b rho Lambda_b + sum_a
    M_a rho S_a (Breuer & Petruccione 2002, section 3.3), as one batched
    matmul; it does not depend on the ansatz, so "in" and "out" share
    every gain entry bit for bit.

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
    if ansatz == "in":
        t1 = np.einsum("apl,blq,qlab->pq", s, s, g)
        t2 = np.einsum("aQl,blP,Qlab->QP", s, s, g)
    else:
        t1 = np.einsum("apl,blq,plab->pq", s, s, g)
        t2 = np.einsum("aQl,blP,Plab->QP", s, s, g)

    # gain terms, half weight each at E_{q'p'} and E_{qp}: sum_c L_c[p, q]
    # R_c[Q, P] with L = [S_b; M_a / 2], R = [Lambda_b / 2; S_a] stacked,
    # Lambda_b = sum_a S_a g[Q, P, a, b], M_a = sum_b S_b g[q, p, a, b]
    lam = np.einsum("aQP,QPab->bQP", s, g)
    m = np.einsum("bpq,qpab->apq", s, g)
    left, right = np.concatenate([s, 0.5 * m]), np.concatenate([0.5 * lam, s])
    k = np.matmul(left.transpose(1, 2, 0)[:, None], right.transpose(2, 0, 1)[None])
    rng = np.arange(d)
    k[:, rng, :, rng] -= 0.5 * t1[None, :, :]
    k[rng, :, rng, :] -= 0.5 * t2.T[None, :, :]
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
    conserved by the dissipator.

    Read off ``kernel.population_block()``: the population rows are zero
    outside it, so it sums them in ascending p, as a scan of the dense
    rows does, bit for bit."""
    _, vals, pop = kernel.population_block()
    return float(np.abs(vals[pop].sum(axis=0)).max())


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
        "max_abs_entry": max(float(np.abs(vals).max()) for _, vals in kernel.blocks),
        "version": _io.PACKAGE_VERSION,
    }
