"""System-side primitives: spectra, couplings, superoperator indexing.

Everything downstream works in the eigenbasis of the system Hamiltonian,
so this module owns the conventions:

* levels are sorted non-decreasing and indexed 0..d-1,
* the Bohr frequency between levels p and q is E[p] - E[q],
* a superoperator row/column is the flattened ordered pair (p, p') with
  flat index p*d + p', row-major, so that mapping rho -> A rho B becomes
  the matrix kron(A, B.T) acting on rho.ravel(); the population (p, p)
  is flat index p*(d + 1), so ``idx % (d + 1) == 0`` and ``[::d + 1]``
  pick the populations; one declared block of a :class:`Superoperator`
  holds them all.

Degeneracy is decided by a tolerance ``eps_deg``.  Levels closer than
eps_deg (chained through neighbours) form one class and are snapped to
their class mean for every derived frequency, which keeps selection
rules and Bohr-frequency coincidences exact instead of
rounding-accident-dependent.  A chain whose total spread exceeds
eps_deg has no unambiguous class structure and is rejected.
"""

import numpy as np
from dataclasses import dataclass
from functools import cached_property


__all__ = [
    "InputError",
    "InvariantError",
    "EnergySpectrum",
    "CouplingChannelSet",
    "DensityMatrix",
    "Superoperator",
    "JumpOperatorSet",
    "build_spectrum",
    "default_degeneracy_tol",
    "bohr_frequencies",
    "decompose_jump_operators",
    "lrmul",
    "hermitian_channel",
    "ladder_channels",
]

# validation defaults for density matrices
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_POS = 1e-8


class InputError(ValueError):
    """Malformed or inconsistent input (CLI maps this to exit code 2)."""


class InvariantError(RuntimeError):
    """A checked invariant failed (CLI maps this to exit code 1)."""


# ---------------------------------------------------------------------------
# flat superoperator indexing

def lrmul(a, b):
    """Superoperator matrix of rho -> a @ rho @ b."""
    return np.kron(a, b.T)


# ---------------------------------------------------------------------------
# energy spectrum

def default_degeneracy_tol(levels):
    """Default eps_deg: 1e-9 times the largest level magnitude."""
    levels = np.asarray(levels, dtype=float)
    return 1e-9 * float(np.max(np.abs(levels))) if levels.size else 0.0


@dataclass(frozen=True)
class EnergySpectrum:
    """Validated energy levels plus their degeneracy-class structure.

    :param levels: raw eigenvalues, sorted non-decreasing.
    :param eps_deg: degeneracy tolerance used for classes and Bohr bins.
    :param labels: one name per level (auto-generated when omitted).

    Derived fields (filled in by :func:`build_spectrum`):

    * ``class_of[n]`` -- degeneracy-class index of level n,
    * ``class_energy[c]`` -- snapped (class-mean) energy of class c,
    * ``snapped[n]`` -- class_energy[class_of[n]].
    """

    levels: np.ndarray
    eps_deg: float
    labels: tuple
    class_of: np.ndarray
    class_energy: np.ndarray

    @property
    def dim(self):
        return len(self.levels)

    @property
    def snapped(self):
        return self.class_energy[self.class_of]

    def classes(self):
        """Level indices grouped by degeneracy class, in energy order."""
        return np.split(np.arange(self.dim), np.flatnonzero(np.diff(self.class_of)) + 1)

    def bohr_matrix(self):
        """d x d matrix of snapped differences E[p] - E[q], antisymmetric."""
        e = self.snapped
        return e[:, None] - e[None, :]

    @cached_property
    def _bohr_bins(self):
        """:func:`bohr_frequencies`, computed on first use and kept; an
        ambiguous chain caches nothing, so it raises on every call."""
        eps = self.eps_deg
        diff = -self.bohr_matrix()          # diff[p, q] = E[q] - E[p]
        up = diff > 0
        pos = np.unique(diff[up])
        group, omega, wide = _chain(pos, eps)
        if wide is not None:
            raise InputError(
                f"Bohr frequencies {pos[wide].tolist()} chain within "
                f"eps_deg={eps:g} but spread over more than eps_deg"
            )
        n = omega.size                          # bin n holds omega = 0
        group = group[np.searchsorted(pos, diff[up])]
        label = np.full(diff.shape, n)
        label[up] = n + 1 + group
        label.T[up] = n - 1 - group             # mirror: transposed pairs at -omega
        omegas = np.concatenate([-omega[::-1], [0.0], omega])
        for shared in (omegas, label):
            shared.setflags(write=False)
        return omegas, label


def _chain(values, eps):
    """Group sorted values whose neighbours lie within eps: the one rule
    behind degeneracy classes and Bohr bins.  Returns the group of each
    value, each group's np.mean over its slice (a single value copied),
    and the slice of the first group spread over more than eps, or None.
    """
    opens = np.diff(np.concatenate(([-np.inf], values, [np.inf]))) > eps
    bounds = np.flatnonzero(opens)          # the group starts, then values.size
    lo, hi = bounds[:-1], bounds[1:]        # group g is values[lo[g]:hi[g]]
    means = values[lo]
    for g in np.flatnonzero(hi - lo > 1):
        means[g] = np.mean(values[lo[g]:hi[g]])
    wide = np.flatnonzero(values[hi - 1] - values[lo] > eps)
    wide = slice(lo[wide[0]], hi[wide[0]]) if wide.size else None
    return np.cumsum(opens[:-1]) - 1, means, wide


def build_spectrum(levels, eps_deg=None, labels=None):
    """Validate levels and derive the degeneracy-class structure.

    :param levels: finite reals, sorted non-decreasing.
    :param eps_deg: degeneracy tolerance; default 1e-9 * max|E|.
    :raises InputError: on unsorted/non-finite input, or when chaining
        levels within eps_deg produces a class spread over more than
        eps_deg (no unambiguous grouping exists for that tolerance).
    """
    arr = np.asarray(levels, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("levels must be a non-empty 1d array")
    if not np.all(np.isfinite(arr)):
        raise InputError("levels must be finite")
    if np.any(np.diff(arr) < 0):
        raise InputError("levels must be sorted non-decreasing")
    if eps_deg is None:
        eps_deg = default_degeneracy_tol(arr)
    eps_deg = float(eps_deg)
    if not (eps_deg >= 0.0 and np.isfinite(eps_deg)):
        raise InputError("eps_deg must be a finite non-negative number")

    class_of, class_energy, wide = _chain(arr, eps_deg)
    if wide is not None:
        members = arr[wide]
        raise InputError(
            f"degeneracy chaining is ambiguous: levels {members.tolist()} "
            f"chain within eps_deg={eps_deg:g} but spread over "
            f"{members[-1] - members[0]:g}"
        )
    if labels is None:
        labels = tuple(f"E{n}" for n in range(arr.size))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != arr.size:
            raise InputError("labels length must match levels length")
    return EnergySpectrum(
        levels=arr.copy(),
        eps_deg=eps_deg,
        labels=labels,
        class_of=class_of,
        class_energy=class_energy,
    )


# ---------------------------------------------------------------------------
# coupling channels

@dataclass(frozen=True)
class CouplingChannelSet:
    """System operators S^a of the coupling sum_a S^a (x) B^a.

    ``adjoint_map`` sends each channel index to the index of its
    hermitian conjugate partner; it must be an involution and the stored
    matrices must satisfy S[adjoint_map[a]] == S[a]^dagger entrywise.
    A hermitian channel is its own partner.
    """

    matrices: np.ndarray          # (n_channels, d, d) complex
    labels: tuple
    adjoint_map: tuple

    @property
    def n_channels(self):
        return self.matrices.shape[0]

    @property
    def dim(self):
        return self.matrices.shape[1]

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise InputError("coupling matrices must be a (n, d, d) array")
        if not np.isfinite(m).all():
            raise InputError("coupling matrices must be finite")
        object.__setattr__(self, "matrices", m)
        n = m.shape[0]
        adj = tuple(int(a) for a in self.adjoint_map)
        object.__setattr__(self, "adjoint_map", adj)
        if sorted(adj) != list(range(n)):
            raise InputError("adjoint_map must be a permutation of channel indices")
        if any(adj[adj[a]] != a for a in range(n)):
            raise InputError("adjoint_map must be an involution")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != n:
            raise InputError("labels length must match channel count")
        object.__setattr__(self, "labels", labels)
        scale = max(np.max(np.abs(m)), 1.0)
        for a in range(n):
            if np.max(np.abs(m[adj[a]] - m[a].conj().T)) > 1e-13 * scale:
                raise InputError(
                    f"channel {labels[adj[a]]!r} is not the adjoint of {labels[a]!r}"
                )


def hermitian_channel(s, label="S"):
    """Single self-adjoint coupling channel."""
    s = np.asarray(s, dtype=complex)
    return CouplingChannelSet(
        matrices=s[None, :, :], labels=(label,), adjoint_map=(0,)
    )


def ladder_channels(s, label="L"):
    """Channel pair (S, S^dagger) with the swap adjoint map."""
    s = np.asarray(s, dtype=complex)
    return CouplingChannelSet(
        matrices=np.stack([s, s.conj().T]),
        labels=(label, label + "dag"),
        adjoint_map=(1, 0),
    )


# ---------------------------------------------------------------------------
# states and superoperators

@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix.

    Hermiticity and unit trace are enforced at tolerances TOL_HERM and
    TOL_TRACE (1e-10); the smallest eigenvalue may dip to -TOL_POS
    (1e-8) to leave room for float noise in downstream checks.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("density matrix must be square")
        if not np.isfinite(m).all():
            raise InputError("density matrix must be finite")
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > TOL_HERM:
            raise InputError("density matrix is not hermitian within tol_herm")
        if abs(np.trace(m).real - 1.0) > TOL_TRACE or abs(np.trace(m).imag) > TOL_TRACE:
            raise InputError("density matrix trace is not 1 within tol_trace")
        if self.min_eigenvalue() < -TOL_POS:
            raise InputError("density matrix has an eigenvalue below -tol_pos")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)[0])

    @classmethod
    def from_ket(cls, ket):
        ket = np.asarray(ket, dtype=complex)
        ket = ket / np.linalg.norm(ket)
        return cls(np.outer(ket, ket.conj()))

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)


class Superoperator:
    """d^2 x d^2 matrix on row-major flattened operators, held as blocks.

    ``blocks`` holds one ``(idx, vals)`` size group per block size m, in
    ascending m: ``idx`` is the (n_blocks, m) flat pair indices of each
    block, each row ascending, and ``vals`` the (n_blocks, m, m) entries
    ``data[idx_b, idx_b]``; a group's blocks come by smallest pair, and
    entries outside the blocks are zero.  ``data``, the dense matrix, is
    scattered from :meth:`entries` on first access and kept; a block over
    all pairs in order is handed back as it is.

    The blocks are declared, never searched for, and one holds every
    population pair (:meth:`population_block`).  The covariant builders
    (:meth:`from_terms`) make each Bohr bin one block, the populations in
    the zero bin; ``zero`` makes the populations one block, every other
    pair its own; dense data is one block over all pairs, even where its
    nonzero pattern splits, and such a redfield or born generator pays
    for one d^2 x d^2 SVD and, above the exponential limit of
    :mod:`qmekit.dynamics`, the adaptive path.  Neither view is written.
    """

    def __init__(self, dim, data=None, blocks=None):
        self.dim = dim
        if blocks is None:
            d2 = dim * dim
            m = np.asarray(data, dtype=complex)
            if m.shape != (d2, d2):
                raise InputError(f"superoperator data must be {d2} x {d2}")
            blocks = [(np.arange(d2)[None], m[None])]
        self.blocks = blocks

    @cached_property
    def data(self):
        n = self.dim * self.dim
        if len(self.blocks) == 1 and self.blocks[0][0].shape == (1, n):
            return self.blocks[0][1][0]         # one block over all pairs, in order
        out = np.zeros(n * n, dtype=complex)
        np.put(out, *self.entries())
        return out.reshape(n, n)

    def entries(self):
        """The flat indices row * d^2 + col of every block entry, and the
        entries, in block order."""
        n = self.dim * self.dim
        flat = [(idx[:, :, None] * n + idx[:, None, :]).ravel() for idx, _ in self.blocks]
        return np.concatenate(flat), np.concatenate([vals.ravel() for _, vals in self.blocks])

    def population_block(self):
        """The block holding every population pair (p, p), which no other
        block enters: its flat pairs (m,), entries (m, m) and population
        positions, ascending in p (a stride if it spans all pairs).  It
        opens its size group, searched from the largest (the zero bin's).

        :raises InvariantError: when the populations are split over blocks.
        """
        for idx, vals in reversed(self.blocks):
            if idx.shape[1] == self.dim ** 2:   # (p, p) is flat p * (d + 1)
                return idx[0], vals[0], slice(None, None, self.dim + 1)
            if idx[0, 0] == 0:
                pop = (idx[0] % (self.dim + 1) == 0).nonzero()[0]
                if pop.size == self.dim:
                    return idx[0], vals[0], pop
        raise InvariantError("the population pairs are split over blocks")

    def all_finite(self):
        """Whether every entry is finite."""
        return all(np.isfinite(vals).all() for _, vals in self.blocks)

    @classmethod
    def zero(cls, dim):
        """The zero map: the populations one block, every other pair its own."""
        pair = np.arange(dim * dim)
        return cls.from_terms(dim, pair * (pair % (dim + 1) != 0), [])

    @classmethod
    def from_terms(cls, dim, label, terms):
        """Block form of a sum of coordinate terms ``(rows, cols, vals)``
        whose every entry joins two pairs of one bin of ``label``.

        Each bin of ``label.ravel()`` is one block, its pairs in flat
        order; the size groups come in ascending m, and within a size the
        bins in the order of their smallest pair.  Each term is added with
        ``np.add.at`` in the order given, straight into the blocks, so
        every entry carries the rounding of the same sum on a dense zero
        matrix.  Nothing of size d^4 is allocated.
        """
        _, first, bin_of, count = np.unique(
            np.ravel(label), return_index=True, return_inverse=True, return_counts=True)
        order = np.lexsort((first[bin_of], count[bin_of]))    # pairs in block order
        m = count[bin_of][order]
        start = np.cumsum(m) - m                # buffer offset of each pair's block row
        sizes = count[np.lexsort((first, count))]
        # entry (r, c) of a bin sits at head[r] + pos[c] of one buffer: r
        # opens its block row at head[r], and c is column pos[c] of its block
        head, pos = np.empty_like(order), np.empty_like(order)
        head[order] = start
        pos[order] = np.arange(m.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        buf = np.zeros(m.sum(), dtype=complex)
        for rows, cols, vals in terms:
            np.add.at(buf, head[rows] + pos[cols], vals)
        ms, lo = np.unique(m, return_index=True)    # size group k holds order[lo:hi]
        hi = np.append(lo[1:], m.size)
        return cls(dim, blocks=[
            (order[a:b].reshape(-1, k), buf[start[a]:start[a] + (b - a) * k].reshape(-1, k, k))
            for k, a, b in zip(ms.tolist(), lo, hi)])


# ---------------------------------------------------------------------------
# Bohr frequencies and jump operators

def bohr_frequencies(spectrum):
    """All Bohr-frequency bins of a spectrum, sorted by omega.

    Returns ``(omegas, label)``: ``label[p, q]`` is the bin of the
    snapped difference E[q] - E[p], so every ordered level pair lands in
    exactly one bin.  Distinct positive differences closer than eps_deg
    (chained through neighbours) share a bin at their mean; bins are
    built on the positive side and mirrored by exact negation, so the
    set is exactly symmetric under omega -> -omega, with the transposed
    pairs.

    Computed once per spectrum and shared: both arrays are read-only.

    :raises InputError: when distinct Bohr differences chain within
        eps_deg over a spread larger than eps_deg (ambiguous binning).
    """
    return spectrum._bohr_bins


@dataclass(frozen=True)
class JumpOperatorSet:
    """Frequency-resolved coupling operators S^a(omega).

    ``label[p, q]`` is the index into ``omegas`` of the Bohr bin holding
    E[q] - E[p].  The jump operator of channel a in bin b keeps entry
    (p, q) of S^a iff label[p, q] == b; summing a channel over all bins
    reproduces the full coupling matrix exactly, because the bins
    partition the ordered pairs.
    """

    omegas: np.ndarray            # (n_bins,)
    label: np.ndarray             # (d, d) bin index of each ordered pair
    couplings: CouplingChannelSet

    @property
    def n_bins(self):
        return len(self.omegas)

    @property
    def dim(self):
        return self.label.shape[0]

    def bin_index(self, omega, eps):
        hits = np.flatnonzero(np.abs(self.omegas - omega) <= max(eps, 0.0))
        if hits.size != 1:
            raise InputError(f"omega={omega:g} does not match a unique Bohr bin")
        return int(hits[0])

    def operator(self, omega, channel, eps=0.0):
        """d x d matrix S^channel(omega)."""
        keep = self.label == self.bin_index(omega, eps)
        return np.where(keep, self.couplings.matrices[channel], 0.0)


def decompose_jump_operators(spectrum, couplings):
    """Split each coupling channel over the Bohr bins of the spectrum.

    The adjoint pairing S^a(omega)^dagger == S^{a-bar}(-omega) holds
    exactly because the bin set is exactly mirror-symmetric.
    """
    if couplings.dim != spectrum.dim:
        raise InputError("coupling dimension does not match spectrum")
    omegas, label = bohr_frequencies(spectrum)
    return JumpOperatorSet(omegas=omegas, label=label, couplings=couplings)
