"""Complete-positivity certificates and variant comparison reports.

A Markov generator is certified, not probed: a Hermiticity-preserving L
generates a completely positive semigroup exp(L t), t >= 0, iff its
Choi matrix is positive semidefinite on the complement of the maximally
entangled vector (Lindblad, Commun. Math. Phys. 48, 119, 1976; Gorini,
Kossakowski & Sudarshan, J. Math. Phys. 17, 821, 1976; used as a
numerical test by Wolf & Cirac, Commun. Math. Phys. 279, 147, 2008).
That is one eigensolve, with no exponential and no time horizon.  A
negative certificate alone proves the semigroup is not CP, not that any
state goes bad (positive non-CP maps exist), so a family of pure states
is scanned for a short-time witness as well, and the verdicts keep the
two situations apart.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import InvariantError
from .kernels import _jump_kernel, build_kernel, trace_condition_residual
from . import io as _io

__all__ = [
    "MapCheck",
    "choi_matrix",
    "map_check",
    "flip_gain_sign",
    "equivalence_report",
]

# certificate, Choi Hermiticity defect and witness are judged against
# this fraction of max|L|
CHOI_TOL = 1e-8
# energy-conserving and lindblad kernels coincide within this fraction
# of the largest kernel entry
EC_AGREEMENT_LIMIT = 1e-12


def choi_matrix(superop_data, dim):
    """Choi matrix of a superoperator given on the flat pair index, or
    the stack of Choi matrices of a (..., d^2, d^2) stack.

    Row index (p, q), column (p', q'): C[(p q), (p' q')] = T[p p', q q'].
    The map is CP iff C is positive semidefinite; hermiticity
    preservation of the map is hermiticity of C.
    """
    d = int(dim)
    t = np.asarray(superop_data, dtype=complex)
    c = t.reshape(-1, d, d, d, d).swapaxes(2, 3)
    return c.reshape(t.shape[:-2] + (d * d, d * d))


def _probe_states(dim, n_random, seed):
    # the basis kets, then random kets: each draws its real part, then its imaginary part
    raw = np.random.default_rng(seed).standard_normal((n_random, 2, dim))
    v = raw[:, 0] + 1j * raw[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([np.eye(dim, dtype=complex), v])


@dataclass(frozen=True)
class MapCheck:
    """Outcome of the CP certificate and the state scan of a generator."""

    verdict: str           # "cp-consistent" | "positivity-violating" | "inconclusive"
    choi_min: float        # lowest eigenvalue of the Choi matrix of L on the
                           # complement of the maximally entangled vector
    choi_herm_defect: float
    scan_min: float        # lowest eigenvalue of L(|psi><psi|) on psi-perp, over the kets
    witness_ket: np.ndarray  # None unless positivity-violating


def map_check(liouv, n_random=64, seed=0):
    """Classify a generator by its Choi certificate and a state scan.

    Every bound below is CHOI_TOL * max|L|.

    cp-consistent: the Choi matrix of L is hermitian within the bound
    and, hermitized and compressed onto the complement of
    Omega = vec(I) / sqrt(d), has no eigenvalue below minus the bound;
    exp(L t) is then CP for every t >= 0.
    positivity-violating: for a scanned pure state psi (the d basis
    kets, then n_random random kets), L(|psi><psi|) has an eigenvalue
    below minus the bound on the complement of psi, so exp(L t) takes
    |psi><psi| out of the state cone at small t > 0 (Kossakowski, Rep.
    Math. Phys. 3, 247, 1972); the first ket with the lowest value is
    attached.
    inconclusive: neither, which is what a positive non-CP semigroup
    looks like from here, or a violation the scanned kets miss.
    """
    d = liouv.dim
    data = liouv.data
    bound = CHOI_TOL * float(np.max(np.abs(data)))

    c = choi_matrix(data, d)
    ch = c.conj().T
    defect = float(np.max(np.abs(c - ch)))
    h = c + ch
    h /= 2
    # P h P with P = I - |Omega><Omega| is the rank-2 update
    # h - |Omega><w| - |w><Omega|, w = h Omega - <Omega|h|Omega> Omega / 2;
    # Omega is 1/sqrt(d) on the population pairs (p, p), flat p * (d + 1)
    pop = slice(None, None, d + 1)
    w = h[:, pop].sum(axis=1) / np.sqrt(d)
    w[pop] -= w[pop].sum() / (2 * d)
    h[pop] -= w.conj() / np.sqrt(d)
    h[:, pop] -= w[:, None] / np.sqrt(d)
    choi_min = float(np.linalg.eigvalsh(h)[0])

    kets = _probe_states(d, n_random, seed)
    rho = kets[:, :, None] * kets.conj()[:, None, :]
    x = (rho.reshape(len(kets), d * d) @ data.T).reshape(rho.shape)
    q = np.eye(d) - rho
    low = np.linalg.eigvalsh(q @ ((x + x.conj().swapaxes(1, 2)) / 2) @ q)[:, 0]
    k = int(np.argmin(low))
    scan_min = float(low[k])

    witness = None
    if choi_min >= -bound and defect <= bound:
        verdict = "cp-consistent"
    elif scan_min < -bound:
        verdict, witness = "positivity-violating", kets[k].copy()
    else:
        verdict = "inconclusive"
    return MapCheck(verdict=verdict, choi_min=choi_min, choi_herm_defect=defect,
                    scan_min=scan_min, witness_ket=witness)


def flip_gain_sign(spectrum, couplings, bath_spec):
    """Jump-form kernel rebuilt with the sandwich (gain) term negated.

    Deliberately broken: the result violates trace conservation and
    positivity by construction.  It exists so the diagnostics have a
    known-guilty generator to convict in tests and demos.
    """
    return _jump_kernel(spectrum, couplings, bath_spec, gain_sign=-1.0)


def equivalence_report(spectrum, couplings, bath_spec, omega=0.0):
    """Pairwise comparison of the four Markov kernels plus the resolved
    kernel at a chosen frequency.

    Asserts nothing; reports max |difference| per pair and its first
    index in C order, whether the energy-conserving and jump
    constructions coincide below EC_AGREEMENT_LIMIT times the largest
    kernel entry, and where the in/out entries that differ by more than
    that much live relative to the population block.

    The energy-conserving and lindblad kernels are compared on their
    shared block entries (:meth:`~qmekit.core.Superoperator.entries`),
    with no d^4 array: against each other entry by entry there, and
    against each dense kernel there and through the dense kernel's
    largest entry off the blocks.  Both take their blocks from the one
    Bohr label, so a layout mismatch raises InvariantError.  The dense
    kernels are compared with each other entry by entry.
    """
    tags = ("redfield-in", "redfield-out", "energy-conserving", "lindblad")
    kernels = {tag: build_kernel(spectrum, couplings, bath_spec, tag) for tag in tags}
    kernels["born"] = build_kernel(spectrum, couplings, bath_spec, "born", omega=omega)
    names = list(kernels)
    d, n = spectrum.dim, spectrum.dim ** 2
    pairs = {}

    def note(a, b, value_at):
        value, at = value_at
        row, col = divmod(at, n)
        pairs["|".join(sorted((a, b), key=names.index))] = {
            "max_abs_diff": value, "at": [list(divmod(row, d)), list(divmod(col, d))]}

    covariant = ("energy-conserving", "lindblad")
    (flat, ec), (flat_lin, lin) = (kernels[tag].entries() for tag in covariant)
    if not np.array_equal(flat, flat_lin):
        raise InvariantError("the covariant kernels have different block layouts")
    order = flat.argsort()
    flat, on = flat[order], (ec[order], lin[order])
    # off `flat` both are zero, and flat[0] = 0 (a block holds its
    # diagonal), so a difference that is zero everywhere sits at 0
    note(*covariant, _first_max(np.abs(on[0] - on[1]), flat))
    scale = max(float(np.abs(v).max()) for v in on)
    for tag in ("redfield-in", "redfield-out", "born"):
        data = kernels[tag].data.ravel()
        inside = data[flat]
        mag = np.abs(data)
        mag[flat] = -1.0                    # below any |D - C| on the blocks
        off = _first_max(mag)               # |D - C| = |D| off the blocks
        del mag                             # one d^4 magnitude at a time
        scale = max(scale, off[0], float(np.abs(inside).max()))
        for other, values in zip(covariant, on):
            in_block = _first_max(np.abs(inside - values), flat)
            note(tag, other, max(in_block, off, key=lambda m: (m[0], -m[1])))
    limit = EC_AGREEMENT_LIMIT * max(scale, 1e-300)
    diff = np.abs(kernels["redfield-in"].data - kernels["redfield-out"].data)
    note("redfield-in", "redfield-out", _first_max(diff.ravel()))
    in_out = _in_out_entries(diff, threshold=limit)
    del diff
    for tag in ("redfield-in", "redfield-out"):
        note(tag, "born", _first_max(np.abs(kernels[tag].data - kernels["born"].data).ravel()))
    ec_diff = pairs["energy-conserving|lindblad"]["max_abs_diff"]
    return {
        "dim": spectrum.dim,
        "born_omega": float(omega),
        "scale": scale,
        "pairs": pairs,
        "ec_equals_lindblad": bool(ec_diff <= limit),
        "ec_lindblad_diff": ec_diff,
        "in_out": in_out,
        "trace_residuals": {tag: trace_condition_residual(k)
                            for tag, k in kernels.items()},
        "version": _io.PACKAGE_VERSION,
    }


def _first_max(values, flat=None):
    """The largest value and its first index (np.argmax's rule), mapped
    through ``flat`` when given."""
    k = int(values.argmax())
    return float(values[k]), k if flat is None else int(flat[k])


def _in_out_entries(diff, threshold):
    """The in/out entries of ``diff`` = |K_in - K_out| (d^2 x d^2) above
    ``threshold``."""
    d = math.isqrt(len(diff))
    hits = np.flatnonzero(diff > threshold)            # C order
    values = diff.ravel()[hits]
    # only the 32 largest are listed: a stable sort of the hits at or
    # above the 32nd largest value keeps C order among ties
    cut = np.partition(values, -32)[-32] if len(hits) > 32 else 0.0
    top = np.flatnonzero(values >= cut)
    top = top[np.argsort(-values[top], kind="stable")[:32]]
    n = d * d                      # hit r: row pair r // n, column pair r % n
    entries = [
        {"row": list(divmod(r // n, d)), "col": list(divmod(r % n, d)), "abs_diff": v,
         "population_block": r // n % (d + 1) == 0 and r % n % (d + 1) == 0}
        for r, v in zip(hits[top].tolist(), values[top].tolist())
    ]   # (p, p) is flat p * (d + 1)
    return {
        "max_abs_diff": float(diff.max()),
        "n_entries": len(hits),
        "entries": entries,
        "population_block_touched": bool((diff[::d + 1, ::d + 1] > threshold).any()),
        "threshold": float(threshold),
    }
