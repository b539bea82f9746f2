"""Canonical serialization: fixed-format floats, sorted-key JSON,
provenance hashes.

Reports must be byte-identical across runs with the same inputs, so
every float in a report is written by :func:`fmt`'s rule (17
significant digits, enough to round-trip a double, -0.0 written as 0).
JSON documents go through :func:`canonical_dumps`, one recursive pass:
keys as ``str(k)``, sorted, no whitespace; +-inf as the strings
``"inf"``/``"-inf"``; complex numbers as ``[re, im]``; NaN raises.  A
finite float or complex array is one fill of a nested ``%.17g``
template, other arrays go through ``tolist()``.  :func:`write_csv_rows`
builds each chunk's template as a numpy byte grid in which zeros, row
numbers, commas and line ends are literal text, so ``%.17g`` fills only
the nonzero values.  Both writers check all input before they open the
file, so a failed write leaves nothing on disk.
"""

import hashlib
import json
import math

import numpy as np

from .core import InputError

PACKAGE_VERSION = "0.1.0"

__all__ = [
    "PACKAGE_VERSION",
    "fmt",
    "write_csv_rows",
    "canonical_dumps",
    "write_json",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
    "sha256_of",
    "spectrum_hash",
    "coupling_hash",
    "bath_id",
]


def fmt(x):
    """Canonical text form of a float (17 significant digits)."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0          # normalize -0.0
    return f"{x:.17g}"


CSV_CHUNK_VALUES = 12288      # values formatted per write


def write_csv_rows(path, header, table, index=False):
    """Write a CSV file: the header names, then the rows of a 2-d float
    array, every value as :func:`fmt` writes it, optionally led by the
    row number.  Rows go out in chunks of at most ``CSV_CHUNK_VALUES``
    values, so the text in memory stays bounded whatever the table size.
    A chunk's template is a numpy byte grid with the zeros and row numbers
    as literal text, so ``%.17g`` formats only the nonzero values.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise InputError(f"CSV table must be 2-d, got shape {table.shape}")
    finite = np.isfinite(table)
    if not finite.all():
        fmt(table[~finite][0])               # raises, naming the value
    n_rows, n_cols = table.shape
    step = max(1, CSV_CHUNK_VALUES // max(n_cols + index, 1))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, step):
            chunk = table[start:start + step]
            nz = chunk != 0                  # -0.0 is a zero, written 0
            # per row: the row number behind \x02 pads and a comma, then "0"
            # or the value mark \x01 and a comma per cell; "\n" ends the row
            row = np.arange(start, start + len(chunk))
            pre = len(str(row[-1])) + 1 if index else 0
            grid = np.full((len(chunk), pre + max(2 * n_cols, 1)), ord(","), np.uint8)
            if index:
                q = row
                for k in range(pre - 2, -1, -1):
                    q, digit = np.divmod(q, 10)
                    grid[:, k] = ord("0") + digit
                grid[:, :pre - 2][row[:, None] < 10 ** np.arange(pre - 2, 0, -1)] = 2
            grid[:, pre:pre + 2 * n_cols:2] = np.where(nz, 1, ord("0"))
            grid[:, -1] = ord("\n")
            text = grid.tobytes().decode().replace("\x02", "").replace("\x01", "%.17g")
            fh.write(text % tuple(chunk[nz].tolist()))


def _emit(obj):
    """Canonical JSON text of one value.

    Exact types come first, because nearly every value of a report is a
    float, a list or a dict; subclasses and numpy scalars are taken to
    those types by the isinstance chain behind them.
    """
    tp = type(obj)
    if tp is float:
        if math.isfinite(obj):
            return fmt(obj)
        if obj != obj:
            raise InputError("NaN cannot be serialized")
        # JSON has no infinity literal; beta = inf is a valid bath
        # parameter, so encode as a string
        return '"inf"' if obj > 0 else '"-inf"'
    if tp is list or tp is tuple:
        return "[" + ",".join([_emit(v) for v in obj]) + "]"
    if tp is dict:
        # every value is emitted, in insertion order, before the keys are
        # sorted; of duplicate str(k) keys the last wins
        items = {str(k): _emit(v) for k, v in obj.items()}
        return "{" + ",".join([json.dumps(k) + ":" + items[k]
                               for k in sorted(items)]) + "}"
    if isinstance(obj, (float, np.floating)):
        return _emit(float(obj))
    if isinstance(obj, (list, tuple)):
        return _emit(list(obj))
    if isinstance(obj, dict):
        return _emit(dict(obj.items()))
    if isinstance(obj, (bool, type(None), str, int)):
        return json.dumps(obj)
    if isinstance(obj, np.bool_):
        return json.dumps(bool(obj))
    if isinstance(obj, np.integer):
        return json.dumps(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return "[" + fmt(obj.real) + "," + fmt(obj.imag) + "]"
    if tp is np.ndarray and obj.dtype.kind in "fc":
        a = np.stack([obj.real, obj.imag], -1) if obj.dtype.kind == "c" else obj
        a = a.astype(float) + 0.0               # -0.0 -> 0.0, as in fmt
        if np.isfinite(a).all():
            text = "%.17g"
            for n in reversed(a.shape):
                text = "[" + ",".join([text] * n) + "]"
            return text % tuple(a.ravel().tolist())
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, %.17g floats, no whitespace."""
    # the recursion runs through the private name, so a wrapper around
    # this one (the benchmark's tracer) sees one call per document
    return _emit(obj)


def write_json(path, obj):
    text = canonical_dumps(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def complex_matrix_to_json(m):
    """Nested lists with innermost [re, im] pairs; works for stacks too."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def complex_matrix_from_json(obj, what="matrix"):
    """Inverse of :func:`complex_matrix_to_json`.  Entries must be JSON
    numbers: booleans and strings, which numpy would convert, are not."""
    entries = np.array(obj, dtype=object)
    others = [k for k in set(map(type, entries.flat))
              if issubclass(k, bool) or not issubclass(k, (int, float))]
    if others:
        raise InputError(f"{what}: entries must be [re, im] number pairs, got "
                         f"{', '.join(sorted(k.__name__ for k in others))}")
    try:
        arr = entries.astype(float)
    except OverflowError:                       # an integer past the float range
        raise InputError(f"{what}: entries must be finite") from None
    if arr.ndim < 3 or arr.shape[-1] != 2:
        raise InputError(f"{what}: expected a nested list of [re, im] pairs")
    with np.errstate(invalid="ignore"):    # 1j * inf; callers reject non-finite
        return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------------------
# provenance

def sha256_of(obj):
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def spectrum_hash(spectrum):
    return sha256_of({
        "levels": spectrum.levels,
        "eps_deg": spectrum.eps_deg,
        "labels": list(spectrum.labels),
    })


def coupling_hash(couplings):
    return sha256_of({
        "matrices": couplings.matrices,
        "labels": list(couplings.labels),
        "adjoint_map": list(couplings.adjoint_map),
    })


def bath_id(bath_spec):
    payload = {"kind": bath_spec.kind, "n_channels": bath_spec.n_channels,
               "params": bath_spec.params}
    if bath_spec.beta is not None:
        payload["beta"] = bath_spec.beta
    return bath_spec.kind + ":" + sha256_of(payload)[:16]
