"""Canonical serialization: fixed-format floats, sorted-key JSON,
provenance hashes.

Reports must be byte-identical across runs with the same inputs, so
every float that reaches disk goes through :func:`fmt` (17 significant
digits, enough to round-trip a double, -0.0 written as 0).  JSON
documents go through :func:`canonical_dumps`, one recursive pass that
writes the text directly: keys as ``str(k)``, sorted, no whitespace;
+-inf as the strings ``"inf"``/``"-inf"``; complex numbers as
``[re, im]``; arrays through ``tolist()``; NaN raises.  CSV tables go
through :func:`write_csv_rows`, which applies fmt's rules to a whole
array at once.
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


def write_csv_rows(fh, table, index=False):
    """Write the rows of a 2-d float array as CSV lines, every value as
    :func:`fmt` writes it, optionally led by the row number.

    Rows go out in chunks of at most ``CSV_CHUNK_VALUES`` values, so the
    text in memory stays bounded whatever the table size.
    """
    table = np.asarray(table, dtype=float)
    finite = np.isfinite(table)
    if not finite.all():
        fmt(table[~finite][0])               # raises, naming the value
    n_rows, n_cols = table.shape
    line = ("%d," if index else "") + ",".join(["%.17g"] * n_cols) + "\n"
    step = max(1, CSV_CHUNK_VALUES // (n_cols + index))
    for start in range(0, n_rows, step):
        chunk = table[start:start + step] + 0.0          # -0.0 -> 0.0
        if index:
            chunk = np.column_stack([np.arange(start, start + len(chunk)), chunk])
        fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


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
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, %.17g floats, no whitespace."""
    # the recursion runs through the private name, so a wrapper around
    # this one (the benchmark's tracer) sees one call per document
    return _emit(obj)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(obj))
        fh.write("\n")


def complex_matrix_to_json(m):
    """Nested lists with innermost [re, im] pairs; works for stacks too."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def complex_matrix_from_json(obj, what="matrix"):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what}: entries must be [re, im] number pairs") from None
    if arr.ndim < 3 or arr.shape[-1] != 2:
        raise InputError(f"{what}: expected a nested list of [re, im] pairs")
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
        "matrices": [complex_matrix_to_json(m) for m in couplings.matrices],
        "labels": list(couplings.labels),
        "adjoint_map": list(couplings.adjoint_map),
    })


def bath_id(bath_spec):
    payload = {"kind": bath_spec.kind, "n_channels": bath_spec.n_channels,
               "params": bath_spec.params}
    if bath_spec.beta is not None:
        payload["beta"] = bath_spec.beta
    return bath_spec.kind + ":" + sha256_of(payload)[:16]
