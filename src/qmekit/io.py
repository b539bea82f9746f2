"""Canonical serialization: fixed-format floats, sorted-key JSON,
provenance hashes.

Reports must be byte-identical across runs with the same inputs, so
every float that reaches disk goes through :func:`fmt` (17 significant
digits, enough to round-trip a double) and every JSON document through
:func:`canonical_dumps`.
"""

import hashlib
import json

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
    if not np.isfinite(x):
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


def _canonize(obj):
    # floats become fixed-format strings wrapped back to numbers via
    # raw emission: simplest robust route is recursive stringification
    if isinstance(obj, dict):
        return {str(k): _canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonize(v) for v in obj]
    if isinstance(obj, (bool, type(None), str, int)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            raise InputError("NaN cannot be serialized")
        if np.isinf(x):
            # JSON has no infinity literal; beta = inf is a valid bath
            # parameter, so encode as a string
            return "inf" if x > 0 else "-inf"
        return _RawFloat(fmt(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_RawFloat(fmt(obj.real)), _RawFloat(fmt(obj.imag))]
    if isinstance(obj, np.ndarray):
        return _canonize(obj.tolist())
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


class _RawFloat:
    """Marker emitting a pre-formatted number literal."""

    def __init__(self, text):
        self.text = text


def _emit(obj):
    if isinstance(obj, _RawFloat):
        return obj.text
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _emit(v) for k, v in items) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    return json.dumps(obj)


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, %.17g floats, no whitespace."""
    return _emit(_canonize(obj))


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
