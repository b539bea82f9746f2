"""Canonical serialization: fixed-format floats, sorted-key JSON,
provenance hashes.

Reports must be byte-identical across runs with the same inputs, so
every float in a report is written by :func:`fmt`'s rule (17
significant digits, enough to round-trip a double, -0.0 written as 0).
JSON documents go through :func:`canonical_dumps`, one recursive pass:
keys as ``str(k)``, sorted, no whitespace; +-inf as the strings
``"inf"``/``"-inf"``; complex numbers as ``[re, im]``; NaN raises; ints,
strs and keys as ``json.dumps`` writes them, without calling it.  Both
writers share one dense/sparse rule, :func:`_dense` (at least half the
values nonzero), and :func:`_g17`, an exact ``%.17g`` in numpy.  A dense
CSV chunk is a byte grid of its :func:`_g17` rows that also carries the
commas and line ends; runs of sparser chunks are a numpy byte grid in
which zeros, row numbers, commas and line ends are literal text, cut at
the nonzero values and joined with their :func:`_g17` strings, so a zero
costs no formatting.  A finite JSON array is one fill of a nested
template: of ``%s`` cells from :func:`_g17`'s strings if it has at least
``JSON_G17_MIN`` values and is dense, else of ``%.17g`` cells.  Other
arrays go through ``tolist()``.
Both writers check all input before they open the file, so a failed
write leaves nothing on disk.
"""

import functools
import hashlib
import math
from json.encoder import encode_basestring_ascii as _quote   # json.dumps' own

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
    return "%.17g" % (x + 0.0)          # + 0.0: -0.0 is written 0


CSV_CHUNK_VALUES = 12288      # values per chunk of one path, dense or sparse
CSV_SPARSE_BYTES = 393216     # grid bytes of a run of sparse chunks
G17_BATCH = 4096              # values per byte grid of a dense chunk
JSON_G17_MIN = 384            # below, a JSON array is cheaper as one %.17g fill


@functools.cache
def _digits():
    """The ASCII digits of 0000 to 9999, one row of four bytes each."""
    return (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)


@functools.cache
def _g17_tables():
    """The tables of :func:`_g17`, built on its first call."""
    tens = [(10 ** k, 1) if k >= 0 else (1, 10 ** -k) for k in range(-300, 301)]
    hi = [num / den for num, den in tens]              # correctly rounded
    lo = [(num * b - a * den) / (den * b)              # the remainder, rounded
          for (num, den), (a, b) in zip(tens, map(float.as_integer_ratio, hi))]
    q = np.arange(10000)
    quads = np.zeros((10000, 8), np.uint8)             # "d\0d\0d\0d\0"
    quads[:, ::2] = _digits()
    zeros = sum(q % p == 0 for p in (10, 100, 1000, 10000)).astype(np.uint8)  # trailing
    keep = (np.arange(1, 17) < np.arange(18)[:, None]) * np.uint8(255)  # per digit count
    masks = np.stack([keep, 0 * keep], -1).reshape(18, 32).view(np.uint64).T.copy()
    # per exponent: the first grid word ("0.000" lead) and the last (exponent)
    ends = ["\0" + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").ljust(7, "\0")
            + ("" if -4 <= e < 17 else f"e{e:+03d}").ljust(8, "\0")
            for e in range(-300, 301)]
    return (np.array(hi), np.array(lo), quads.view(np.uint64)[:, 0], zeros, masks,
            np.frombuffer("".join(ends).encode(), np.uint64).reshape(-1, 2).T.copy())


def _g17(a):
    """Each value of a finite float64 array as ``'%.17g' % x`` writes it,
    in a row of 48 bytes padded with NULs (byte 47 always NUL).  The
    digits N = round(|x| 10^k), k = 16 - floor(log10 |x|), are p + r for
    10^k = hi + lo: p = |x| hi, an integer, and r = |x| lo plus |x| hi - p
    by Dekker's exact product (Numer. Math. 18, 224, 1971), within 1e-14.
    They fill fixed slots as %g lays them out (sign, "0.000" lead, digits
    with a '.' slot behind each, exponent).  An uncertain rounding, a k one
    off or |x| outside (1e-280, 1e280) takes ``'%.17g'`` itself."""
    ten_hi, ten_lo, quads, zeros, masks, ends = _g17_tables()
    a = np.ravel(a)
    x = np.abs(a)
    ok = (x > 1e-280) & (x < 1e280)
    x[~ok] = 1.0
    e10 = np.floor(np.log10(x)).astype(np.intp)
    hi, lo = ten_hi[316 - e10], ten_lo[316 - e10]  # 10^k at index k + 300
    p = x * hi
    xh, hh = [v * 134217729.0 - (v * 134217729.0 - v) for v in (x, hi)]  # Dekker's split
    r = ((xh * hh - p) + xh * (hi - hh) + (x - xh) * hh) + (x - xh) * (hi - hh) + x * lo
    f = np.floor(r)
    n, r = p.astype(np.int64) + f.astype(np.int64), r - f
    del hi, lo, p, xh, hh, f
    ok &= (np.abs(r - 0.5) > 1e-7) & (n >= 10 ** 16)
    n += r > 0.5
    ok &= n < 10 ** 17
    zero = a == 0                                  # "0" or "-0"
    n[zero], e10[zero], ok[zero] = 0, 0, True
    d0, n = np.divmod(n, 10 ** 16)
    g = np.array([n // 10 ** 12, n // 10 ** 8, n // 10 ** 4, n])  # digits 1-16 by 4
    g[1:] -= g[:-1] * 10 ** 4
    t = zeros.take(g)
    nd = 17 - (t[3] + (g[3] == 0) * (t[2] + (g[2] == 0) * (t[1] + (g[1] == 0) * t[0])))
    dot = np.where((e10 >= -4) & (e10 < 17), e10, 0)   # '.' after this digit
    w = quads.take(g)
    w &= masks.take(np.maximum(nd, dot + 1), axis=1)
    grid = np.vstack([ends[0].take(e10 + 300), w, ends[1].take(e10 + 300)]).T.copy()
    out = grid.view(np.uint8)
    out[:, 0] = np.signbit(a) * ord("-")
    out[:, 6] = d0 + ord("0")
    i = np.flatnonzero((nd > dot + 1) & (dot >= 0))
    out[i, 7 + 2 * dot[i]] = ord(".")
    for i in np.flatnonzero(~ok):
        out[i] = np.frombuffer((b"%.17g" % a[i]).ljust(48, b"\0"), np.uint8)
    return out


def _dense(a):
    """The writers' rule for :func:`_g17`: at least half the values nonzero."""
    return 2 * np.count_nonzero(a) >= a.size > 0


def _g17_cells(a):
    """The values of a finite float64 array as ``'%.17g'`` strings, through
    :func:`_g17` in batches of ``G17_BATCH``."""
    cells = []
    for i in range(0, a.size, G17_BATCH):   # byte 47 of a row is NUL
        rows = _g17(a[i:i + G17_BATCH])
        rows[:, 47] = ord(",")
        cells += rows.tobytes().translate(None, b"\0").decode().split(",")[:-1]
    return cells


def _put_row_numbers(out, start):
    """Write the row numbers start, start + 1, ... into the rows of the
    uint8 view ``out``, right-aligned, in ASCII digits."""
    n, width = out.shape
    for j in range(0, width, 4):              # four digits at a time, from the right
        w, unit = min(4, width - j), 10 ** j
        # rows // unit takes each value for a run of up to `unit` rows
        v = np.arange(start // unit, (start + n - 1) // unit + 1)
        quad = _digits().take(v, axis=0, mode="wrap")
        if unit > 1:
            runs = np.minimum(start + n, (v + 1) * unit) - np.maximum(start, v * unit)
            quad = np.repeat(quad, runs, axis=0)
        # a column at a time: numpy copies a long strided axis faster than
        # many rows of a few bytes
        for c in range(4 - w, 4):
            out[:, width - j - 4 + c] = quad[:, c]


def _sparse_rows(chunk, start, index):
    """CSV text of a chunk, as a byte grid with the zeros, row numbers,
    commas and line ends as literal text and a mark per nonzero value,
    cut at the marks and joined with the values' :func:`_g17` strings.
    Each digit count of the row numbers has its own grid, so every row
    of a grid has the same width."""
    n_cols = chunk.shape[1]
    nz = chunk != 0                           # -0.0 is a zero, written 0
    stop = start + len(chunk)
    cuts = [10 ** k for k in range(1, len(str(stop))) if start < 10 ** k < stop] if index else []
    grids = []
    for a, b in zip([start, *cuts], [*cuts, stop]):
        pre = len(str(a)) + 1 if index else 0
        grid = np.full((b - a, pre + max(2 * n_cols, 1)), ord(","), np.uint8)
        if index:
            _put_row_numbers(grid[:, :pre - 1], a)
        # after the row number, "0" or the value mark \x01 and a comma
        # per cell; "\n" ends the row
        grid[:, pre:pre + 2 * n_cols:2] = ord("0") - 47 * nz[a - start:b - start].view(np.uint8)
        grid[:, -1] = ord("\n")
        grids.append(grid.tobytes())
    parts = b"".join(grids).decode().split("\x01")
    text = [""] * (2 * len(parts) - 1)
    text[::2] = parts
    text[1::2] = _g17_cells(chunk[nz])
    return "".join(text)


def write_csv_rows(path, header, table, index=False):
    """Write a CSV file: the header names, then the rows of a 2-d float
    array, every value as :func:`fmt` writes it, optionally led by the
    row number.  Each chunk of at most ``CSV_CHUNK_VALUES`` values takes
    one of two paths.  A chunk at least half nonzero is a byte grid of
    :func:`_g17` rows with the commas and line ends.  Sparser chunks are
    joined into runs of up to ``CSV_SPARSE_BYTES`` of grid, one grid per
    digit count of the row numbers, in which zeros are literal text and
    only the nonzero values go through :func:`_g17`.  So the text in
    memory stays bounded whatever the table size, and a zero costs no
    per-value formatting.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise InputError(f"CSV table must be 2-d, got shape {table.shape}")
    n_rows, n_cols = table.shape
    step = max(1, CSV_CHUNK_VALUES // max(n_cols + index, 1))
    # a run of sparse chunks: up to CSV_SPARSE_BYTES of grid, two bytes a cell
    run_rows = CSV_SPARSE_BYTES // (max(2 * n_cols, 1) + (len(str(n_rows)) + 1) * index)
    runs = []                                # [start, stop, dense]
    for start in range(0, n_rows, step):     # every chunk is checked before the open
        chunk = table[start:start + step]
        bad = ~np.isfinite(chunk)
        if bad.any():
            fmt(chunk[bad][0])               # raises, naming the value
        dense = _dense(chunk)
        stop = start + len(chunk)
        if runs and not (dense or runs[-1][2]) and stop - runs[-1][0] <= run_rows:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, dense])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start, stop, dense in runs:
            if not dense:
                fh.write(_sparse_rows(table[start:stop], start, index))
                continue
            chunk = table[start:stop]
            pre = len(str(stop - 1)) + 1 if index else 0
            lead = np.full((len(chunk), pre), ord(","), np.uint8)  # row number, \x02 pads
            _put_row_numbers(lead[:, :pre - 1], start)
            for j in range(1, pre - 1):           # the rows below 10^j are a prefix
                lead[:max(0, 10 ** j - start), :pre - 1 - j] = 2
            per = max(1, G17_BATCH // n_cols)
            for i in range(0, len(chunk), per):  # + 0.0: -0.0 is written 0
                grid = _g17(chunk[i:i + per] + 0.0).reshape(-1, 48 * n_cols)
                grid[:, 47::48] = ord(",")
                grid[:, -1] = ord("\n")
                if index:
                    grid = np.hstack([lead[i:i + per], grid])
                fh.write(grid.tobytes().translate(None, b"\0\2").decode())


def _emit(obj):
    """Canonical JSON text of one value.

    Exact types come first, because nearly every value of a report is a
    float, list, dict, int or str; ints and strs are written as
    ``json.dumps`` writes them, subclasses too, and other subclasses and
    numpy scalars are taken to those types by the isinstance chain.
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
        return "{" + ",".join([_quote(k) + ":" + items[k]
                               for k in sorted(items)]) + "}"
    if obj is None or tp is bool:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):                    # and subclasses, such as IntEnum
        return int.__repr__(obj)                # as json.dumps writes an int
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (float, np.floating)):
        return _emit(float(obj))
    if isinstance(obj, (list, tuple)):
        return _emit(list(obj))
    if isinstance(obj, dict):
        return _emit(dict(obj.items()))
    if isinstance(obj, (np.bool_, np.integer)):
        return _emit(obj.item())
    if isinstance(obj, (complex, np.complexfloating)):
        return "[" + fmt(obj.real) + "," + fmt(obj.imag) + "]"
    if tp is np.ndarray and obj.dtype.kind in "fc":
        a = np.stack([obj.real, obj.imag], -1) if obj.dtype.kind == "c" else obj
        a = a.astype(float) + 0.0               # -0.0 -> 0.0, as in fmt
        if np.isfinite(a).all():
            dense = a.size >= JSON_G17_MIN and _dense(a)
            text = "%s" if dense else "%.17g"
            for n in reversed(a.shape):
                text = "[" + ",".join([text] * n) + "]"
            a = a.ravel()
            if not dense:
                return text % tuple(a.tolist())
            return text % tuple(_g17_cells(a))
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
