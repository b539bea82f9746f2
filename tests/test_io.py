"""Canonical text forms: the numpy %.17g formatter against Python's,
the bulk CSV row writer against per-float fmt, and the JSON emitter
against the two-pass serializer it replaced."""

import enum
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import qmekit.io
from qmekit.core import InputError
from qmekit.io import (CSV_CHUNK_VALUES, G17_BATCH, JSON_G17_MIN, _g17, canonical_dumps,
                       fmt, write_csv_rows, write_json)


def per_float(table, index=False):
    lines = []
    for i, row in enumerate(np.asarray(table, dtype=float)):
        cells = [fmt(x) for x in row]
        lines.append(",".join(([str(i)] if index else []) + cells) + "\n")
    return "".join(lines)


def written(path, table, index=False):
    """The rows write_csv_rows puts below its header line."""
    header = [f"c{j}" for j in range(np.shape(table)[1])]
    write_csv_rows(path, header, table, index=index)
    head, _, body = path.read_text().partition("\n")
    assert head == ",".join(header)
    return body


@pytest.mark.parametrize("index", [False, True])
def test_bulk_rows_match_per_float_fmt(tmp_path, index):
    table = np.array([[-0.0, 5e-324, 1e22, 0.1],
                      [-1e-310, 2.0 ** 60, -3.25, 1 / 3]])
    text = written(tmp_path / "t.csv", table, index)
    assert text == per_float(table, index)
    assert text.splitlines()[0].split(",")[int(index)] == "0"


def test_bulk_rows_span_chunks(tmp_path):
    rng = np.random.default_rng(0)
    table = rng.normal(size=(CSV_CHUNK_VALUES, 3)) * 10.0 ** rng.integers(
        -300, 300, size=(CSV_CHUNK_VALUES, 3))
    table[::7, 1] = -0.0
    path = tmp_path / "t.csv"
    assert written(path, table, index=True) == per_float(table, index=True)
    assert written(path, table[:1].T) == per_float(table[:1].T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bulk_rows_reject_non_finite(tmp_path, bad):
    table = np.ones((3, 2))
    table[2, 1] = bad
    with pytest.raises(InputError) as per:
        fmt(bad)
    path = tmp_path / "t.csv"
    with pytest.raises(InputError) as bulk:
        written(path, table)
    assert str(bulk.value) == str(per.value)
    assert not path.exists()


CSV_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e22, 0.1,
             1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def csv_tables(draw):
    """Mostly zero, mostly nonzero or mixed tables of values from the
    subnormals to +-max double, with row counts at the digit and chunk
    boundaries of the writer."""
    n_cols, index = draw(st.integers(1, 8)), draw(st.booleans())
    step = CSV_CHUNK_VALUES // (n_cols + index)
    n_rows = draw(st.sampled_from([0, 1, 9, 10, 11, 99, 100, 101, step - 1, step, step + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n_rows, n_cols)
    table = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1074, 1025, shape))
    table *= rng.choice([-1.0, 1.0], shape)
    edge = rng.random(shape) < 0.1
    table[edge] = rng.choice(CSV_EDGES, edge.sum())
    share = draw(st.sampled_from([0.02, 0.5, 0.98, None]))
    # None: every other value is zero, so a chunk of an even width is
    # exactly half nonzero, the density where the writer changes path
    zero = (np.arange(table.size).reshape(shape) % 2 == 1 if share is None
            else rng.random(shape) < share)
    table[zero] = rng.choice([0.0, -0.0], zero.sum())
    return table, index


@settings(max_examples=60, deadline=None)
@given(csv_tables())
def test_sparse_and_dense_rows_match_per_float_fmt(tmp_path_factory, case):
    table, index = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert written(path, table, index) == per_float(table, index)


def test_row_numbers_cross_a_power_of_ten_inside_a_chunk(tmp_path):
    # 4096-row chunks at two columns: rows 9999 and 10000 share a chunk
    table = np.zeros((12289, 2))
    table[9995:10005, 1] = np.arange(10) - 4.5
    text = written(tmp_path / "t.csv", table, index=True)
    assert text == per_float(table, index=True)
    assert "9999,0,-0.5\n10000,0,0.5\n" in text


def g17_texts(values):
    return [row.tobytes().replace(b"\0", b"").decode() for row in _g17(values)]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_g17_matches_percent_g(tmp_path_factory, values):
    assert g17_texts(values) == ["%.17g" % v for v in values.tolist()]
    # as one row and as one column, through either path of the writer
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    for table in (values[None], values[:, None]):
        assert written(path, table, index=True) == per_float(table, index=True)


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-308, 309)])
# n + 2^-j, n of 18 - j digits: 18 significant digits, the last a 5, so
# rounding to 17 is an exact tie (1000 + 2^-14 = 1000.00006103515625)
TIES = np.array([n + 2.0 ** -j for j in range(4, 17)
                 for n in (10 ** (17 - j), 2 * 10 ** (17 - j) - 1, 9 * 10 ** (17 - j) + 1)])


@pytest.mark.parametrize("values", [
    np.concatenate([np.nextafter(POWERS_OF_TEN, 0), POWERS_OF_TEN,
                    np.nextafter(POWERS_OF_TEN, np.inf)]),
    TIES,
    np.concatenate([base + np.arange(-64.0, 65.0) * step
                    for base, step in ((2.0 ** 53, 1), (1e16, 2), (1e17, 16))]),
    np.array([0.5, 1e5, 123000.0, 2.5e-5, 0.0, -0.0, 1e-4, 1e-5, 1e16, 1e17]),
    np.array([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3e-320]),
    np.array([1.7976931348623157e308, -1.7976931348623157e308, 1e280, 1e-280]),
], ids=["powers-of-ten", "ties", "integers", "trailing-zeros", "subnormals", "extremes"])
def test_g17_fixed_vectors(values):
    texts = g17_texts(values)
    assert texts == ["%.17g" % v for v in values.tolist()]
    assert not _g17(values)[:, -1].any()          # the writer's separator byte


def test_g17_spot_values():
    values = np.array([1000.00006103515625, 123000.0, 2.5e-5, 1e16, 1e17, -0.0, 5e-324])
    assert g17_texts(values) == [
        "1000.0000610351562", "123000", "2.5000000000000001e-05", "10000000000000000",
        "1e+17", "-0", "4.9406564584124654e-324"]


def dense_table(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def alternating_chunks(index):
    """Chunks of four columns, dense and sparse in turn."""
    step = CSV_CHUNK_VALUES // (4 + index)
    table = dense_table((4 * step + 7, 4))
    sparse = (np.arange(len(table)) // step % 2 == 1)[:, None] & (np.arange(4) > 0)
    table[sparse] = 0.0
    return table


def single_column():
    table = dense_table((5001, 1))
    table[::3] = -0.0
    return table


@pytest.mark.parametrize("index", [False, True])
@pytest.mark.parametrize("make, batches", [
    # 4096-row chunks of two columns with index: rows 9999 and 10000 share one
    (lambda index: dense_table((12289, 2)), 7),
    # 1365 rows of three columns per batch, so batches split the chunks
    (lambda index: dense_table((5000, 3)), 5),
    (alternating_chunks, 4),
    (lambda index: single_column(), 2),
], ids=["rows-cross-10000", "batch-boundary", "alternating-chunks", "single-column"])
def test_dense_chunks_match_per_float_fmt(tmp_path, monkeypatch, index, make, batches):
    table = make(index)
    calls = []

    def counted(values):
        calls.append(values.size)
        return _g17(values)

    monkeypatch.setattr(qmekit.io, "_g17", counted)
    text = written(tmp_path / "t.csv", table, index)
    assert text == per_float(table, index)
    assert len(calls) >= batches and max(calls) <= G17_BATCH
    assert (sum(calls) < table.size) == (make is alternating_chunks)
    if index and len(table) > 10000:
        assert "\n9999," in text and "\n10000," in text


@pytest.mark.parametrize("rows", [1001, 10010])
def test_dense_rows_hold_one_batch_in_memory(tmp_path, rows):
    table = dense_table((rows, 75))
    path = tmp_path / "t.csv"
    header = [f"c{j}" for j in range(75)]
    write_csv_rows(path, header, table)          # builds the formatter's tables
    tracemalloc.start()
    try:
        write_csv_rows(path, header, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 2 ** 20


def test_finiteness_check_holds_one_chunk(tmp_path):
    header = [f"c{j}" for j in range(75)]
    peaks = []
    for rows in (1001, 10010):
        table = dense_table((rows, 75))
        write_csv_rows(tmp_path / "t.csv", header, table)
        tracemalloc.start()
        try:
            write_csv_rows(tmp_path / "t.csv", header, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_non_finite_value_in_the_last_chunk_writes_nothing(tmp_path):
    table = np.ones((3 * CSV_CHUNK_VALUES // 4 + 5, 4))
    table[-1, 2] = np.inf
    path = tmp_path / "t.csv"
    with pytest.raises(InputError, match="inf"):
        write_csv_rows(path, ["a", "b", "c", "d"], table)
    assert not path.exists()


@pytest.mark.parametrize("index, rows", [(True, "0,\n1,\n2,\n"), (False, "\n\n\n")])
def test_rows_without_columns(tmp_path, index, rows):
    assert written(tmp_path / "t.csv", np.zeros((3, 0)), index) == rows


@pytest.mark.parametrize("shape", [(3,), (), (2, 2, 2)])
def test_bulk_rows_reject_a_table_that_is_not_2d(tmp_path, shape):
    path = tmp_path / "t.csv"
    with pytest.raises(InputError, match=rf"^CSV table must be 2-d, got shape {re.escape(str(shape))}$"):
        write_csv_rows(path, ["a"], np.ones(shape))
    assert not path.exists()


def test_write_json_leaves_no_file_it_cannot_fill(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(InputError, match="^NaN cannot be serialized$"):
        write_json(path, {"a": 1.0, "b": [2.0, np.nan]})
    assert not path.exists()
    write_json(path, {"a": 1.0, "b": [2.0, -0.0]})
    assert path.read_text() == '{"a":1,"b":[2,0]}\n'


# -- reference: the two-pass serializer (a tree of raw-float markers, then
# a second walk that emits it), kept as it was to pin the output bytes

def reference_fmt(x):
    x = float(x)
    if not np.isfinite(x):
        raise InputError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


class _RawFloat:
    def __init__(self, text):
        self.text = text


def _canonize(obj):
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
            return "inf" if x > 0 else "-inf"
        return _RawFloat(reference_fmt(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_RawFloat(reference_fmt(obj.real)), _RawFloat(reference_fmt(obj.imag))]
    if isinstance(obj, np.ndarray):
        return _canonize(obj.tolist())
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _emit(obj):
    if isinstance(obj, _RawFloat):
        return obj.text
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _emit(v) for k, v in items) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    return json.dumps(obj)


def reference_dumps(obj):
    return _emit(_canonize(obj))


def outcome(dumps, obj):
    try:
        return "text", dumps(obj)
    except InputError as exc:
        return "error", str(exc)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 0.1, 1 / 3, 2.0 ** 60,
               np.inf, -np.inf]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_), st.none(), st.text(max_size=4),
    st.lists(st.integers(0, 0x10FFFF)).map(lambda c: "".join(map(chr, c))),  # any code point
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    # real arrays may hold +-inf, which take the per-float route
    hnp.arrays(float, shapes, elements=floats),
    hnp.arrays(np.float32, shapes, elements={"allow_nan": False}),
    hnp.arrays(st.sampled_from([complex, np.complex64, np.int64, np.bool_]), shapes,
               elements={"allow_nan": False, "allow_infinity": False}),
)
# int and str keys that collide after str(k): the last duplicate wins
keys = st.one_of(st.integers(-2, 2), st.sampled_from(["-1", "0", "1", "a", "b"]))
nests = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(keys, inner, max_size=4),
), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(nests)
def test_emitter_matches_the_two_pass_serializer(obj):
    kind, text = outcome(canonical_dumps, obj)
    assert (kind, text) == outcome(reference_dumps, obj)
    assert kind == "text"


@settings(max_examples=100, deadline=None)
@given(nests, st.sampled_from([float("nan"), np.float64("nan"), np.float32("nan"),
                               complex(np.inf, 0.0), complex(1.0, np.nan),
                               np.array([[1.0, np.nan]]),
                               np.array([0.5j, complex(1.0, -np.inf)])]))
def test_emitter_raises_as_the_two_pass_serializer(obj, bad):
    for doc in ({"z": bad, "a": obj}, [obj, bad], {0: bad, "0": obj}):
        kind, message = outcome(canonical_dumps, doc)
        assert kind == "error"
        assert message == outcome(reference_dumps, doc)[1]


def test_emitter_edge_values():
    transposed = (np.arange(6.0).reshape(2, 3) * (1 - 1j)).T     # not contiguous
    doc = {2: [-0.0, 5e-324, 1e22, np.inf, -np.inf], "2": np.float32(0.1),
           "c": complex(-0.0, 1.0), "e": np.zeros((0, 3)), "s": np.float64(2.5),
           "f": np.zeros((2, 0)), "z": np.array(complex(-0.0, 2.5)), "t": transposed}
    text = canonical_dumps(doc)
    assert text == reference_dumps(doc)
    assert text == ('{"2":0.10000000149011612,"c":[0,1],"e":[],"f":[[],[]],'
                    '"s":2.5,"t":[[[0,0],[3,-3]],[[1,-1],[4,-4]],[[2,-2],[5,-5]]],'
                    '"z":[0,2.5]}')
    assert canonical_dumps([-0.0, 5e-324, 1e22, np.inf, -np.inf]) == \
        '[0,4.9406564584124654e-324,1e+22,"inf","-inf"]'
    with pytest.raises(InputError, match="^NaN cannot be serialized$"):
        canonical_dumps({"a": [1.0, np.nan]})


def test_finite_arrays_are_filled_without_per_float_calls(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(qmekit.io, "fmt", counted)
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(101, 6, 6)) + 1j * rng.normal(size=(101, 6, 6))
    stack[0, 0, 0] = complex(-0.0, 5e-324)
    text = canonical_dumps(stack)
    assert calls == []
    assert text == reference_dumps(stack)


# -- the dense array path: large finite arrays at least half nonzero are
# written from _g17's rows, smaller or sparser ones by the %.17g template

SPECIAL_64 = [5e-324, 1e-300, 1e300, 1.7976931348623157e308,
              -1.7976931348623157e308, 1e22, 0.1, 1 / 3]
SPECIAL_32 = [1e-45, 3.4028234663852886e38, -3.4028234663852886e38, 0.1, 1 / 3]
SHAPES = {383: (383,), 384: (4, 6, 16), 385: (5, 7, 11), 4096: (8, 8, 8, 8),
          4097: (17, 241), 9000: (10, 30, 30)}


# nonzero counts of n stacked values: the most that is still sparse, the
# fewest that is dense (half of an even n), and all of them
NONZERO = {"under-half": lambda n: (n - 1) // 2, "half": lambda n: (n + 1) // 2,
           "all": lambda n: n}


def seeded_array(size, dtype, nonzero, seed=0):
    """An array of ``size`` entries whose n stacked real values (re, im
    pairs for a complex dtype) hold ``NONZERO[nonzero](n)`` nonzeros, the
    special values among them, and a -0.0 among the zeros."""
    rng = np.random.default_rng(seed)
    n = size * (2 if np.dtype(dtype).kind == "c" else 1)
    real = np.dtype(dtype).type(0).real.dtype
    values = np.zeros(n)
    on = rng.permutation(n)[:NONZERO[nonzero](n)]
    values[on] = rng.normal(size=len(on)) * 10.0 ** rng.integers(-12, 12, size=len(on))
    special = SPECIAL_64 if real == np.float64 else SPECIAL_32
    values[on[:len(special)]] = special
    values[rng.permutation(np.setdiff1d(np.arange(n), on))[:1]] = -0.0
    values = values.astype(real)
    if np.dtype(dtype).kind == "c":
        values = values.reshape(-1, 2).view(dtype)[:, 0]
    return values.reshape(SHAPES[size])


def counting_g17(monkeypatch):
    calls = []

    def counted(a):
        calls.append(len(a))
        return _g17(a)

    monkeypatch.setattr(qmekit.io, "_g17", counted)
    return calls


@pytest.mark.parametrize("size", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
@pytest.mark.parametrize("nonzero", list(NONZERO))
def test_bulk_array_path_matches_the_two_pass_serializer(size, dtype, nonzero):
    arr = seeded_array(size, dtype, nonzero)
    for doc in (arr, arr.T, {"a": [arr.T, 1.5]}):          # .T is not contiguous
        assert canonical_dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("dtype, size, nonzero, g17_values", [
    (np.float64, 4097, "all", [G17_BATCH, 1]),               # two batches
    (np.float64, 9000, "half", [G17_BATCH, G17_BATCH, 808]),  # half nonzero is dense
    (np.complex128, 384, "half", [768]),                      # an entry is two values
    (np.float64, JSON_G17_MIN, "all", [JSON_G17_MIN]),
    (np.float64, JSON_G17_MIN - 1, "all", []),
    (np.float64, 4096, "under-half", []),
    (np.complex64, 4097, "under-half", []),
])
def test_only_large_dense_arrays_run_g17(monkeypatch, dtype, size, nonzero, g17_values):
    calls = counting_g17(monkeypatch)
    arr = seeded_array(size, dtype, nonzero, seed=1)
    assert canonical_dumps(arr) == reference_dumps(arr)
    assert calls == g17_values


def test_dense_array_with_inf_takes_the_per_value_route(monkeypatch):
    calls = counting_g17(monkeypatch)
    arr = seeded_array(4096, np.float64, "all")
    arr[1, 2, 3, 4] = -np.inf
    text = canonical_dumps(arr)
    assert text == reference_dumps(arr)
    assert '"-inf"' in text
    assert calls == []


# -- scalars: exact int, str and key types skip json.dumps, and write what
# it writes

class Level(enum.IntEnum):
    GROUND = 0
    EXCITED = 7


class Label(str):
    pass


class Count(int):          # json.dumps writes the int, whatever its repr
    __repr__ = __str__ = lambda self: "Count"


ODD_STRINGS = ['"', "\\", "\n", "\x00", "\x7f", "é", "😀", "\ud800", 'a"b\\c\nd\x00é😀\ud800', ""]
ODD_INTS = [0, -1, 2 ** 63, 10 ** 100, -(10 ** 100)]


@pytest.mark.parametrize("value", ODD_STRINGS + ODD_INTS + [True, False, None, Level.EXCITED,
                                                            Count(3), Label("x\n")])
def test_scalars_are_written_as_json_dumps_writes_them(value):
    assert canonical_dumps(value) == json.dumps(value) == reference_dumps(value)


def test_keys_are_quoted_as_json_dumps_quotes_them():
    doc = {k: i for i, k in enumerate(ODD_STRINGS)}
    text = canonical_dumps(doc)
    assert text == reference_dumps(doc)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_scalars_and_colliding_keys_match_the_two_pass_serializer():
    doc = {0: "int key", "0": ODD_STRINGS, -1: ODD_INTS, "-1": np.bool_(True),
           Level.EXCITED: np.int64(-2 ** 63), "7": Level.GROUND, "é": np.bool_(False),
           Label("k"): Label("v"), "x": [True, None, np.uint64(2 ** 64 - 1)]}
    assert canonical_dumps(doc) == reference_dumps(doc)
