"""Canonical text forms: the bulk CSV row writer against per-float fmt,
and the JSON emitter against the two-pass serializer it replaced."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qmekit.core import InputError
from qmekit.io import CSV_CHUNK_VALUES, canonical_dumps, fmt, write_csv_rows


def per_float(table, index=False):
    lines = []
    for i, row in enumerate(np.asarray(table, dtype=float)):
        cells = [fmt(x) for x in row]
        lines.append(",".join(([str(i)] if index else []) + cells) + "\n")
    return "".join(lines)


def written(table, index=False):
    fh = io.StringIO()
    write_csv_rows(fh, table, index=index)
    return fh.getvalue()


@pytest.mark.parametrize("index", [False, True])
def test_bulk_rows_match_per_float_fmt(index):
    table = np.array([[-0.0, 5e-324, 1e22, 0.1],
                      [-1e-310, 2.0 ** 60, -3.25, 1 / 3]])
    text = written(table, index)
    assert text == per_float(table, index)
    assert text.splitlines()[0].split(",")[int(index)] == "0"


def test_bulk_rows_span_chunks():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(CSV_CHUNK_VALUES, 3)) * 10.0 ** rng.integers(
        -300, 300, size=(CSV_CHUNK_VALUES, 3))
    table[::7, 1] = -0.0
    assert written(table, index=True) == per_float(table, index=True)
    assert written(table[:1].T) == per_float(table[:1].T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bulk_rows_reject_non_finite(bad):
    table = np.ones((3, 2))
    table[2, 1] = bad
    with pytest.raises(InputError) as per:
        fmt(bad)
    with pytest.raises(InputError) as bulk:
        written(table)
    assert str(bulk.value) == str(per.value)


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
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_), st.none(), st.text(max_size=4),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    hnp.arrays(st.sampled_from([float, complex, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
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
                               complex(np.inf, 0.0), complex(1.0, np.nan)]))
def test_emitter_raises_as_the_two_pass_serializer(obj, bad):
    for doc in ({"z": bad, "a": obj}, [obj, bad], {0: bad, "0": obj}):
        kind, message = outcome(canonical_dumps, doc)
        assert kind == "error"
        assert message == outcome(reference_dumps, doc)[1]


def test_emitter_edge_values():
    doc = {2: [-0.0, 5e-324, 1e22, np.inf, -np.inf], "2": np.float32(0.1),
           "c": complex(-0.0, 1.0), "e": np.zeros((0, 3)), "s": np.float64(2.5)}
    text = canonical_dumps(doc)
    assert text == reference_dumps(doc)
    assert text == ('{"2":0.10000000149011612,"c":[0,1],"e":[],'
                    '"s":2.5}')
    assert canonical_dumps([-0.0, 5e-324, 1e22, np.inf, -np.inf]) == \
        '[0,4.9406564584124654e-324,1e+22,"inf","-inf"]'
    with pytest.raises(InputError, match="^NaN cannot be serialized$"):
        canonical_dumps({"a": [1.0, np.nan]})
