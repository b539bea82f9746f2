"""Canonical text forms: the bulk CSV row writer against per-float fmt."""

import io

import numpy as np
import pytest

from qmekit.core import InputError
from qmekit.io import CSV_CHUNK_VALUES, fmt, write_csv_rows


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
