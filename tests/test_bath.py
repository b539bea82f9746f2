"""Bath spectra: detailed balance, transforms, tabulated round trips."""

import csv
import re

import numpy as np
import pytest

from qmekit.bath import (
    custom_spectrum,
    flat_spectrum,
    gaussian_spectrum,
    kms_residual,
    lorentzian_spectrum,
    read_tabulated_csv,
    tabulated_spectrum,
    thermal_ohmic_spectrum,
    time_correlation,
    write_tabulated_csv,
)
from qmekit.core import InputError
from qmekit.io import fmt


def test_flat_spectrum_constant_and_balanced():
    b = flat_spectrum(2, 0.7)
    w = np.array([-3.0, 0.0, 5.0])
    g = b.gamma(w)
    assert g.shape == (3, 2, 2)
    assert np.all(g[:, 0, 0] == 0.7)
    assert np.all(g[:, 0, 1] == 0.0)
    # infinite-temperature convention: beta = 0, residual exactly zero
    assert kms_residual(b, np.linspace(-4, 4, 33)) == 0.0
    with pytest.raises(InputError):
        flat_spectrum(1, -0.1)


def test_thermal_ohmic_limits_and_kms():
    c, lam, beta = 0.4, 5.0, 1.3
    b = thermal_ohmic_spectrum(c, lam, beta)
    # w -> 0 limit is 2 c / beta
    assert abs(b.gamma(0.0)[0, 0] - 2 * c / beta) < 1e-15
    assert kms_residual(b, np.linspace(-20, 20, 201)) < 1e-14
    # vacuum: absorption side vanishes
    bv = thermal_ohmic_spectrum(c, lam, np.inf)
    assert np.all(bv.gamma(np.array([-0.5, -2.0]))[..., 0, 0] == 0.0)
    assert bv.gamma(0.0)[0, 0] == 0.0
    with pytest.raises(InputError):
        thermal_ohmic_spectrum(c, lam, 0.0)
    with pytest.raises(InputError):
        thermal_ohmic_spectrum(c, -1.0, beta)


def test_lorentzian_gaussian_shapes():
    bl = lorentzian_spectrum(0.5, 2.0)
    assert abs(bl.gamma(0.0)[0, 0] - 0.5) < 1e-15
    assert abs(bl.gamma(2.0)[0, 0] - 0.25) < 1e-15
    bg = gaussian_spectrum(0.5, 2.0)
    assert abs(bg.gamma(2.0)[0, 0] - 0.5 * np.exp(-0.5)) < 1e-15
    # no declared temperature: detailed balance is undefined
    with pytest.raises(InputError, match="no temperature"):
        kms_residual(bl, [0.0, 1.0])
    for b in (bl, bg):
        assert (b.gamma(np.linspace(-10, 10, 41)).real >= 0.0).all()


def test_time_correlation_round_trip_gaussian():
    b = gaussian_spectrum(0.5, 1.0)
    tau = np.arange(0, 12.0 + 0.025, 0.05)
    corr = time_correlation(b, tau, tau_memory=12.0)
    m = tau.size
    domega = 2 * np.pi / (2 * m * corr.dtau)
    probe = domega * np.array([0, 3, 17, 40])
    back = corr.fourier_transform(probe)
    want = b.gamma(probe)
    assert np.max(np.abs(back - want)) < 1e-12


def test_time_correlation_round_trip_lorentzian():
    b = lorentzian_spectrum(0.3, 2.0)
    tau = np.arange(0, 40.0 + 0.01, 0.02)
    corr = time_correlation(b, tau, tau_memory=40.0)
    m = tau.size
    domega = 2 * np.pi / (2 * m * corr.dtau)
    probe = domega * np.array([0, 5, 51])
    back = corr.fourier_transform(probe)
    assert np.max(np.abs(back - b.gamma(probe))) < 1e-12


def test_flat_correlation_is_delta_spike():
    rate, dtau = 0.7, 0.05
    b = flat_spectrum(1, rate)
    tau = np.arange(0, 2.0 + dtau / 2, dtau)
    corr = time_correlation(b, tau, tau_memory=2.0)
    spike = rate / dtau
    assert abs(corr.values[0, 0, 0] - spike) < 1e-10 * spike
    assert np.max(np.abs(corr.values[1:])) < 1e-10 * spike
    # interpolation: linear between nodes, zero beyond the grid
    mid = corr.at(1.5 * dtau)
    assert abs(mid[0, 0] - (corr.values[1, 0, 0] + corr.values[2, 0, 0]) / 2) < 1e-12 * spike
    assert np.all(corr.at(5.0) == 0.0)


def test_time_correlation_grid_rejections():
    b = gaussian_spectrum(0.5, 10.0)
    # band edge pi/dtau = 6.3 sits below the 8*width support
    with pytest.raises(InputError, match="band edge"):
        time_correlation(b, np.arange(0, 10.0, 0.5), tau_memory=5.0)
    fine = np.arange(0, 1.0 + 0.005, 0.01)
    with pytest.raises(InputError, match="tau_memory"):
        time_correlation(b, fine, tau_memory=5.0)
    with pytest.raises(InputError):
        time_correlation(b, np.array([0.0, 0.01, 0.03]), tau_memory=0.03)


def test_tabulated_round_trip(tmp_path):
    b = gaussian_spectrum(0.4, 1.5, n_channels=2)
    grid = np.linspace(-8, 8, 161)
    samples = b.gamma(grid)
    path = tmp_path / "spec.csv"
    write_tabulated_csv(path, grid, samples, labels=("u", "v"))
    labels, omegas, gammas, rows = read_tabulated_csv(path)
    assert labels == ["u", "v"]
    assert rows == list(range(2, 163))
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(omegas, grid)
    assert np.array_equal(gammas, samples)
    tab = tabulated_spectrum(path)
    assert np.max(np.abs(tab.gamma(grid) - samples)) == 0.0
    # outside the tabulated support the spectrum is zero
    assert np.all(tab.gamma(np.array([-9.0, 9.0])) == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tabulated_table_matches_the_per_channel_loops(tmp_path, n):
    # the per-row writer and per-entry interpolation the column table
    # replaced, as byte and bit references; -0.0 entries included.  Rows
    # are written by fmt's rule with LF ends; the CRLF file csv.writer
    # gives (-0.0 as -0) still reads back to the same values
    rng = np.random.default_rng(n)
    labels = [f"c{a}" for a in range(n)]
    grid = np.linspace(-4.0, 4.0, 9)
    g = rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
    g[2, 0, 0], g[3, -1, -1] = complex(-0.0, 1.0), complex(0.5, -0.0)
    path = tmp_path / "spec.csv"
    write_tabulated_csv(path, grid, g, labels)
    for terminator, cell in (("\n", fmt), ("\r\n", lambda x: f"{x:.17g}")):
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator=terminator)
            w.writerow(["omega"] + [f"{p}[{a},{b}]" for a in labels for b in labels
                                    for p in ("re", "im")])
            for i, om in enumerate(grid):
                w.writerow([cell(om)] + [cell(x) for a in range(n) for b in range(n)
                                         for x in (g[i, a, b].real, g[i, a, b].imag)])
        if terminator == "\n":
            assert path.read_bytes() == ref.read_bytes()
        else:
            assert b"\r\n" in ref.read_bytes() and b"-0," in ref.read_bytes()
            old_labels, old_omegas, old_gammas, _ = read_tabulated_csv(ref)
            assert old_labels == labels
            assert np.array_equal(old_omegas, grid) and np.array_equal(old_gammas, g)
    _, omegas, gammas, _ = read_tabulated_csv(path)
    w = np.array([[-5.0, -4.0, -0.3], [0.0, 1.7, 4.5]])
    want = np.zeros(w.shape + (n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            want[..., a, b] = (
                np.interp(w, omegas, gammas[:, a, b].real, left=0.0, right=0.0)
                + 1j * np.interp(w, omegas, gammas[:, a, b].imag, left=0.0, right=0.0))
    got = tabulated_spectrum(path).gamma(w)
    assert got.tobytes() == want.tobytes()
    assert tabulated_spectrum(path).gamma(1.7).tobytes() == want[1, 1].tobytes()


def test_tabulated_header_is_quoted_as_csv_writer_quotes_it(tmp_path):
    labels = ['a"b', "c d"]
    path = tmp_path / "spec.csv"
    write_tabulated_csv(path, [-1.0, 1.0], np.ones((2, 2, 2)), labels)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["omega"] + [f"{p}[{a},{b}]" for a in labels for b in labels for p in ("re", "im")])
    assert path.read_text().splitlines()[0] == ref.read_text().rstrip("\n")
    assert read_tabulated_csv(path)[0] == labels


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["omega", "gamma"])
def test_tabulated_writer_rejects_non_finite_samples(tmp_path, bad, where):
    grid = np.linspace(-1.0, 1.0, 3)
    g = np.full((3, 2, 2), 0.5 + 0.25j)
    if where == "omega":
        grid[1] = bad
    else:
        g[1, 0, 1] = complex(0.5, bad)
    path = tmp_path / "spec.csv"
    with pytest.raises(InputError, match=rf"^non-finite value {bad!r} cannot be serialized$"):
        write_tabulated_csv(path, grid, g, labels=("u", "v"))
    assert not path.exists()


def test_tabulated_malformed_rows_are_named(tmp_path):
    good = tmp_path / "good.csv"
    b = gaussian_spectrum(0.4, 1.5)
    grid = np.linspace(-2, 2, 5)
    write_tabulated_csv(good, grid, b.gamma(grid), labels=("x",))

    short = tmp_path / "short.csv"
    lines = good.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    short.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="row 3 has 2 fields"):
        read_tabulated_csv(short)

    bad = tmp_path / "badfloat.csv"
    lines = good.read_text().splitlines()
    lines[4] = "oops," + lines[4].split(",", 1)[1]
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="row 5"):
        read_tabulated_csv(bad)

    order = tmp_path / "order.csv"
    lines = good.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    order.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="strictly increasing"):
        read_tabulated_csv(order)

    blank = tmp_path / "blank.csv"
    blank.write_text('omega,"re[S,S]","im[S,S]"\n\n-1,0.1,0\n1,0.2,0\n0.5,0.1,0\n')
    with pytest.raises(InputError, match=r"strictly increasing \(row 5\)$"):
        read_tabulated_csv(blank)

    noheader = tmp_path / "noheader.csv"
    noheader.write_text("frequency,value\n0,1\n1,2\n")
    with pytest.raises(InputError, match="omega"):
        read_tabulated_csv(noheader)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_tabulated_non_finite_values_are_named(tmp_path, value):
    path = tmp_path / "spec.csv"
    path.write_text(f'omega,"re[S,S]","im[S,S]"\n-5,0.1,0\n0,0.2,{value}\n5,0.1,0\n')
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: row 3: values must be finite$"):
        read_tabulated_csv(path)


def test_tabulated_kms_residual_detects_violation(tmp_path):
    # symmetric table declared at beta=1 violates detailed balance by
    # gamma(-w) - e^{-w} gamma(w) = (1 - e^{-w}) at w=1
    path = tmp_path / "sym.csv"
    grid = np.linspace(-3, 3, 61)
    samples = np.ones((61, 1, 1), dtype=complex)
    write_tabulated_csv(path, grid, samples, labels=("x",))
    tab = tabulated_spectrum(path, beta=1.0)
    res = kms_residual(tab, [1.0])
    assert abs(res - (1.0 - np.exp(-1.0))) < 1e-14


def test_custom_spectrum_shape_check():
    b = custom_spectrum(2, lambda w: np.zeros(np.shape(w) + (3, 3)))
    with pytest.raises(InputError, match="shape"):
        b.gamma(0.0)
