import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfn.errors import GridMismatchError, ParameterError
from sqfn.grid import (Grid, GridFunction, Weight, lp_norm, to_csv,
                       weighted_lp_norm, weighted_superlevel_measure)


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(3, 64, 1.0)
    with pytest.raises(ParameterError):
        Grid(1, 60, 1.0)  # not a power of two
    with pytest.raises(ParameterError):
        Grid(1, 64, -1.0)
    # R^2 overflows or underflows, and at R = 1e-153 in 2-D h^2 is subnormal
    for dim, r in ((1, 1e200), (2, 1e200), (1, 1e-200), (2, 1e-200), (2, 1e-153)):
        with pytest.raises(ParameterError, match="positive normal floats"):
            Grid(dim, 64, r)
    Grid(1, 64, 1e-153)


@pytest.mark.parametrize("dim, n", [
    (1, 64.0), (1.0, 64), (2.0, 32), (True, 64), (1, True), (1, "64"), (np.float64(1), 64),
], ids=["float-n", "float-dim", "float-dim-2", "bool-dim", "bool-n", "str-n", "numpy-float-dim"])
def test_grid_refuses_non_integer_dim_and_size(dim, n):
    with pytest.raises(ParameterError):
        Grid(dim, n, 1.0)


def test_grid_accepts_numpy_integers():
    g = Grid(np.int64(2), np.int32(16), 1.0)
    assert g == Grid(2, 16, 1.0)
    assert g.coords()[0].shape == (16, 16)


def test_grid_geometry():
    g = Grid(1, 64, 2.0)
    assert g.spacing == pytest.approx(4.0 / 64)
    assert g.shape == (64,)
    assert g.cell_volume == pytest.approx(g.spacing)
    x = g.axis_coords()
    assert x[0] == pytest.approx(-2.0)
    assert 0.0 in x

    g2 = Grid(2, 32, 1.0)
    assert g2.shape == (32, 32)
    assert g2.cell_volume == pytest.approx(g2.spacing**2)


def test_periodic_delta_range():
    g = Grid(1, 64, 1.0)
    d = g.periodic_delta(np.array([1.9, -1.9, 0.5]))
    assert np.all((0 <= d) & (d <= g.half_width))
    assert d[0] == pytest.approx(0.1)
    assert d[1] == pytest.approx(0.1)
    assert d[2] == pytest.approx(0.5)


def test_lp_norm_constant():
    g = Grid(1, 128, 1.0)
    f = GridFunction(g, np.ones(128))
    # total length is 2R = 2, so ||1||_2 = sqrt(2)
    assert lp_norm(f, 2) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ParameterError):
        lp_norm(f, np.inf)


def test_weighted_norm_reduces_to_plain():
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.standard_normal(64))
    w = Weight.ones(g)
    assert weighted_lp_norm(f, w, 3) == pytest.approx(lp_norm(f, 3))


def test_superlevel_measure():
    g = Grid(1, 64, 1.0)
    vals = np.zeros(64)
    vals[:16] = 2.0
    f = GridFunction(g, vals)
    w = Weight.ones(g)
    assert weighted_superlevel_measure(f, w, 1.0) == pytest.approx(16 * g.spacing)
    assert weighted_superlevel_measure(f, w, 3.0) == 0.0


def test_grid_mismatch_raises():
    f = GridFunction(Grid(1, 64, 1.0), np.ones(64))
    w = Weight.ones(Grid(1, 128, 1.0))
    with pytest.raises(GridMismatchError):
        weighted_lp_norm(f, w, 2)


def test_weight_rejects_negative():
    g = Grid(1, 64, 1.0)
    vals = np.ones(64)
    vals[3] = -0.5
    with pytest.raises(ParameterError):
        Weight(GridFunction(g, vals))


def test_to_csv_format():
    """to_csv writes the "# dim= N= R=" line, the header, then one row per
    grid point in np.ndindex order whose re and im read back bit for bit."""
    rng = np.random.default_rng(1)
    for g in (Grid(1, 64, 1.5), Grid(2, 16, 0.7)):
        f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        meta, rest = to_csv(f).split("\n", 1)
        assert meta == f"# dim={g.dim} N={g.points_per_axis} R={g.half_width!r}"
        header, *rows = csv.reader(io.StringIO(rest))
        assert header == ["i", "j"][: g.dim] + ["re", "im"]
        assert len(rows) == g.size
        for row, idx in zip(rows, np.ndindex(g.shape)):
            assert tuple(int(i) for i in row[: g.dim]) == idx
            assert float(row[-2]) == f.values[idx].real
            assert float(row[-1]) == f.values[idx].imag


@given(st.integers(3, 6), st.floats(0.5, 4.0))
@settings(max_examples=20, deadline=None)
def test_norm_scaling_property(k, scale):
    """||c f||_p = |c| ||f||_p for any grid size and scalar."""
    g = Grid(1, 2**k, 1.0)
    rng = np.random.default_rng(k)
    f = GridFunction(g, rng.standard_normal(2**k))
    assert lp_norm(GridFunction(g, scale * f.values), 2) == pytest.approx(scale * lp_norm(f, 2))


@given(st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_triangle_inequality(seed):
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(64))
    h = GridFunction(g, rng.standard_normal(64))
    total = GridFunction(g, f.values + h.values)
    assert lp_norm(total, 2) <= lp_norm(f, 2) + lp_norm(h, 2) + 1e-12
