import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfn.errors import GridMismatchError, ParameterError
from sqfn.grid import (Grid, GridFunction, Weight, from_csv, lp_norm, to_csv,
                       weighted_lp_norm, weighted_superlevel_measure)


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(3, 64, 1.0)
    with pytest.raises(ParameterError):
        Grid(1, 60, 1.0)  # not a power of two
    with pytest.raises(ParameterError):
        Grid(1, 64, -1.0)


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
    h = GridFunction(Grid(1, 128, 1.0), np.ones(128))
    with pytest.raises(GridMismatchError):
        _ = f + h


def test_weight_rejects_negative():
    g = Grid(1, 64, 1.0)
    vals = np.ones(64)
    vals[3] = -0.5
    with pytest.raises(ParameterError):
        Weight(GridFunction(g, vals))


def test_csv_roundtrip():
    rng = np.random.default_rng(1)
    for g in (Grid(1, 64, 1.5), Grid(2, 16, 0.7)):
        f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        back = from_csv(to_csv(f))
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)


@pytest.mark.parametrize("g", [Grid(1, 8, 1.0), Grid(2, 8, 0.7)])
def test_from_csv_rejects_bad_index_columns(g):
    """Edited to_csv text: an index outside [0, N), a row of the wrong
    width, and a missing or duplicated grid point are ParameterErrors."""
    f = GridFunction(g, np.arange(1.0, g.size + 1.0).reshape(g.shape))
    lines = to_csv(f).splitlines()
    head, rows = lines[:2], lines[2:]
    first_rest = rows[0].split(",", 1)[1]
    last_values = ",".join(rows[-1].split(",")[g.dim:])
    first_index = ",".join(rows[0].split(",")[:g.dim])
    cases = [
        ("outside", [f"{g.points_per_axis},{first_rest}"] + rows[1:]),
        ("outside", [f"-1,{first_rest}"] + rows[1:]),
        ("columns", rows[:-1] + [rows[-1] + ",0.0"]),
        ("exactly once", rows[:-1]),
        ("exactly once", rows[:-1] + [f"{first_index},{last_values}"]),
    ]
    for match, body in cases:
        with pytest.raises(ParameterError, match=match):
            from_csv("\n".join(head + body) + "\n")


_META, _HEAD, *_ROWS = to_csv(GridFunction(Grid(1, 8, 1.0), np.arange(1.0, 9.0))).splitlines()


@pytest.mark.parametrize("match, lines", [
    (r"index '1\.5' is not an int", [_META, _HEAD, "1.5," + _ROWS[0].split(",", 1)[1]] + _ROWS[1:]),
    (r"value 'abc' is not a float", [_META, _HEAD, "0,abc,0.0"] + _ROWS[1:]),
    (r"lacks R=", ["# dim=1 N=8", _HEAD] + _ROWS),
    (r"token 'junk' is not key=value", [_META + " junk", _HEAD] + _ROWS),
    (r"no header row", [_META]),
], ids=["index", "value", "no-R", "token", "no-header"])
def test_from_csv_rejects_malformed_text(match, lines):
    """Edited 1-D N=8 to_csv text: a non-integer index, a non-numeric
    value, a metadata line without R=, a metadata token without = and text
    with no header row are ParameterErrors naming the problem."""
    with pytest.raises(ParameterError, match=match):
        from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("match, meta", [
    (r"key 'dim' is repeated", _META + " dim=2"),
    (r"key 'X' is unknown", _META + " X=3"),
], ids=["repeated", "unknown"])
def test_from_csv_rejects_repeated_or_unknown_metadata(match, meta):
    """Edited 1-D N=8 to_csv text: a metadata key given twice, or one that
    from_csv does not read, is a ParameterError naming the key."""
    with pytest.raises(ParameterError, match=match):
        from_csv("\n".join([meta, _HEAD] + _ROWS) + "\n")


@given(st.integers(3, 6), st.floats(0.5, 4.0))
@settings(max_examples=20, deadline=None)
def test_norm_scaling_property(k, scale):
    """||c f||_p = |c| ||f||_p for any grid size and scalar."""
    g = Grid(1, 2**k, 1.0)
    rng = np.random.default_rng(k)
    f = GridFunction(g, rng.standard_normal(2**k))
    assert lp_norm(scale * f, 2) == pytest.approx(scale * lp_norm(f, 2))


@given(st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_triangle_inequality(seed):
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(64))
    h = GridFunction(g, rng.standard_normal(64))
    assert lp_norm(f + h, 2) <= lp_norm(f, 2) + lp_norm(h, 2) + 1e-12
