import re

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from sqfn.decomp import cz_decomposition, whitney
from sqfn.errors import GridMismatchError, ParameterError
from sqfn.grid import Grid, GridFunction
from sqfn.weights import maximal


def _random_mask_1d(n, rng):
    """Union of a few random open intervals, never the whole line."""
    mask = np.zeros(n, dtype=bool)
    for _ in range(rng.integers(1, 4)):
        a = int(rng.integers(0, n - 2))
        b = int(rng.integers(a + 1, min(a + n // 3, n)))
        mask[a:b] = True
    mask[int(rng.integers(0, n))] = False
    return mask


def test_whitney_exact_cover_random_masks_1d():
    g = Grid(1, 128, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        mask = _random_mask_1d(128, rng)
        if not mask.any():
            continue
        cover = whitney(g, mask)
        assert cover.covers_exactly()


def test_whitney_distance_ratios_1d():
    """diam(Q) <= dist(Q, F) <= 4 diam(Q) for accepted cubes above the
    single-cell floor; floor cubes only satisfy the upper bound."""
    g = Grid(1, 256, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        mask = _random_mask_1d(256, rng)
        if not mask.any():
            continue
        cover = whitney(g, mask)
        ratios = cover.distance_ratios()
        assert np.all(ratios <= 4.0 + 1e-12)
        above_floor = np.array([q.side_cells > 1 for q in cover.cubes])
        if above_floor.any():
            assert np.all(ratios[above_floor] >= 1.0 - 1e-12)


def test_whitney_empty_and_full():
    g = Grid(1, 64, 1.0)
    empty = whitney(g, np.zeros(64, dtype=bool))
    assert empty.cubes == ()
    with pytest.raises(ParameterError):
        whitney(g, np.ones(64, dtype=bool))


def test_whitney_2d_exact_cover():
    g = Grid(2, 32, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        mask = np.zeros((32, 32), dtype=bool)
        for _ in range(3):
            i, j = rng.integers(0, 24, size=2)
            di, dj = rng.integers(2, 8, size=2)
            mask[i : i + di, j : j + dj] = True
        mask[0, 0] = False
        cover = whitney(g, mask)
        assert cover.covers_exactly()
        assert np.all(cover.distance_ratios() <= 4.0 + 1e-12)


def _diagonal_mask(n):
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n // 4, 3 * n // 4):
        mask[i, i] = True
    return mask


def test_whitney_2d_single_cell_floor():
    """A thin diagonal set forces one-cell cubes whose lower distance
    ratio dips below 1 (reported, not hidden)."""
    g = Grid(2, 16, 1.0)
    mask = _diagonal_mask(16)
    cover = whitney(g, mask)
    assert cover.covers_exactly()
    ratios = cover.distance_ratios()
    assert np.min(ratios) < 1.0
    assert np.all(ratios <= 4.0 + 1e-12)


def _recursive_whitney(grid, mask):
    """Oracle: the cubes of recursive dyadic subdivision, as (start, side).

    A cube is accepted when it lies in the open set and its distance to
    F is at least its diameter, or it is one cell; otherwise it splits.
    """
    edt = distance_transform_edt(mask, sampling=grid.spacing)
    found = set()

    def visit(start, m):
        sl = tuple(slice(s, s + m) for s in start)
        if not mask[sl].any():
            return
        diam = m * grid.spacing * np.sqrt(grid.dim)
        if mask[sl].all() and (m == 1 or np.min(edt[sl]) >= diam):
            found.add((start, m))
            return
        for corner in np.ndindex(*(2,) * grid.dim):
            visit(tuple(s + c * (m // 2) for s, c in zip(start, corner)), m // 2)

    visit((0,) * grid.dim, grid.points_per_axis)
    return found


def _oracle_masks(dim, n, rng):
    """Unions of rectangles, ~70% speckle and, in 2-D, the diagonal."""
    masks = []
    for _ in range(6):
        mask = np.zeros((n,) * dim, dtype=bool)
        for _ in range(rng.integers(1, 5)):
            lo = rng.integers(0, n, size=dim)
            width = rng.integers(1, n // 2, size=dim)
            mask[tuple(slice(a, a + w) for a, w in zip(lo, width))] = True
        masks.append(mask)
    for _ in range(4):
        masks.append(rng.random((n,) * dim) < 0.7)
    if dim == 2:
        masks.append(_diagonal_mask(n))
    for mask in masks:
        mask.flat[int(rng.integers(0, mask.size))] = False
    return masks


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 256), (2, 16), (2, 32), (2, 64)])
def test_whitney_sweep_equals_recursive_subdivision(dim, n):
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(100 * dim + n)
    for mask in _oracle_masks(dim, n, rng):
        cover = whitney(g, mask)
        got = [(q.start, q.side_cells) for q in cover.cubes]
        assert len(got) == len(set(got))
        assert set(got) == _recursive_whitney(g, mask)
        assert all(type(s) is int for q in cover.cubes for s in q.start)


@pytest.mark.parametrize("shape", [(32,), (8, 8)])
def test_whitney_refuses_a_mask_of_another_shape(shape):
    with pytest.raises(GridMismatchError, match=rf"{re.escape(str(shape))}.*\(64,\)"):
        whitney(Grid(1, 64, 1.0), np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_cz_parts_match_the_full_grid_construction(dim, n):
    """good and the reconstruction error equal, bit for bit, the
    construction with one full-grid array per bad part."""
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(6)
    vals = np.abs(rng.standard_normal(g.shape))
    vals[(slice(n // 4, n // 4 + 6),) * dim] += 8.0
    f = GridFunction(g, vals)
    lam = 2.0 * float(np.mean(vals))
    dec = cz_decomposition(f, lam)
    assert len(dec.bad) > 0

    good = np.array(f.values)
    pieces = []
    for q in whitney(g, maximal(f).values.real > lam).cubes:
        sl = q.slices()
        avg = np.mean(f.values[sl])
        piece = np.zeros(g.shape, dtype=np.complex128)
        piece[sl] = f.values[sl] - avg
        good[sl] = avg
        pieces.append(piece)
    total = good.copy()
    for piece in pieces:
        total = total + piece
    assert np.array_equal(dec.good.values, good)
    assert dec.reconstruction_error(f) == float(np.max(np.abs(total - f.values)))
    for q, part in dec.bad:
        assert part.shape == (q.side_cells,) * dim


def test_cz_reconstruction_and_means():
    g = Grid(1, 128, 1.0)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(128)
    vals[30:40] += 8.0  # force a nontrivial bad set
    f = GridFunction(g, vals)
    lam = 2.0 * float(np.mean(np.abs(vals)))
    dec = cz_decomposition(f, lam)
    assert len(dec.bad) > 0
    assert dec.reconstruction_error(f) <= 1e-12
    assert np.all(dec.bad_means() <= 1e-12)


def test_cz_good_part_bounded():
    g = Grid(1, 128, 1.0)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(128)
    vals[10:14] += 12.0
    f = GridFunction(g, vals)
    lam = 2.0 * float(np.mean(np.abs(vals)))
    dec = cz_decomposition(f, lam)
    # outside the bad set |f| <= Mf <= lam, and cube averages of f are
    # controlled by averages of Mf over slightly larger cubes
    assert dec.good_bound_constant() <= 8.0


def test_cz_level_guards():
    g = Grid(1, 64, 1.0)
    f = GridFunction(g, np.ones(64))
    with pytest.raises(ParameterError):
        cz_decomposition(f, -1.0)
    with pytest.raises(ParameterError):
        cz_decomposition(f, 0.5)  # below the global average: bad set is all


def test_cz_trivial_when_level_large():
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(64))
    dec = cz_decomposition(f, 100.0)
    assert dec.bad == ()
    assert dec.reconstruction_error(f) == 0.0
