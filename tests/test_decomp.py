import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt

from sqfn import cli, weights
from sqfn.cli import _Plan, parse_config
from sqfn.decomp import WhitneyCover, _distance_to_complement, cz_decomposition, whitney
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
        above_floor = cover.sides > 1
        if above_floor.any():
            assert np.all(ratios[above_floor] >= 1.0 - 1e-12)


def test_whitney_empty_and_full():
    g = Grid(1, 64, 1.0)
    empty = whitney(g, np.zeros(64, dtype=bool))
    assert empty.starts.shape == (0, 1) and empty.sides.shape == (0,)
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
        assert cover.starts.shape == (len(cover.sides), dim)
        assert cover.starts.dtype.kind == cover.sides.dtype.kind == "i"
        got = [(tuple(start), side) for start, side in zip(cover.starts.tolist(),
                                                           cover.sides.tolist())]
        assert len(got) == len(set(got))
        assert set(got) == _recursive_whitney(g, mask)
        assert got == sorted(got, key=lambda cube: (-cube[1], cube[0]))


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 256), (2, 16), (2, 64)])
@pytest.mark.parametrize("lead", [(10,), (2, 5)], ids=["stack", "stack-of-stacks"])
def test_a_stack_of_masks_is_each_masks_own_cover(dim, n, lead):
    """One sweep over a stack gives each mask's own cubes, in order, under
    its unscaled stack index: starts, sides, distance ratios and exactness.
    An all-open member is refused by its index."""
    g = Grid(dim, n, 1.0)
    masks = _oracle_masks(dim, n, np.random.default_rng(7 * n + dim))[:10]
    stack = np.stack(masks).reshape(lead + g.shape)
    cover = whitney(g, stack)
    assert cover.starts.shape == (len(cover.sides), len(lead) + dim)
    index = np.ravel_multi_index(tuple(cover.starts[:, : len(lead)].T), lead)
    ratios = cover.distance_ratios()
    for k, mask in enumerate(masks):
        own, mine = whitney(g, mask), index == k
        assert np.array_equal(cover.starts[mine, len(lead) :], own.starts)
        assert np.array_equal(cover.sides[mine], own.sides)
        assert np.array_equal(ratios[mine], own.distance_ratios())
        assert own.covers_exactly()
    assert cover.covers_exactly()
    stack.reshape((-1,) + g.shape)[7] = True
    at = ", ".join(str(i) for i in np.unravel_index(7, lead))
    with pytest.raises(ParameterError, match=re.escape(f"(mask {at} of the stack is not)")):
        whitney(g, stack)


@pytest.mark.parametrize("shape", [(32,), (8, 8)])
def test_whitney_refuses_a_mask_of_another_shape(shape):
    with pytest.raises(GridMismatchError, match=rf"{re.escape(str(shape))}.*\(64,\)"):
        whitney(Grid(1, 64, 1.0), np.zeros(shape, dtype=bool))


def _slices(start, side):
    return tuple(slice(s, s + side) for s in start)


@pytest.mark.parametrize("dim, n, kind", [
    pytest.param(1, 128, "real", id="1-128"), pytest.param(2, 32, "real", id="2-32"),
    pytest.param(2, 64, "real", id="2-64"), pytest.param(1, 128, "complex", id="1-128-complex"),
    pytest.param(2, 64, "complex", id="2-64-complex")])
def test_cz_parts_match_the_full_grid_construction(dim, n, kind):
    """good, bad, the reconstruction error and the bad means equal, bit for
    bit, the construction cube by cube with one full-grid array per bad
    part: bad is the sum of those pieces, and each bad mean is
    abs(np.sum(part)) * vol for the cube-shaped part."""
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(6)
    vals = np.abs(rng.standard_normal(g.shape))
    if kind == "complex":
        vals = vals + 1j * rng.standard_normal(g.shape)
    vals[(slice(n // 4, n // 4 + 6),) * dim] += 8.0
    f = GridFunction(g, vals)
    lam = 2.0 * float(np.mean(np.abs(vals)))
    dec = cz_decomposition(f, lam)
    cover = whitney(g, maximal(f).values.real > lam)
    assert len(cover.sides) > 0
    assert np.array_equal(dec.cover.starts, cover.starts)
    assert np.array_equal(dec.cover.sides, cover.sides)

    good = np.array(f.values)
    pieces, means = [], []
    for start, side in zip(cover.starts.tolist(), cover.sides.tolist()):
        sl = _slices(start, side)
        avg = np.mean(f.values[sl])
        part = f.values[sl] - avg
        piece = np.zeros(g.shape, dtype=np.complex128)
        piece[sl] = part
        good[sl] = avg
        pieces.append(piece)
        means.append(abs(np.sum(part)) * g.cell_volume)
    total, bad = good.copy(), np.zeros(g.shape, dtype=np.complex128)
    for piece in pieces:
        total = total + piece
        bad = bad + piece
    assert np.array_equal(dec.good.values, good)
    assert np.array_equal(dec.bad.values, bad)
    assert dec.reconstruction_error(f) == float(np.max(np.abs(total - f.values)))
    assert np.array_equal(dec.bad_means(), np.array(means))


def test_cz_reconstruction_and_means():
    g = Grid(1, 128, 1.0)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(128)
    vals[30:40] += 8.0  # force a nontrivial bad set
    f = GridFunction(g, vals)
    lam = 2.0 * float(np.mean(np.abs(vals)))
    dec = cz_decomposition(f, lam)
    assert len(dec.cover.sides) > 0
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
    assert dec.cover.sides.size == 0
    assert not dec.bad.values.any()
    assert dec.reconstruction_error(f) == 0.0


def _drawn_mask(grid, seed, kind):
    """A mask of one kind: random cells, rectangle unions drawn as the
    whitney_cz check draws them, or (in 2-D) those plus a full row and a
    full column, lines that hold no point of F."""
    rng = np.random.default_rng(seed)
    n, shape = grid.points_per_axis, grid.shape
    if kind == "random":
        mask = rng.random(shape) < rng.random()
    else:
        mask = np.zeros(shape, dtype=bool)
        for _ in range(rng.integers(1, 5)):
            a = rng.integers(0, n, size=grid.dim)
            b = rng.integers(1, n // 2, size=grid.dim)
            mask[tuple(slice(lo, min(lo + w, n)) for lo, w in zip(a, b))] = True
    mask.flat[int(rng.integers(0, mask.size))] = False
    if kind == "lines" and grid.dim == 2:  # the rectangles leave F non-empty
        mask[int(rng.integers(0, n)), :] = True
        mask[:, int(rng.integers(0, n))] = True
    return mask


_EDT_GRIDS = [Grid(1, 128, 1.0), Grid(1, 256, 22.5), Grid(2, 32, 1.0), Grid(2, 64, 1.0),
              Grid(2, 64, 0.7)]


@given(st.sampled_from(_EDT_GRIDS), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "rectangles", "lines"]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_distance_to_complement_equals_scipy_edt(grid, seed, kind):
    """The separable numpy distance has the bits of scipy's exact EDT, with
    h = 1/64, the oscillator's h = 45/256, the 2-D torus steps and a step
    whose squares round."""
    mask = _drawn_mask(grid, seed, kind)
    ours = _distance_to_complement(grid, mask)
    assert np.array_equal(ours, distance_transform_edt(mask, sampling=grid.spacing))


@pytest.mark.parametrize("grid", [Grid(1, 256, 1.0), Grid(2, 32, 1.0), Grid(2, 64, 1.0),
                                  Grid(2, 64, 0.7)])
def test_cover_checks_equal_the_per_cube_loops(grid):
    """distance_ratios, one dyadic side at a time, has the bits of the
    per-cube minimum of scipy's EDT over side * h * sqrt(dim); covers_exactly
    accepts the cover and refuses it with a cube missing or a cube twice."""
    for seed, kind in enumerate(("rectangles", "lines", "random")):
        cover = whitney(grid, _drawn_mask(grid, seed, kind))
        edt = distance_transform_edt(cover.mask, sampling=grid.spacing)
        expected = [float(np.min(edt[_slices(start, side)])) / (side * grid.spacing * np.sqrt(grid.dim))
                    for start, side in zip(cover.starts.tolist(), cover.sides.tolist())]
        assert np.array_equal(cover.distance_ratios(), np.array(expected))
        assert cover.covers_exactly()
        count = len(cover.sides)
        if count > 1:
            for keep in (np.arange(1, count), np.append(np.arange(count), count - 1)):
                broken = WhitneyCover(grid, cover.mask, cover.starts[keep], cover.sides[keep],
                                      cover.distance)
                assert not broken.covers_exactly()


@pytest.fixture(scope="module")
def runner_masks():
    """The stack of masks the whitney_cz check covers at 2-D N=64, seed 7."""
    seen = []

    def recording(grid, mask):
        seen.append((grid, np.array(mask)))
        return whitney(grid, mask)

    cfg = parse_config(None, {"operator.dim": "2", "operator.n": "64", "family.seed": "7"})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "whitney", recording)
        cli._CHECKS["whitney_cz"]["runner"](_Plan(cfg))
    ((grid, masks),) = seen
    assert masks.shape == (50, 64, 64)
    return grid, masks


def test_distance_chunks_change_no_bits(runner_masks, monkeypatch):
    """whitney's starts, sides and distance have the same bits with a chunk of
    one mask and with one chunk of all the check's masks."""
    grid, masks = runner_masks
    covers = []
    for cells in (grid.size, 2**30):
        monkeypatch.setattr(weights, "_STACK_CELLS", cells)
        covers.append(whitney(grid, masks))
    one, whole = covers
    for name in ("starts", "sides", "distance"):
        assert np.array_equal(getattr(one, name), getattr(whole, name)), name


def test_whitney_works_in_bounded_chunks(runner_masks):
    """The cover of the check's 50 masks traces under 5 MiB (one distance
    transform of the whole stack peaks near 9.5 MiB)."""
    grid, masks = runner_masks
    tracemalloc.start()
    try:
        whitney(grid, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cover_checks_copy_no_distance_stack(runner_masks):
    """distance_ratios and covers_exactly on the check's 50 masks each trace
    under 1 MiB: the cubes are indexed before their minimum is taken, and
    the overlap count is int8 (a float64 block minimum of the whole distance
    stack and an int64 count peaked near 2 MiB)."""
    grid, masks = runner_masks
    cover = whitney(grid, masks)
    for name in ("distance_ratios", "covers_exactly"):
        tracemalloc.start()
        try:
            getattr(cover, name)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{name} peak {peak / 2**20:.2f} MiB"
