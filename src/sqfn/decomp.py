"""Whitney covers and Calderon-Zygmund decompositions.

The fundamental cell [-R, R)^dim is treated as a plain (non-periodic)
box here: distances to the closed complement F are the non-periodic
Euclidean ones, computed separably in numpy with the bits of scipy's
exact distance transform.  A stack of masks runs in chunks
(``weights._by_chunks``), each to its own largest offset.  (Whether a
Whitney cover of the torus should use the periodic distance is a
separate question; its answer changes the records.)  Whitney cubes are
dyadic, pairwise disjoint, tile the open set exactly, and satisfy
diam(Q) <= dist(Q, F) <= 4 diam(Q) (tight in one dimension; at the
single-cell floor in two dimensions the lower constant can dip below 1,
which the cover reports rather than hides).  A cover of a mask, or of a
stack of masks on the trailing axes, is two integer arrays, the cubes'
stack index and lowest corner `starts` and their sides `sides`, built in
one sweep over the dyadic sides; the bad part of a decomposition is one
grid function, zero off the cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import Grid, GridFunction
from .weights import _by_chunks, _dyadic_sides, maximal


def _blocks(a: np.ndarray, m: int, dim: int) -> np.ndarray:
    """A stack of grid arrays (the trailing dim axes) viewed as side-m blocks: the
    stack axes, the block axes (n/m each), then the in-block axes (m each).
    Indexed by stack index and start // m, it gives those cubes' cells as a
    contiguous copy, one cube per row, whose sums over the in-block axes have
    the bits of np.sum on each cube alone (a sum over the strided view's
    in-block axes does not)."""
    lead = a.ndim - dim
    split = a.reshape(a.shape[:lead] + sum(((n // m, m) for n in a.shape[lead:]), ()))
    return split.transpose((*range(lead), *range(lead, split.ndim, 2), *range(lead + 1, split.ndim, 2)))


@dataclass(frozen=True)
class WhitneyCover:
    """Disjoint dyadic cubes tiling an open set, distance-comparable to F."""

    grid: Grid
    mask: np.ndarray = field(repr=False)      # the open sets: a stack of grid masks
    starts: np.ndarray = field(repr=False)    # cubes x (stack axes + dim): stack index, lowest corner
    sides: np.ndarray = field(repr=False)     # cubes: sides in cells
    distance: np.ndarray = field(repr=False)  # each point's distance to its mask's F

    def _by_side(self):
        """For each side m of the cover: m, which cubes have it, and their
        stack and block index into _blocks(a, m, dim)."""
        lead = self.mask.ndim - self.grid.dim
        for m in np.unique(self.sides):
            chosen = self.sides == m
            yield int(m), chosen, tuple((self.starts[chosen] // ((1,) * lead + (m,) * self.grid.dim)).T)

    def distance_ratios(self) -> np.ndarray:
        """dist(Q, F) / diam(Q) for every cube."""
        out = np.empty(len(self.sides))
        for m, chosen, idx in self._by_side():
            dist = _blocks(self.distance, m, self.grid.dim)[idx].min(axis=self.grid.axes)
            out[chosen] = dist / (m * self.grid.spacing * np.sqrt(self.grid.dim))
        return out

    def covers_exactly(self) -> bool:
        """True iff the cubes tile every open set exactly and disjointly: each
        cell lies in one cube on its open set and in none on its F.  A cell
        lies in one aligned block per side, so int8 counts wrap only if one
        cube is listed over 100 times."""
        count = np.zeros(self.mask.shape, dtype=np.int8)
        for m, _, idx in self._by_side():
            np.add.at(_blocks(count, m, self.grid.dim), idx, 1)
        return bool(np.array_equal(count, self.mask))


@_by_chunks
def _distance_to_complement(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Euclidean distance of each grid point to the nearest point of F, separably,
    on the trailing grid axes of a stack of masks: the index distance d to F
    along the first grid axis, then in 2-D the least d^2 + (s h)^2 over offsets
    s along the second, until (s h)^2 reaches the largest value so far.  Each
    value is sqrt of (offset h)^2 summed in axis order, so it has the bits of
    scipy.ndimage.distance_transform_edt(mask, sampling=h) on each mask."""
    h, n, dim = grid.spacing, grid.points_per_axis, grid.dim
    idx = np.arange(n, dtype=float).reshape((-1,) + (1,) * (dim - 1))
    before = np.maximum.accumulate(np.where(mask, -np.inf, idx), axis=-dim)
    ahead = np.flip(np.where(mask, np.inf, idx), -dim)
    after = np.flip(np.minimum.accumulate(ahead, axis=-dim), -dim)
    d2 = (np.minimum(idx - before, after - idx) * h) ** 2
    if dim == 1:
        return np.sqrt(d2)
    best = d2.copy()
    for s in range(1, n):
        if (s * h) ** 2 >= np.max(best, initial=0.0):
            break
        np.minimum(best[..., s:], d2[..., :-s] + (s * h) ** 2, out=best[..., s:])
        np.minimum(best[..., :-s], d2[..., s:] + (s * h) ** 2, out=best[..., :-s])
    return np.sqrt(best)


def whitney(grid: Grid, mask: np.ndarray) -> WhitneyCover:
    """Whitney cover of the open set of a boolean mask, or of each in a stack.

    One sweep over the dyadic sides, largest first: an aligned block is
    accepted when all its cells are in the open set and not yet taken,
    and its distance to F is at least its diameter (at the one-cell
    floor containment alone decides).  These are exactly the cubes that
    pass the test while no larger dyadic cube around them does.  Cubes
    come ordered by side, largest first, then lexicographically by stack
    index and corner, so each mask's cubes keep their own cover's order.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[-grid.dim:] != grid.shape:
        raise GridMismatchError(
            f"mask has shape {mask.shape}, the grid has shape {grid.shape}")
    full = np.argwhere(mask.all(axis=grid.axes))
    if len(full):
        at = f" (mask {', '.join(map(str, full[0]))} of the stack is not)" if full.shape[1] else ""
        raise ParameterError(f"the open set must be a proper subset of the domain{at}")
    edt = _distance_to_complement(grid, mask)
    free = mask.copy()
    lead = mask.ndim - grid.dim
    starts, sides = [], []
    for m in _dyadic_sides(grid)[::-1]:
        blocks = _blocks(free, m, grid.dim)   # a view: clearing it clears free
        accept = blocks.all(axis=grid.axes)
        if m > 1:
            diam = m * grid.spacing * np.sqrt(grid.dim)
            accept &= _blocks(edt, m, grid.dim).min(axis=grid.axes) >= diam
        blocks[accept] = False
        starts.append(np.argwhere(accept) * ((1,) * lead + (m,) * grid.dim))
        sides.append(np.full(len(starts[-1]), m))
    return WhitneyCover(grid, mask, np.concatenate(starts), np.concatenate(sides), edt)


@dataclass(frozen=True)
class CZDecomposition:
    """f = good + bad at level lam, on the Whitney cover of {Mf > lam}."""

    level: float
    good: GridFunction
    bad: GridFunction     # f minus its average on each cube, zero off the cover
    cover: WhitneyCover = field(repr=False)

    def reconstruction_error(self, f: GridFunction) -> float:
        return float(np.max(np.abs(self.good.values + self.bad.values - f.values)))

    def bad_means(self) -> np.ndarray:
        """|integral of the bad part over Q| for every cube Q."""
        grid = self.cover.grid
        out = np.empty(len(self.cover.sides))
        for m, chosen, idx in self.cover._by_side():
            s = _blocks(self.bad.values, m, grid.dim)[idx].sum(axis=grid.axes)
            # abs() of each sum; np.abs of a complex array can differ in the last bit
            out[chosen] = np.hypot(s.real, s.imag) * grid.cell_volume
        return out

    def good_bound_constant(self) -> float:
        """max |good| / lam — the C of the |h| <= C lam bound."""
        return float(np.max(np.abs(self.good.values))) / self.level


def cz_decomposition(f: GridFunction, lam: float) -> CZDecomposition:
    """Calderon-Zygmund decomposition of f at level lam.

    The open set is {Mf > lam}; on each Whitney cube good is the average
    of f and bad is f minus it, so the bad part has exactly zero mean on
    every cube and the reconstruction is exact by construction.
    """
    if not (lam > 0):
        raise ParameterError(f"level must be positive, got {lam}")
    mf = maximal(f).values.real
    mask = mf > lam
    if mask.all():
        raise ParameterError(
            "level is below the global average; the bad set is everything"
        )
    cover = whitney(f.grid, mask)
    good = np.array(f.values)
    bad = np.zeros_like(good)
    for m, _, idx in cover._by_side():
        cubes = _blocks(f.values, m, f.grid.dim)[idx]
        avg = cubes.mean(axis=f.grid.axes, keepdims=True)
        _blocks(bad, m, f.grid.dim)[idx] = cubes - avg
        _blocks(good, m, f.grid.dim)[idx] = avg
    return CZDecomposition(lam, GridFunction(f.grid, good), GridFunction(f.grid, bad), cover)
