"""Whitney covers and Calderon-Zygmund decompositions.

The fundamental cell [-R, R)^dim is treated as a plain (non-periodic)
box here: distances to the closed complement F are Euclidean.  Whitney
cubes are dyadic, pairwise disjoint, tile the open set exactly, and
satisfy diam(Q) <= dist(Q, F) <= 4 diam(Q) (tight in one dimension; at
the single-cell floor in two dimensions the lower constant can dip
below 1, which the cover reports rather than hides).  A cover is built
in one sweep over the dyadic sides, and each bad part of a
decomposition is held as an array on its own cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import GridMismatchError, ParameterError
from .grid import Grid, GridFunction
from .weights import _dyadic_sides, maximal


@dataclass(frozen=True)
class Cube:
    """A dyadic cube: lowest-corner cell index and side in cells."""

    start: tuple
    side_cells: int

    def slices(self):
        return tuple(slice(s, s + self.side_cells) for s in self.start)


@dataclass(frozen=True)
class WhitneyCover:
    """Disjoint dyadic cubes tiling an open set, distance-comparable to F."""

    grid: Grid
    mask: np.ndarray = field(repr=False)
    cubes: tuple

    def distance_ratios(self) -> np.ndarray:
        """dist(Q, F) / diam(Q) for every cube."""
        edt = _distance_to_complement(self.grid, self.mask)
        h = self.grid.spacing
        out = np.empty(len(self.cubes))
        for i, q in enumerate(self.cubes):
            d = float(np.min(edt[q.slices()]))
            out[i] = d / (q.side_cells * h * np.sqrt(self.grid.dim))
        return out

    def covers_exactly(self) -> bool:
        """True iff the cubes tile the open set exactly and disjointly."""
        paint = np.zeros(self.grid.shape, dtype=int)
        for q in self.cubes:
            paint[q.slices()] += 1
        return bool(np.all(paint[self.mask] == 1) and np.all(paint[~self.mask] == 0))


def _distance_to_complement(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Euclidean distance of each grid point to the nearest point of F."""
    return distance_transform_edt(mask, sampling=grid.spacing)


def whitney(grid: Grid, mask: np.ndarray) -> WhitneyCover:
    """Whitney cover of the open set given by a boolean mask.

    One sweep over the dyadic sides, largest first: an aligned block is
    accepted when all its cells are in the open set and not yet taken,
    and its distance to F is at least its diameter (at the one-cell
    floor containment alone decides).  These are exactly the cubes that
    pass the test while no larger dyadic cube around them does.  Cubes
    come ordered by side, largest first, then lexicographically.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise GridMismatchError(
            f"mask has shape {mask.shape}, the grid has shape {grid.shape}")
    if mask.all():
        raise ParameterError("the open set must be a proper subset of the domain")
    edt = _distance_to_complement(grid, mask)
    n, dim = grid.points_per_axis, grid.dim
    within = tuple(range(1, 2 * dim, 2))      # the in-block axes of a split
    free = mask.copy()
    cubes = []
    for m in _dyadic_sides(grid)[::-1]:
        m = int(m)
        split = (n // m, m) * dim
        blocks = free.reshape(split)          # a view: clearing it clears free
        accept = blocks.all(axis=within)
        if m > 1:
            diam = m * grid.spacing * np.sqrt(dim)
            accept &= edt.reshape(split).min(axis=within) >= diam
        blocks &= ~np.expand_dims(accept, within)
        cubes += [Cube(tuple(int(i) * m for i in idx), m) for idx in np.argwhere(accept)]
    return WhitneyCover(grid, mask, tuple(cubes))


@dataclass(frozen=True)
class CZDecomposition:
    """f = good + sum of bad parts at level lam."""

    level: float
    good: GridFunction
    bad: tuple            # pairs (Cube, f - its average on the cube, cube-shaped)

    def reconstruction_error(self, f: GridFunction) -> float:
        total = self.good.values.copy()
        for q, b in self.bad:
            total[q.slices()] += b
        return float(np.max(np.abs(total - f.values)))

    def bad_means(self) -> np.ndarray:
        vol = self.good.grid.cell_volume
        return np.array([abs(np.sum(b)) * vol for _, b in self.bad])

    def good_bound_constant(self) -> float:
        """max |good| / lam — the C of the |h| <= C lam bound."""
        return float(np.max(np.abs(self.good.values))) / self.level


def cz_decomposition(f: GridFunction, lam: float) -> CZDecomposition:
    """Calderon-Zygmund decomposition of f at level lam.

    The open set is {Mf > lam}; on each Whitney cube the bad part is f
    minus its cube average, held on the cube alone, so every bad part
    has exactly zero mean and the reconstruction is exact by
    construction.
    """
    if not (lam > 0):
        raise ParameterError(f"level must be positive, got {lam}")
    mf = maximal(f).values.real
    mask = mf > lam
    if mask.all():
        raise ParameterError(
            "level is below the global average; the bad set is everything"
        )
    good = np.array(f.values)
    bad = []
    for q in whitney(f.grid, mask).cubes:
        sl = q.slices()
        avg = np.mean(f.values[sl])
        bad.append((q, f.values[sl] - avg))
        good[sl] = avg
    return CZDecomposition(lam, GridFunction(f.grid, good), tuple(bad))
