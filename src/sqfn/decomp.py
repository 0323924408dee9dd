"""Whitney covers and Calderon-Zygmund decompositions.

The fundamental cell [-R, R)^dim is treated as a plain (non-periodic)
box here: distances to the closed complement F are Euclidean.  Whitney
cubes are dyadic, pairwise disjoint, tile the open set exactly, and
satisfy diam(Q) <= dist(Q, F) <= 4 diam(Q) (tight in one dimension; at
the single-cell floor in two dimensions the lower constant can dip
below 1, which the cover reports rather than hides).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import ParameterError
from .grid import Grid, GridFunction, require_same_grid
from .weights import maximal


@dataclass(frozen=True)
class Cube:
    """A dyadic cube: lowest-corner cell index, side in cells, level."""

    start: tuple
    side_cells: int
    level: int

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

    Recursive dyadic subdivision: a cube is accepted when it lies in the
    open set and its distance to F is at least its diameter; otherwise
    it is split until the one-cell floor, where containment alone
    decides.
    """
    mask = np.asarray(mask, dtype=bool).reshape(grid.shape)
    if not mask.any():
        return WhitneyCover(grid, mask, ())
    if mask.all():
        raise ParameterError("the open set must be a proper subset of the domain")
    edt = _distance_to_complement(grid, mask)
    h = grid.spacing
    sqrt_dim = np.sqrt(grid.dim)
    cubes = []

    def visit(start, m, level):
        sl = tuple(slice(s, s + m) for s in start)
        sub = mask[sl]
        if not sub.any():
            return
        if sub.all():
            diam = m * h * sqrt_dim
            if m == 1 or float(np.min(edt[sl])) >= diam:
                cubes.append(Cube(tuple(start), m, level))
                return
        half = m // 2
        for corner in np.ndindex(*(2,) * grid.dim):
            child = tuple(s + c * half for s, c in zip(start, corner))
            visit(child, half, level + 1)

    visit((0,) * grid.dim, grid.points_per_axis, 0)
    return WhitneyCover(grid, mask, tuple(cubes))


@dataclass(frozen=True)
class CZDecomposition:
    """f = good + sum of bad parts at level lam."""

    level: float
    good: GridFunction
    bad: tuple            # pairs (Cube, GridFunction)
    cover: WhitneyCover

    def reconstruction_error(self, f: GridFunction) -> float:
        total = self.good.values.copy()
        for _, b in self.bad:
            total = total + b.values
        return float(np.max(np.abs(total - f.values)))

    def bad_means(self) -> np.ndarray:
        vol = self.good.grid.cell_volume
        return np.array([abs(np.sum(b.values)) * vol for _, b in self.bad])

    def good_bound_constant(self) -> float:
        """max |good| / lam — the C of the |h| <= C lam bound."""
        return float(np.max(np.abs(self.good.values))) / self.level


def cz_decomposition(f: GridFunction, lam: float) -> CZDecomposition:
    """Calderon-Zygmund decomposition of f at level lam.

    The open set is {Mf > lam}; on each Whitney cube the bad part is f
    minus its cube average, so every bad part has exactly zero mean and
    the reconstruction is exact by construction.
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
    bad = []
    for q in cover.cubes:
        sl = q.slices()
        avg = np.mean(f.values[sl])
        piece = np.zeros(f.grid.shape, dtype=np.complex128)
        piece[sl] = f.values[sl] - avg
        good[sl] = avg
        bad.append((q, GridFunction(f.grid, piece)))
    return CZDecomposition(lam, GridFunction(f.grid, good), tuple(bad), cover)
