"""Periodic computational domain, sampled functions and Lebesgue norms.

The domain is the torus [-R, R)^dim sampled on a uniform grid of N
points per axis (N a power of two).  All spatial integrals are midpoint
Riemann sums with cell volume h^dim, h = 2R/N, so weighted sums and
superlevel counts are mutually consistent by construction.  Grid
functions serialize to CSV for output only (to_csv); the package reads
no CSV back.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, NonFiniteError, ParameterError


def _is_int(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [-R, R)^dim.

    Attributes:
        dim: spatial dimension, 1 or 2.
        points_per_axis: N, a power of two, at least 8.
        half_width: R > 0 with R^2 and h^dim normal floats; the domain is [-R, R)^dim.
    """

    dim: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim not in (1, 2):
            raise ParameterError(f"dim must be the integer 1 or 2, got {self.dim}")
        n = self.points_per_axis
        if not _is_int(n) or n < 8 or n & (n - 1):
            raise ParameterError(
                f"points_per_axis must be an integer power of two >= 8, got {n}"
            )
        with np.errstate(over="ignore", under="ignore"):
            squares = (np.float64(self.half_width) ** 2, np.float64(self.spacing) ** self.dim)
        if not (self.half_width > 0 and all(np.finfo(float).tiny <= s < np.inf for s in squares)):
            raise ParameterError(f"half_width must be positive, with R^2 and the cell volume "
                                 f"h^dim positive normal floats, got {self.half_width}")

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2R/N (exact in binary arithmetic for power-of-two N)."""
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def axes(self) -> tuple:
        """The axes of the grid in a stack of grid functions: the last dim."""
        return tuple(range(-self.dim, 0))

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        """Coordinates of one axis: -R, -R + h, ..., R - h."""
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    def coords(self):
        """Coordinate arrays, one per axis, broadcast to the grid shape."""
        return tuple(np.meshgrid(*(self.axis_coords(),) * self.dim, indexing="ij"))

    def periodic_delta(self, offsets: np.ndarray) -> np.ndarray:
        """Reduce coordinate differences to the torus metric per axis."""
        two_r = 2.0 * self.half_width
        d = np.abs(offsets)
        return np.minimum(d, two_r - d)

    def distance_from_origin(self) -> np.ndarray:
        """Torus distance of every grid point from the point 0 (grid-shaped)."""
        return np.hypot.reduce(self.periodic_delta(np.stack(self.coords())))


@dataclass(frozen=True)
class GridFunction:
    """A sampled complex function on a Grid, stored lexicographically."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).reshape(self.grid.shape)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise NonFiniteError("GridFunction samples must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Weight:
    """A non-negative, not identically zero weight function."""

    base: GridFunction

    def __post_init__(self):
        v = self.base.values
        if np.max(np.abs(v.imag)) != 0.0:
            raise ParameterError("weights must be real-valued")
        if np.min(v.real) < 0.0:
            raise ParameterError("weights must be non-negative")
        if np.max(v.real) <= 0.0:
            raise ParameterError("weights must be positive somewhere")

    @property
    def grid(self) -> Grid:
        return self.base.grid

    @property
    def values(self) -> np.ndarray:
        return self.base.values.real

    @classmethod
    def ones(cls, grid: Grid) -> "Weight":
        return cls(GridFunction(grid, np.ones(grid.shape)))


def require_same_grid(a, b):
    ga = a.grid if hasattr(a, "grid") else a
    gb = b.grid if hasattr(b, "grid") else b
    if ga != gb:
        raise GridMismatchError(f"grids differ: {ga} vs {gb}")


def require_exponent(name: str, value: float, closed: bool = False) -> float:
    """value, if it is finite and above 1 (at least 1 if closed); else a
    ParameterError naming it."""
    if not (np.isfinite(value) and (value >= 1 if closed else value > 1)):
        raise ParameterError(f"{name} must {'be at least' if closed else 'exceed'} 1 "
                             f"and be finite, got {value}")
    return value


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann-sum L^p norm (sum |f|^p h^dim)^(1/p)."""
    require_exponent("p", p, closed=True)
    mags = np.abs(f.values)
    return float((np.sum(mags**p) * f.grid.cell_volume) ** (1.0 / p))


def weighted_lp_norm(f: GridFunction, w: Weight, p: float) -> float:
    """(sum |f|^p w h^dim)^(1/p) on a shared grid."""
    require_same_grid(f, w.base)
    require_exponent("p", p, closed=True)
    mags = np.abs(f.values)
    return float((np.sum(mags**p * w.values) * f.grid.cell_volume) ** (1.0 / p))


def weighted_superlevel_measure(f: GridFunction, w: Weight, level: float) -> float:
    """w-measure of the superlevel set {|f| > level}."""
    require_same_grid(f, w.base)
    if not (level > 0):
        raise ParameterError(f"level must be positive, got {level}")
    mask = np.abs(f.values) > level
    return float(np.sum(w.values[mask]) * f.grid.cell_volume)


# ---------------------------------------------------------------------------
# Serialization: column-oriented CSV, written only.
#
# Layout: one comment line "# dim=<d> N=<n> R=<r>", then a header row
# with the index coordinate columns followed by re, im; one row per grid
# point in np.ndindex order, each float written by repr.
# ---------------------------------------------------------------------------


def to_csv(f: GridFunction) -> str:
    g = f.grid
    buf = io.StringIO()
    buf.write(f"# dim={g.dim} N={g.points_per_axis} R={g.half_width!r}\n")
    writer = csv.writer(buf)
    writer.writerow(["i", "j"][: g.dim] + ["re", "im"])
    for idx, v in zip(np.ndindex(g.shape), f.values.reshape(-1)):
        writer.writerow([*idx, repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()
