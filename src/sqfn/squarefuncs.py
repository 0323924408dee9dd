"""Square functions: cone area integrals, g-functions and g*.

Each is one shape, a Riemann sum in dt/t over a geometric TimeGrid:
Sf = (sum_j (|phi(t_j sqrt(L)) f|^2 * K_j) log(ratio))^(1/2).  phi is
z^2 e^{-z^2} or z e^{-z} (horizontal heat/Poisson kinds), the bare
semigroup with density t^2 |grad .|^2 (vertical kinds), or psi (g*).
K_j is a delta (g-functions), the ball {|y| < t_j} over t_j^n (area
integrals) or (t_j/(t_j+|y|))^(n mu) over t_j^n (g*), applied by FFT.
``SquareFunction`` says this once: built once, it tabulates phi on (time
node x spectrum) and the kernel FFTs; applied, it transforms f once and
accumulates one time slice after another.  Which phi, which density and
which K_j each of the nine kinds takes is one table, ``_KINDS``, and
``square_function_operator``, the one factory that reads it, is the only
way to build a square function.  It refuses a time grid whose largest
node passes the operator's trust budget t_max before it builds any
kernel; ``area_integral``, ``g_function`` and ``g_star`` are one call
into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError
from .grid import Grid, GridFunction, require_same_grid
from .multipliers import psi_vanishing, square_symbol
from .spectral import SpectralOperator


@dataclass(frozen=True)
class TimeGrid:
    """Geometric time grid t_j = t_min * ratio^j, j = 0..count-1."""

    t_min: float
    ratio: float
    count: int

    def __post_init__(self):
        if not (self.t_min > 0):
            raise ParameterError(f"t_min must be positive, got {self.t_min}")
        if not (self.ratio > 1):
            raise ParameterError(f"ratio must exceed 1, got {self.ratio}")
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")

    @classmethod
    def geometric(cls, t_min: float, t_max: float, per_octave: int = 8) -> "TimeGrid":
        if not (0 < t_min < t_max):
            raise ParameterError(f"need 0 < t_min < t_max, got t_min = {t_min:g}, t_max = {t_max:g}")
        if per_octave < 1:
            raise ParameterError(f"per_octave must be >= 1, got {per_octave}")
        ratio = 2.0 ** (1.0 / per_octave)
        count = int(np.ceil(np.log2(t_max / t_min) * per_octave)) + 1
        return cls(t_min, ratio, count)

    @property
    def nodes(self) -> np.ndarray:
        return self.t_min * self.ratio ** np.arange(self.count)

    @property
    def log_weight(self) -> float:
        """The dt/t weight of each node, log(ratio)."""
        return float(np.log(self.ratio))


class ConeQuadrature:
    """The time grid of cone integrals on a grid; it must start at the spacing."""

    def __init__(self, grid: Grid, times: TimeGrid):
        if times.t_min < grid.spacing:
            raise ResolutionError(
                f"smallest time {times.t_min:g} is below the grid spacing "
                f"{grid.spacing:g}; the cone cross-section would be empty"
            )
        self.grid = grid
        self.times = times


class SquareFunction:
    """(sum_j (|phi(t_j sqrt(L)) f|^2 * K_j) log(ratio))^(1/2) with phi = symbol.

    vertical: the density is t_j^2 |grad phi(t_j sqrt(L)) f|^2 instead.
    kernels: the FFT of K_j per node, or None for a delta.
    """

    def __init__(self, op: SpectralOperator, times: TimeGrid,
                 symbol, vertical: bool, kernels):
        self.op = op
        self.vertical = vertical
        self.nodes = [float(t) for t in times.nodes]
        # row by row: one FourierBump call on all T x N points fills its 4096-row workspace
        self.table = [op.profile_values(lambda s: symbol(t * s)).real.copy()
                      for t in self.nodes]
        self.kernels = kernels
        g, dt = op.grid, times.log_weight
        self.weights = [dt if kernels is None else g.cell_volume * dt / t**g.dim
                        for t in self.nodes]

    def __call__(self, f: GridFunction) -> GridFunction:
        op = self.op
        coeffs = op.forward(f)
        acc = np.zeros(op.grid.shape)
        for j, t in enumerate(self.nodes):
            part = self.table[j] * coeffs
            if self.vertical:
                dens = t**2 * sum(np.abs(c) ** 2 for c in op.inverse_gradient(part))
            else:
                dens = np.abs(op.inverse(part)) ** 2
            if self.kernels is not None:
                dens = np.fft.ifftn(np.fft.fftn(dens) * self.kernels[j]).real
            acc += dens * self.weights[j]
        return GridFunction(op.grid, np.sqrt(np.maximum(acc, 0.0)))


# The spatial kernel FFTs per time node, None for a delta.
def _delta(op: SpectralOperator, times: TimeGrid, mu: float):
    return None


def _ball(op: SpectralOperator, times: TimeGrid, mu: float):
    ConeQuadrature(op.grid, times)  # refuses cross-sections below the spacing
    dist = op.grid.distance_from_origin()
    return [np.fft.fftn((dist < t).astype(float)) for t in map(float, times.nodes)]


def _g_star_weight(op: SpectralOperator, times: TimeGrid, mu: float):
    if not (mu > 1):
        raise ParameterError(f"mu must exceed 1, got {mu}")
    dist = op.grid.distance_from_origin()
    return [np.fft.fftn((t / (t + dist)) ** (op.dim * mu)) for t in map(float, times.nodes)]


# kind: (square_symbol key, vertical, spatial kernel per node); None is psi_vanishing
_KINDS = {
    "s_h": ("s_h", False, _ball), "s_p": ("s_p", False, _ball),
    "S_H": ("S_H-scalar", True, _ball), "S_P": ("S_P-scalar", True, _ball),
    "g_h": ("s_h", False, _delta), "g_p": ("s_p", False, _delta),
    "G_H": ("S_H-scalar", True, _delta), "G_P": ("S_P-scalar", True, _delta),
    "g_star": (None, False, _g_star_weight),
}


def _row(kind: str) -> tuple:
    """The table row of a kind."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown square-function kind {kind!r}; choose from {tuple(_KINDS)}")
    return _KINDS[kind]


def square_function_operator(kind: str, op: SpectralOperator, times: TimeGrid,
                             mu: float = 3.5) -> SquareFunction:
    """The square function of the given kind, tabulated once to apply to
    many f; mu is g*'s only."""
    key, vertical, kernel = _row(kind)
    top = float(times.nodes[-1])
    if not op.trusts(top):
        raise ParameterError(
            f"largest time {top:g} exceeds the trust budget R^2/4 = {op.t_max:g}")
    symbol = psi_vanishing(op.dim) if key is None else square_symbol(key)
    return SquareFunction(op, times, symbol, vertical, kernel(op, times, mu))


def _of_family(kind: str, kernel) -> str:
    """kind, if its spatial kernel is the given one; else a ParameterError."""
    if _row(kind)[2] is not kernel:
        family = [k for k, row in _KINDS.items() if row[2] is kernel]
        raise ParameterError(f"square-function kind {kind!r} is not one of {family}")
    return kind


def area_integral(kind: str, f: GridFunction, op: SpectralOperator,
                  cone: ConeQuadrature) -> GridFunction:
    """Lusin area integral over the unit-aperture cone.

    Kinds: s_h (horizontal heat, symbol z^2 e^{-z^2}), s_p (horizontal
    Poisson, z e^{-z}), S_H / S_P (vertical: t * gradient of the heat or
    Poisson flow).
    """
    require_same_grid(op, cone)
    return square_function_operator(_of_family(kind, _ball), op, cone.times)(f)


def g_function(kind: str, f: GridFunction, op: SpectralOperator,
               times: TimeGrid) -> GridFunction:
    """Pointwise (no space average) g-function of the given kind.

    g_h, g_p are the horizontal heat/Poisson versions; G_H, G_P the
    vertical ones with the factor t|grad|.
    """
    return square_function_operator(_of_family(kind, _delta), op, times)(f)


def g_star(f: GridFunction, op: SpectralOperator, mu: float,
           times: TimeGrid) -> GridFunction:
    """g*_mu: the cone replaced by the weight (t/(t+|x-y|))^(n*mu), psi = psi_vanishing."""
    return square_function_operator("g_star", op, times, mu)(f)
