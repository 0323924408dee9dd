"""Square functions: cone area integrals, g-functions and g*.

Each is one shape, a Riemann sum in dt/t over a geometric TimeGrid:
Sf = (sum_j (|phi(t_j sqrt(L)) f|^2 * K_j) log(ratio))^(1/2).  phi is
z^2 e^{-z^2} or z e^{-z} (horizontal heat/Poisson kinds), the bare
semigroup with density t^2 |grad .|^2 (vertical kinds), or psi (g*).
K_j is a delta (g-functions), the ball {|y| < t_j} over t_j^n (area
integrals) or (t_j/(t_j+|y|))^(n mu) over t_j^n (g*), applied by FFT.
``SquareFunction`` says this once: built once, it tabulates phi on (time
node x spectrum) and the kernel FFTs; applied, it transforms f once and
accumulates one time slice after another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ParameterError, ResolutionError
from .grid import Grid, GridFunction, require_same_grid
from .multipliers import MultiplierProfile, square_symbol
from .spectral import SpectralOperator

AREA_KINDS = ("s_h", "s_p", "S_H", "S_P")
G_KINDS = ("g_h", "g_p", "G_H", "G_P")

_ALIASES = {"sh": "s_h", "sp": "s_p", "SH": "S_H", "SP": "S_P",
            "gh": "g_h", "gp": "g_p", "GH": "G_H", "GP": "G_P"}

# square_symbol keys by position in AREA_KINDS / G_KINDS (last two vertical)
_SYMBOL_KEYS = ("s_h", "s_p", "S_H-scalar", "S_P-scalar")


def _canon(kind: str, allowed) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in allowed:
        raise ParameterError(f"unknown square-function kind {kind!r}; choose from {allowed}")
    return kind


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
            raise ParameterError("need 0 < t_min < t_max")
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

    def check_budget(self, grid: Grid):
        budget = grid.half_width**2 / 4.0
        top = float(self.nodes[-1])
        if top > budget * (1.0 + 1e-9):
            raise ParameterError(
                f"largest time {top:g} exceeds the trust budget R^2/4 = {budget:g}"
            )


class ConeQuadrature:
    """Cached FFT masks of the balls {|y| < t} for cone integrals."""

    def __init__(self, grid: Grid, times: TimeGrid):
        times.check_budget(grid)
        if times.t_min < grid.spacing:
            raise ResolutionError(
                f"smallest time {times.t_min:g} is below the grid spacing "
                f"{grid.spacing:g}; the cone cross-section would be empty"
            )
        self.grid = grid
        self.times = times
        dist = grid.distance_from_origin()
        self.mask_ffts = [np.fft.fftn((dist < t).astype(float))
                          for t in map(float, times.nodes)]


class SquareFunction:
    """(sum_j (|phi(t_j sqrt(L)) f|^2 * K_j) log(ratio))^(1/2) with phi = symbol.

    vertical: the density is t_j^2 |grad phi(t_j sqrt(L)) f|^2 instead.
    kernels: the FFT of K_j per node, or None for a delta.
    """

    def __init__(self, op: SpectralOperator, times: TimeGrid,
                 symbol: MultiplierProfile, vertical: bool = False, kernels=None):
        self.op = op
        self.vertical = vertical
        self.nodes = [float(t) for t in times.nodes]
        # row by row: one FourierBump call on all T x N points fills its 4096-row workspace
        self.table = [op.profile_values(symbol.scaled(t)).real.copy()
                      for t in self.nodes]
        self.kernels = None if kernels is None else list(kernels)
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


def _kind_operator(kind: str, op: SpectralOperator, times: TimeGrid,
                   kernels=None) -> SquareFunction:
    """The SquareFunction of a canonical area or g-function kind."""
    i = AREA_KINDS.index(kind) if kind in AREA_KINDS else G_KINDS.index(kind)
    vertical = i >= 2
    if vertical and not op.gradient_bound_available:
        raise CapabilityError(f"{kind} needs spatial gradients, which this operator lacks")
    return SquareFunction(op, times, square_symbol(_SYMBOL_KEYS[i]), vertical, kernels)


def area_operator(kind: str, op: SpectralOperator, cone: ConeQuadrature) -> SquareFunction:
    """The area integral of the given kind, ready to apply to many f."""
    kind = _canon(kind, AREA_KINDS)
    require_same_grid(op, cone)
    return _kind_operator(kind, op, cone.times, cone.mask_ffts)


def g_operator(kind: str, op: SpectralOperator, times: TimeGrid) -> SquareFunction:
    """The g-function of the given kind, ready to apply to many f."""
    kind = _canon(kind, G_KINDS)
    times.check_budget(op.grid)
    return _kind_operator(kind, op, times)


def area_integral(kind: str, f: GridFunction, op: SpectralOperator,
                  cone: ConeQuadrature) -> GridFunction:
    """Lusin area integral over the unit-aperture cone.

    Kinds: s_h (horizontal heat, symbol z^2 e^{-z^2}), s_p (horizontal
    Poisson, z e^{-z}), S_H / S_P (vertical: t * gradient of the heat or
    Poisson flow).
    """
    return area_operator(kind, op, cone)(f)


@dataclass(frozen=True)
class GStarParams:
    """Parameters of the dominating square function g*_{mu, psi}."""

    mu: float
    psi: MultiplierProfile

    def __post_init__(self):
        if not (self.mu > 1):
            raise ParameterError(f"mu must exceed 1, got {self.mu}")


def g_star_operator(op: SpectralOperator, params: GStarParams,
                    times: TimeGrid) -> SquareFunction:
    """g*_{mu,psi}, ready to apply to many f."""
    times.check_budget(op.grid)
    dist = op.grid.distance_from_origin()
    power = op.dim * params.mu
    return SquareFunction(op, times, params.psi, kernels=(
        np.fft.fftn((t / (t + dist)) ** power) for t in map(float, times.nodes)))


def g_star(f: GridFunction, op: SpectralOperator, params: GStarParams,
           times: TimeGrid) -> GridFunction:
    """g*_{mu,psi}: the cone replaced by the weight (t/(t+|x-y|))^(n*mu)."""
    return g_star_operator(op, params, times)(f)


def g_function(kind: str, f: GridFunction, op: SpectralOperator,
               times: TimeGrid) -> GridFunction:
    """Pointwise (no space average) g-function of the given kind.

    g_h, g_p are the horizontal heat/Poisson versions; G_H, G_P the
    vertical ones with the factor t|grad|.
    """
    return g_operator(kind, op, times)(f)
