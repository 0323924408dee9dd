"""Square functions: cone area integrals, g-functions and g*.

Each is one shape, a Riemann sum in dt/t over a geometric TimeGrid:
Sf = (sum_j (|phi(t_j sqrt(L)) f|^2 * K_j) log(ratio))^(1/2).  phi is
z^2 e^{-z^2} or z e^{-z} (horizontal heat/Poisson kinds), the bare
semigroup with density t^2 |grad .|^2 (vertical kinds), or psi (g*).
K_j is a delta (g-functions), the ball {|y| < t_j} over t_j^n (area
integrals) or (t_j/(t_j+|y|))^(n mu) over t_j^n (g*), applied by FFT.
``SquareFunction`` says this once.  Built once, it keeps phi as a real
table on the (time node x distinct sqrt(L)) grid, from one call, with
its subnormal entries set to 0, and stacks the kernel FFTs; a cone
grid's ball stack is built once per operator, kept read-only on it and
shared by s_h, s_p, S_H and S_P (g*'s stack is one per build).  Applied, it
transforms f once, then takes the nodes in blocks of ``_BLOCK_ELEMENTS``
entries: the rows' spectrum gathered from the table by the operator's
level map, one batched inverse, one FFT convolution, and the rows added
in node order.  The oscillator's batched inverse is one real product of
its band with each row's (re, im) pairs, batched in one matmul, as a
GEMM over all rows would move the last bits.  Which phi, which density
and which K_j each of the nine kinds takes is one table, ``KINDS``, and
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
from .grid import Grid, GridFunction, require_exponent, require_same_grid
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
        steps = np.log2(t_max / t_min) * per_octave
        if not np.isfinite(steps):
            raise ParameterError(f"the time grid from t_min = {t_min:g} to t_max = {t_max:g} "
                                 f"has no finite node count")
        return cls(t_min, ratio, int(np.ceil(steps)) + 1)

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


# Entries (nodes x grid points) per block: a 256 KiB complex stack stays in cache.
_BLOCK_ELEMENTS = 2**14


class SquareFunction:
    """(sum_j (|phi(t_j sqrt(L)) f|^2 * K_j) log(ratio))^(1/2) with phi = symbol.

    vertical: the density is t_j^2 |grad phi(t_j sqrt(L)) f|^2 instead.
    kernels: the FFTs of K_j stacked on a leading node axis, or None for a delta.
    """

    def __init__(self, op: SpectralOperator, times: TimeGrid,
                 symbol, vertical: bool, kernels):
        self.op = op
        self.vertical = vertical
        self.nodes = [float(t) for t in times.nodes]
        # the symbol on the whole (time node x distinct sqrt(L)) grid in one
        # call, one row per node; a block spreads its rows by the level map.
        # Subnormal entries are flushed to 0 once here, as each one slows
        # every product it enters.
        self.table = op.level_values(
            lambda s: symbol(np.multiply.outer(self.nodes, s))).real.copy()
        self.table[np.abs(self.table) < np.finfo(float).tiny] = 0.0
        self.kernels = kernels
        g, dt = op.grid, times.log_weight
        self.weights = [dt if kernels is None else g.cell_volume * dt / t**g.dim
                        for t in self.nodes]
        self.block = max(1, _BLOCK_ELEMENTS // g.size)

    def __call__(self, f: GridFunction) -> GridFunction:
        op = self.op
        axes = op.grid.axes
        coeffs = op.forward(f)
        acc = np.zeros(op.grid.shape)
        for lo in range(0, len(self.nodes), self.block):
            rows = slice(lo, lo + self.block)
            part = op.spread(self.table[rows]) * coeffs
            if self.vertical:
                dens = sum(np.abs(c) ** 2 for c in op.inverse_gradient(part))
                dens *= np.reshape([t**2 for t in self.nodes[rows]], (-1,) + (1,) * op.dim)
            else:
                dens = np.abs(op.inverse(part)) ** 2
            if self.kernels is not None:
                dens = np.fft.ifftn(np.fft.fftn(dens, axes=axes) * self.kernels[rows],
                                    axes=axes).real
            for j, row in enumerate(dens, lo):
                acc += row * self.weights[j]
        return GridFunction(op.grid, np.sqrt(np.maximum(acc, 0.0)))


# The spatial kernel FFTs stacked on a leading node axis; each ball stack
# is kept on op, so it lives exactly as long as the operator.
def _ball(op: SpectralOperator, times: TimeGrid, mu: float):
    ConeQuadrature(op.grid, times)  # refuses cross-sections below the spacing
    balls = vars(op).setdefault("_balls", {})
    if times not in balls:
        balls[times] = _transformed(op, times, lambda t, dist: dist < t)
        balls[times].flags.writeable = False
    return balls[times]


def _g_star_weight(op: SpectralOperator, times: TimeGrid, mu: float):
    power = op.dim * require_exponent("mu", mu)
    return _transformed(op, times, lambda t, dist: (t / (t + dist)) ** power)


def _transformed(op: SpectralOperator, times: TimeGrid, kernel) -> np.ndarray:
    """The FFTs of kernel(t_j, |x|) on a leading node axis, by one fftn in place."""
    t = times.nodes.reshape((-1,) + (1,) * op.dim)
    stack = kernel(t, op.grid.distance_from_origin()).astype(np.complex128)
    return np.fft.fftn(stack, axes=op.grid.axes, out=stack)


# kind: (square_symbol key, vertical, spatial kernel per node); a None key
# is psi_vanishing, and a None kernel is a delta
KINDS = {
    "s_h": ("s_h", False, _ball), "s_p": ("s_p", False, _ball),
    "S_H": ("S_H-scalar", True, _ball), "S_P": ("S_P-scalar", True, _ball),
    "g_h": ("s_h", False, None), "g_p": ("s_p", False, None),
    "G_H": ("S_H-scalar", True, None), "G_P": ("S_P-scalar", True, None),
    "g_star": (None, False, _g_star_weight),
}


def _row(kind: str) -> tuple:
    """The table row of a kind."""
    if kind not in KINDS:
        raise ParameterError(f"unknown square-function kind {kind!r}; choose from {tuple(KINDS)}")
    return KINDS[kind]


def square_function_operator(kind: str, op: SpectralOperator, times: TimeGrid,
                             mu: float = 3.5) -> SquareFunction:
    """The square function of the given kind, tabulated once to apply to
    many f; mu is g*'s only."""
    key, vertical, kernel = _row(kind)
    top = float(times.nodes[-1])
    if not op.trusts(top):
        raise ParameterError(
            f"largest time {top:g} exceeds the trust budget t_max = {op.t_max:g}")
    symbol = psi_vanishing(op.dim) if key is None else square_symbol(key)
    return SquareFunction(op, times, symbol, vertical, kernel and kernel(op, times, mu))


def _of_family(kind: str, kernel) -> str:
    """kind, if its spatial kernel is the given one; else a ParameterError."""
    if _row(kind)[2] is not kernel:
        family = [k for k, row in KINDS.items() if row[2] is kernel]
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
    return square_function_operator(_of_family(kind, None), op, times)(f)


def g_star(f: GridFunction, op: SpectralOperator, mu: float,
           times: TimeGrid) -> GridFunction:
    """g*_mu: the cone replaced by the weight (t/(t+|x-y|))^(n*mu), psi = psi_vanishing."""
    return square_function_operator("g_star", op, times, mu)(f)
