"""Dyadic cubes, maximal operators, Muckenhoupt constants.

Cubes are periodic dyadic windows: every power-of-two side from one
cell up to the full domain, at every grid-aligned position.  Window
sums use wrapped cumulative sums; the sup over cubes containing a point
is a trailing running maximum, so the Hardy-Littlewood maximal operator
costs O(N log N) rather than O(N^2).  The helpers act on the trailing
grid axes, so M runs on a whole stack of functions in one call: np.cumsum
adds in order, so one prefix sum along the first grid axis serves every
side below N with that side's own bits (the full side keeps its np.sum).
The local sharp maximal function sorts the samples of every window at
once (a sliding view of the wrap-padded array, in bounded chunks) and
takes half the least spread of consecutive order statistics; at the full
side every window is the whole torus, so one sort serves every start.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from . import constants
from .errors import ConvergenceError, ParameterError, SingularWeightError
from .grid import Grid, GridFunction, Weight, lp_norm, require_exponent, require_same_grid


_SORT_CHUNK = 1 << 20  # window samples local_sharp_maximal sorts at once (8 MiB)


def _dyadic_sides(grid: Grid) -> np.ndarray:
    """Sides, in cells, of the grid's periodic dyadic cubes: 1, 2, 4, .., N."""
    return 2 ** np.arange(int(np.log2(grid.points_per_axis)) + 1)


def _cut(a: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    """a[start:stop] along a negative axis."""
    return a[(..., slice(start, stop)) + (slice(None),) * (-axis - 1)]


def _prefix_sums(a: np.ndarray, m: int, axis: int) -> np.ndarray:
    """0, then the running sums of a followed by its first m - 1 entries, along axis."""
    cs = np.cumsum(np.concatenate([a, _cut(a, axis, 0, m - 1)], axis=axis), axis=axis)
    return np.concatenate([np.zeros_like(_cut(cs, axis, 0, 1)), cs], axis=axis)


def _wrapped_window_sums(a: np.ndarray, m: int, axis: int, cs=None) -> np.ndarray:
    """out[..., i, ...] = sum of m consecutive entries starting at i, wrapping; cs may
    be _prefix_sums(a, k, axis) for any k >= m, as np.cumsum adds in order."""
    n = a.shape[axis]
    if m == n:  # a prefix difference here would change the bits
        return np.repeat(np.sum(a, axis=axis, keepdims=True), n, axis=axis)
    cs = _prefix_sums(a, m, axis) if cs is None else cs
    return _cut(cs, axis, m, n + m) - _cut(cs, axis, 0, n)


def _window_sums(a: np.ndarray, m: int, dim: int, cs=None) -> np.ndarray:
    """Sums over m^dim periodic windows of the trailing dim axes, by lowest corner."""
    out = _wrapped_window_sums(a, m, -dim, cs)
    for axis in range(1 - dim, 0):
        out = _wrapped_window_sums(out, m, axis)
    return out


def _trailing_max(a: np.ndarray, m: int, dim: int) -> np.ndarray:
    """out[x] = max over starts in (x-m, x] per trailing axis, i.e. over cubes containing x."""
    out = a
    origin = m - 1 - m // 2
    for axis in range(-dim, 0):
        out = maximum_filter1d(out, size=m, axis=axis, mode="wrap", origin=origin)
    return out


def _leading_min(a: np.ndarray, m: int) -> np.ndarray:
    """out[i] = min over the window [i, i+m-1] per axis (wrapping)."""
    out = a
    for axis in range(a.ndim):
        out = minimum_filter1d(out, size=m, axis=axis, mode="wrap", origin=-(m // 2))
    return out


def _maximal_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """M of every function in a stack whose trailing axes are the grid's."""
    mags = np.abs(values)
    best = np.array(mags)  # the one-cell cube is |f| itself
    cs = _prefix_sums(mags, grid.points_per_axis // 2, -grid.dim)  # every side below N
    for m in _dyadic_sides(grid)[1:]:
        means = _window_sums(mags, int(m), grid.dim, cs) / float(m) ** grid.dim
        best = np.maximum(best, _trailing_max(means, int(m), grid.dim))
    return best


def maximal(f: GridFunction) -> GridFunction:
    """Hardy-Littlewood maximal function: sup of |f|-averages over dyadic cubes."""
    return GridFunction(f.grid, _maximal_stack(f.grid, f.values))


@dataclass(frozen=True)
class ApReport:
    """A_p constant together with the extremizing cube."""

    p: float
    constant: float
    witness_side: float
    witness_start: tuple


def ap_constant(w: Weight, p: float) -> ApReport:
    """Muckenhoupt constant sup_Q (avg_Q w)(avg_Q w^{-1/(p-1)})^{p-1}.

    For p = 1 the dual factor degenerates to 1/(inf_Q w).  Weights with
    zeros are rejected for p >= 1 since the dual average diverges.
    """
    require_exponent("p", p, closed=True)
    vals = w.values
    if np.min(vals) <= 0.0:
        raise SingularWeightError("A_p constants need a strictly positive weight")
    dim = w.grid.dim
    dual = vals ** (-1.0 / (p - 1.0)) if p > 1 else None
    if dual is not None and not np.all(np.isfinite(dual)):
        raise SingularWeightError(
            f"the dual weight w^(-1/(p-1)) overflows for p = {p}"
        )
    best = -np.inf
    best_cube = (1, (0,) * dim)
    for m in _dyadic_sides(w.grid):
        m = int(m)
        mean_w = _window_sums(vals, m, dim) / float(m) ** dim
        if p > 1:
            field = mean_w * (_window_sums(dual, m, dim) / float(m) ** dim) ** (p - 1.0)
        else:
            field = mean_w / _leading_min(vals, m)
        idx = int(np.argmax(field))
        if field.reshape(-1)[idx] > best:
            best = float(field.reshape(-1)[idx])
            best_cube = (m, np.unravel_index(idx, field.shape))
    side_cells, start = best_cube
    return ApReport(p, best, side_cells * w.grid.spacing, tuple(int(i) for i in start))


def empirical_maximal_norm(grid: Grid, q: float) -> float:
    """Estimated ||M||_{L^q -> L^q} over 32 seeded random trials plus a
    spike, with margin.

    The margin (x1.25) makes the estimate safe to use as the norm bound
    inside the Rubio de Francia series.
    """
    require_exponent("q", q)
    rng = np.random.default_rng(7)
    best = 0.0
    candidates = [np.abs(rng.standard_normal(grid.shape)) for _ in range(32)]
    spike = np.zeros(grid.shape)
    spike[(0,) * grid.dim] = 1.0
    candidates.append(spike)
    for v, mv in zip(candidates, _maximal_stack(grid, np.stack(candidates))):
        ratio = lp_norm(GridFunction(grid, mv), q) / max(lp_norm(GridFunction(grid, v), q), 1e-300)
        best = max(best, ratio)
    return best * constants.MAXIMAL_NORM_MARGIN


# Terms of the Rubio de Francia series; its tail must fall below 1e-8.
_RDF_TERMS = 30


@dataclass(frozen=True)
class RdFCertificate:
    """Verifiable facts about a Rubio de Francia majorant."""

    weight: Weight
    q: float
    norm_ratio: float        # ||v||_q / ||phi||_q, must be <= 2
    a1_ratio: float          # sup M v / v, must be <= 2 ||M||
    maximal_norm: float
    tail: float


def rubio_de_francia(phis: Sequence[GridFunction], q: float,
                     maximal_norm: float | None = None) -> tuple:
    """v = sum_{k<30} M^k phi / (2||M||_q)^k, an A_1 majorant of |phi|, for
    every phi of a non-empty sequence on one grid: one certificate per phi,
    in order.  Each M^k runs once, on the stack of all the phi."""
    require_exponent("q", q)
    if not phis:
        raise ParameterError("rubio_de_francia needs at least one phi")
    grid = phis[0].grid
    for phi in phis:
        require_same_grid(phi, grid)
    if maximal_norm is None:
        maximal_norm = empirical_maximal_norm(grid, q)
    if not (maximal_norm > 0):
        raise ParameterError("maximal_norm must be positive")
    term = np.stack([np.abs(phi.values) for phi in phis])
    total = np.array(term)
    for _ in range(_RDF_TERMS - 1):
        term = _maximal_stack(grid, term) / (2.0 * maximal_norm)
        total += term
    certificates = []
    for phi, last, v, mv in zip(phis, term, total, _maximal_stack(grid, total)):
        tail = lp_norm(GridFunction(grid, last), q)
        size = lp_norm(GridFunction(grid, v), q)
        if tail > 1e-8 * max(size, 1e-300):
            raise ConvergenceError(
                f"majorant series tail {tail:.2e} has not converged within {_RDF_TERMS} terms"
            )
        weight = Weight(GridFunction(grid, v))
        positive = v > 0
        a1 = float(np.max(mv[positive] / v[positive])) if positive.any() else np.inf
        ratio = size / max(lp_norm(phi, q), 1e-300)
        certificates.append(RdFCertificate(weight, q, ratio, a1, maximal_norm, tail))
    return tuple(certificates)


def sharp_lambda(lam: float) -> float:
    """lam, if it lies in (0, 1); else a ParameterError."""
    if not (0 < lam < 1):
        raise ParameterError(f"lambda must lie in (0, 1), got {lam}")
    return lam


def local_sharp_maximal(f: GridFunction, lam: float) -> GridFunction:
    """Local sharp maximal M#_lam f: sup over cubes containing x of
    inf_c ((f - c) chi_Q)*(lam |Q|).

    The inner inf over the recentering constant c is exact: with
    r = floor(lam * m^dim) samples allowed above the level, the optimum
    is half the smallest spread of m^dim - r consecutive sorted values.
    """
    sharp_lambda(lam)
    if np.max(np.abs(f.values.imag)) != 0.0:
        raise ParameterError("the local sharp maximal function is defined for real inputs")
    vals = f.values.real
    g = f.grid
    best = np.zeros(g.shape)
    for m in _dyadic_sides(g):
        m = int(m)
        count = m**g.dim
        q = count - int(np.floor(lam * count))
        if q <= 1:
            continue  # every cube oscillation at this scale is zero
        windows = sliding_window_view(np.pad(vals, (0, m - 1), mode="wrap"), (m,) * g.dim)
        # At m = N every window is the whole torus, so one sort serves every start.
        starts = 1 if m == g.points_per_axis else g.size
        rows = max(1, _SORT_CHUNK // count)
        per_start = np.empty(starts)
        for lo in range(0, starts, rows):
            idx = np.unravel_index(np.arange(lo, min(lo + rows, starts)), g.shape)
            s = np.sort(windows[idx].reshape(-1, count), axis=1)
            per_start[lo : lo + rows] = 0.5 * np.min(s[:, q - 1 :] - s[:, : count - q + 1], axis=1)
        # np.resize repeats the single m = N value over the grid
        best = np.maximum(best, _trailing_max(np.resize(per_start, g.shape), m, g.dim))
    return GridFunction(g, best)
