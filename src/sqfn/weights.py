"""Dyadic cubes, maximal operators, Muckenhoupt constants.

Cubes are periodic dyadic windows: every power-of-two side from one
cell up to the full domain, at every grid-aligned position.  Window
sums use wrapped cumulative sums.  With D_k(X)(x) = max(X(x), X(x - k))
along each grid axis, wrapping, the max over the side-m cubes containing
x is D_{m/2} o .. o D_1 of the side's values by lowest corner, so the
sup over all sides nests as D_1(A_2 v D_2(A_4 v .. D_{N/4}(A_{N/2}))):
one doubling per side, and M of N samples costs O(N log N).  The A_1
minimum nests the same way, L_m(x) = min(L_{m/2}(x), L_{m/2}(x + m/2)).
Max and min are exact, so no value depends on the order.  The helpers act
on the trailing grid axes, so M runs on a whole stack of functions in
one call: np.cumsum adds in order, so one prefix sum along the first
grid axis serves every side below N with that side's own bits (the full
side keeps its np.sum).  So M of a function does not depend on its
stack, and a stack of more than ``_STACK_CELLS`` cells runs in balanced
chunks; A_p constants share their prefix sums the same way.  The local
sharp maximal function sorts the 16-bit rank keys (np.unique) of the
windows of a side in cache-sized chunks of ``_SORT_CHUNK`` samples, or
one window where a window is larger (gathered from a sliding view of the
wrap-padded keys), and takes half the least spread of consecutive order
statistics, read back as values: the same two floats as a float sort's.
The full side is one cube, whose value holds at every point, so one sort
or sum serves it.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import constants
from .errors import ConvergenceError, ParameterError, SingularWeightError
from .grid import Grid, GridFunction, Weight, lp_norm, require_exponent, require_same_grid


# Samples per sort: 64 KiB of uint16 keys (levels: 2 x 256 KiB); rows sort alone, so no value moves.
_SORT_CHUNK = 2**15
# Cells per stack chunk (_by_chunks), 256 KiB of float64: 2**16 outgrew glibc's heap trim in 2-D.
_STACK_CELLS = 2**15


def _dyadic_sides(grid: Grid) -> list:
    """Sides, in cells, of the grid's periodic dyadic cubes: 1, 2, 4, .., N."""
    return [2**k for k in range(int(np.log2(grid.points_per_axis)) + 1)]


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


def _doubled(a: np.ndarray, k: int, dim: int, op) -> np.ndarray:
    """op(a, a shifted by k cells) along each trailing grid axis in turn, wrapping:
    out[x] = op(a[x], a[x - k]) per axis, so a negative k looks ahead."""
    for axis in range(-dim, 0):
        a = op(a, np.roll(a, k, axis=axis))
    return a


def _by_chunks(func):
    """func(grid, stack), for a func of real results that acts on each grid
    array of a stack alone, in one call within _STACK_CELLS cells, else one
    call per balanced chunk of the first axis, written into one array."""
    @functools.wraps(func)
    def chunked(grid: Grid, stack: np.ndarray) -> np.ndarray:
        count = min(-(-stack.size // _STACK_CELLS), len(stack)) if stack.ndim > grid.dim else 1
        if count <= 1:
            return func(grid, stack)
        out = np.empty(stack.shape)
        for part, dst in zip(np.array_split(stack, count), np.array_split(out, count)):
            dst[...] = func(grid, part)
        return out
    return chunked


@_by_chunks
def _maximal_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """M of every function in a stack whose trailing axes are the grid's."""
    mags = np.abs(values)
    n, dim = grid.points_per_axis, grid.dim
    # the full side is one cube, whose mean holds everywhere (taken first, so its
    # temporaries are gone before the prefix sums); the one-cell cube is |f| itself
    best = _window_sums(mags, n, dim) / float(n) ** dim
    cs = _prefix_sums(mags, n // 2, -dim)  # every side from 2 to N/2
    for m in _dyadic_sides(grid)[-2:0:-1]:  # N/2 down to 2
        means = _window_sums(mags, m, dim, cs) / float(m) ** dim
        best = _doubled(np.maximum(best, means), m // 2, dim, np.maximum)
    return np.maximum(mags, best)


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
    with np.errstate(over="ignore"):  # the refusal below reports an overflow
        dual = vals ** (-1.0 / (p - 1.0)) if p > 1 else None
    if dual is not None and not np.all(np.isfinite(dual)):
        raise SingularWeightError(
            f"the dual weight w^(-1/(p-1)) overflows for p = {p}"
        )
    best = -np.inf
    best_cube = (1, (0,) * dim)
    low = vals  # p = 1: the least w on each cube, by lowest corner
    cs = _prefix_sums(vals, w.grid.points_per_axis // 2, -dim)  # every side below N
    cs_dual = _prefix_sums(dual, w.grid.points_per_axis // 2, -dim) if p > 1 else None
    for m in _dyadic_sides(w.grid):
        mean_w = _window_sums(vals, m, dim, cs) / float(m) ** dim
        if p > 1:
            field = mean_w * (_window_sums(dual, m, dim, cs_dual) / float(m) ** dim) ** (p - 1.0)
        else:
            low = _doubled(low, -(m // 2), dim, np.minimum)  # a shift of 0 at m = 1
            field = mean_w / low
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
    candidates = np.zeros((33,) + grid.shape)  # 32 trials, then the spike
    for v in candidates[:32]:
        np.abs(rng.standard_normal(grid.shape), out=v)
    candidates[(32,) + (0,) * grid.dim] = 1.0
    for v, mv in zip(candidates, _maximal_stack(grid, candidates)):
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
    tail: float              # ||v - partial sum||_q / ||v||_q, must be <= 1e-8


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
        size = lp_norm(GridFunction(grid, v), q)
        tail = lp_norm(GridFunction(grid, last), q) / max(size, 1e-300)
        if tail > 1e-8:
            raise ConvergenceError(
                f"majorant series tail {tail:.2e} of ||v||_q has not converged within {_RDF_TERMS} terms"
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


def _rank_keys(vals: np.ndarray) -> tuple:
    """The sorted distinct values, and each value's index in them (uint32 past 2**16)."""
    levels, keys = np.unique(vals, return_inverse=True)
    return levels, keys.reshape(vals.shape).astype(np.uint16 if len(levels) <= 2**16 else np.uint32)


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
    levels, keys = _rank_keys(f.values.real)
    g = f.grid
    best = np.zeros(g.shape)
    for m in _dyadic_sides(g)[:0:-1]:  # N down to 2; one cell has no spread
        count = m**g.dim
        q = count - int(np.floor(lam * count))
        if q > 1:  # else every cube oscillation at this side is zero
            windows = sliding_window_view(np.pad(keys, (0, m - 1), mode="wrap"), (m,) * g.dim)
            # At m = N every window is the whole torus, so one sort serves every start.
            starts = 1 if m == g.points_per_axis else g.size
            rows = min(max(1, _SORT_CHUNK // count), starts)
            top, bottom = np.empty((2, rows, count - q + 1))
            per_start = np.empty(starts)
            for lo in range(0, starts, rows):
                idx = np.unravel_index(np.arange(lo, min(lo + rows, starts)), g.shape)
                s = windows[idx].reshape(-1, count)
                s.sort(axis=1)
                hi = np.take(levels, s[:, q - 1 :], out=top[: len(s)])
                low = np.take(levels, s[:, : count - q + 1], out=bottom[: len(s)])
                per_start[lo : lo + rows] = 0.5 * np.min(np.subtract(hi, low, out=hi), axis=1)
            best = np.maximum(per_start.reshape(g.shape) if starts > 1 else per_start[0], best)
        best = _doubled(best, m // 2, g.dim, np.maximum)  # moves nothing at m = N
    return GridFunction(g, best)
