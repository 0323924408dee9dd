"""The inequality harness: measured ratios, fitted exponents, reports.

Every check turns one inequality into either a RatioReport (a supremum
of measured ratios over a test family, with the index of the ratio that
attains it) or a GrowthFit (a log-log slope compared against a declared
exponent bound); doubling gates a check's values under N -> 2N.  A check
applies no square function: it reads (f, Tf) pairs, a family and the list
of its images under T, aligned with family.members.
Three rules report every ratio.  Pairs: a RatioReport takes (numerator,
denominator) pairs in order; a zero denominator adds no ratio and counts
as skipped.  Pointwise: of array pairs, each ratio is max num/den above
the denominator's noise floor, the points below it make excluded_fraction
and a denominator zero everywhere is skipped.  Growth point: a GrowthFit's
point is the best ratio over the members whose denominator is positive.
Empirical suprema over finite families are lower bounds on true
operator norms, so every pass criterion is one-sided.  A family member
that is zero, as drawn or once windowed or projected onto the operator's
band, is refused with a ParameterError naming its index, never replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import constants
from .errors import BandError, ParameterError, ResolutionError, SingularWeightError
from .grid import (Grid, GridFunction, Weight, lp_norm, require_exponent,
                   weighted_lp_norm, weighted_superlevel_measure)
from .multipliers import kappa, square_symbol
from .spectral import HermiteOscillator1D, LaplacianTorus, SpectralOperator
# sqfn re-exports the factory from here, and the benchmark tracer patches this binding
from .squarefuncs import TimeGrid, square_function_operator  # noqa: F401
from .weights import _maximal_stack, ap_constant, local_sharp_maximal


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    inequality_tag: str
    ratios: tuple
    skipped: int = 0
    excluded_fraction: float = 0.0

    @property
    def sup_ratio(self) -> float:
        return max(self.ratios) if self.ratios else 0.0

    @property
    def witness(self) -> int:
        """Index into ratios of the sup, or -1 when there are none."""
        return int(np.argmax(self.ratios)) if self.ratios else -1

    def __post_init__(self):
        # a ratio that overflows to inf is kept (its record fails); NaN is not
        if not np.all(np.asarray(self.ratios, dtype=float) >= 0):
            raise ParameterError("ratios must be non-negative, not NaN")


@dataclass(frozen=True)
class GrowthFit:
    tag: str
    x_values: tuple
    y_values: tuple
    exponent_bound: float
    slack: float
    fitted_exponent: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x_values, dtype=float)
        y = np.asarray(self.y_values, dtype=float)
        if x.size < 4:
            raise ParameterError("growth fits need at least 4 points")
        for name, v in (("x_values", x), ("y_values", y)):
            if not np.all((v > 0) & (v < np.inf)):
                raise ParameterError(f"growth fits need finite positive {name}, got {v.tolist()}")
        if np.max(x) / np.min(x) < 2.0:
            raise ParameterError("growth fits need the x-values to span a real range")
        slope, _ = np.polyfit(np.log(x), np.log(y), 1)
        object.__setattr__(self, "fitted_exponent", float(slope))
        object.__setattr__(self, "passed",
                           bool(slope <= self.exponent_bound + self.slack))


@dataclass(frozen=True)
class Doubling:
    at_n: dict
    at_2n: dict
    worst_change: float
    passed: bool
    factor: ClassVar[float] = constants.STABILITY_FACTOR


def doubling(measure, n: int) -> Doubling:
    """The N -> 2N stability gate on measure(n), a {tag: value} mapping.

    A tag's change is max(b/a, a/b) of its values a at N and b at 2N, and
    inf when either is missing, zero, negative or not finite.  The gate
    passes when some tag is measured and no change reaches Doubling.factor.
    """
    at_n, at_2n = dict(measure(n)), dict(measure(2 * n))
    pairs = [(float(at_n.get(tag, 0.0)), float(at_2n.get(tag, 0.0)))
             for tag in at_n.keys() | at_2n.keys()]
    worst = max((max(b / a, a / b) if 0 < a < np.inf and 0 < b < np.inf else np.inf
                 for a, b in pairs), default=np.inf)
    return Doubling(at_n, at_2n, worst, worst < Doubling.factor)


def _report(tag: str, pairs) -> RatioReport:
    """The RatioReport of (numerator, denominator) pairs, in order: a zero
    denominator adds no ratio and counts as skipped."""
    pairs = list(pairs)
    ratios = tuple(num / denom for num, denom in pairs if denom != 0.0)
    return RatioReport(tag, ratios, len(pairs) - len(ratios))


def _pointwise(tag: str, pairs) -> RatioReport:
    """The RatioReport of (numerator, denominator) array pairs, in order: a
    denominator zero everywhere adds no ratio and counts as skipped; else
    the ratio is max num/den over the points where den > 1e-14 max den,
    and the other points count toward excluded_fraction."""
    ratios, skipped, excluded, points = [], 0, 0, 0
    for num, den in pairs:
        top = float(np.max(den))
        if top == 0.0:
            skipped += 1
            continue
        ok = den > 1e-14 * top
        excluded += int(np.sum(~ok))
        points += den.size
        ratios.append(float(np.max(num[ok] / den[ok])))
    return RatioReport(tag, tuple(ratios), skipped, excluded / points if points else 0.0)


def _best(pairs) -> float:
    """The largest ratio over the (numerator, denominator) pairs whose
    denominator is positive, or 0."""
    return max((num / denom for num, denom in pairs if denom > 0), default=0.0)


# ---------------------------------------------------------------------------
# Test families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFamily:
    members: tuple

    def __post_init__(self):
        for i, f in enumerate(self.members):
            if float(np.max(np.abs(f.values))) == 0.0:
                raise ParameterError(f"test family member {i} is the zero function")


def mixed_family(grid: Grid, seed: int, count: int = 20,
                 support_fraction: float = 1.0,
                 shapes: tuple = ("band", "bump", "spike", "packet")) -> TestFamily:
    """Band-limited noise, bumps, spikes and wave packets, round-robin.

    Mode numbers are capped independently of the resolution, so the
    band, bump and packet members describe the same continuum functions
    on every grid (only the lattice spikes are resolution-bound).
    support_fraction < 1 confines every member to the middle part of the
    domain (needed by the non-periodic decomposition machinery); a member
    the window zeroes is refused by TestFamily, not replaced.
    """
    n = grid.points_per_axis
    if n < 32:
        raise ParameterError(f"mixed families need at least 32 points per axis, got {n}")
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    r2 = sum(c**2 for c in coords)
    members = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        if shape == "band":
            vals = _hermitian_noise(grid, rng, 1, min(n // 8, 16), 6)
        elif shape == "bump":
            width = grid.half_width * (0.04 + 0.2 * rng.random())
            center = [grid.half_width * (rng.random() - 0.5) for _ in range(grid.dim)]
            shifted = sum(grid.periodic_delta(c - m) ** 2 for c, m in zip(coords, center))
            vals = np.exp(-shifted / (2 * width**2))
        elif shape == "spike":
            vals = np.zeros(grid.shape)
            idx = tuple(rng.integers(n // 4, 3 * n // 4, size=grid.dim))
            vals[idx] = 1.0
        else:  # packet
            width = grid.half_width * (0.1 + 0.2 * rng.random())
            freq = np.pi * rng.integers(2, min(n // 8, 16)) / grid.half_width
            vals = np.exp(-r2 / (2 * width**2)) * np.cos(freq * coords[0])
        if support_fraction < 1.0:
            cut = support_fraction * grid.half_width
            window = np.ones(grid.shape)
            for c in coords:
                window = window * (np.abs(c) <= cut)
            vals = vals * window
        members.append(GridFunction(grid, vals))
    return TestFamily(tuple(members))


def resolved_family(op: SpectralOperator, seed: int, count: int = 20,
                    shapes: tuple = ("band", "bump", "spike", "packet")) -> TestFamily:
    """A mixed family projected onto the operator's resolved band (op.project:
    the torus grid is its own band, so its members pass through unchanged)."""
    fam = mixed_family(op.grid, seed, count, shapes=shapes)
    return TestFamily(tuple(op.project(f) for f in fam.members))


def _hermitian_noise(grid: Grid, rng, lo: int, hi: int, terms: int) -> np.ndarray:
    """The real samples of terms random modes k in [lo, hi)^dim, each with a
    complex normal amplitude and its conjugate at -k."""
    n = grid.points_per_axis
    spec = np.zeros(grid.shape, dtype=np.complex128)
    for _ in range(terms):
        k = rng.integers(lo, hi, size=grid.dim)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        spec[tuple(k)] += amp
        spec[tuple((-ki) % n for ki in k)] += np.conj(amp)
    return np.fft.ifftn(spec).real


def band_limited_family(op: SpectralOperator, times: TimeGrid, seed: int,
                        count: int = 20, capture: float = 0.999) -> TestFamily:
    """Random combinations of modes whose dt/t mass the time grid captures.

    A frequency s is captured when sum_j |psi(t_j s)|^2 log(ratio), psi the
    g_h symbol z^2 e^{-z^2}, reaches capture * kappa^2, so identity checks
    are not polluted by unresolved scales.  Torus mode components run from
    the least captured m pi/R to the largest m whose diagonal is captured.
    """
    psi = square_symbol("s_h")
    level = capture * kappa(psi) ** 2

    def captured(s: np.ndarray) -> np.ndarray:
        # time on the last, contiguous axis
        mass = np.sum(np.abs(psi(s[:, None] * times.nodes)) ** 2, axis=-1)
        return mass * times.log_weight >= level

    nodes = op.spectral_nodes()
    good = captured(nodes) & (nodes > 0)
    if not good.any():
        raise BandError("no spectral node is captured by this time grid")
    rng = np.random.default_rng(seed)
    members = []
    if isinstance(op, HermiteOscillator1D):
        allowed = np.where(good)[0]
        for _ in range(count):
            c = np.zeros(op.truncation)
            pick = rng.choice(allowed, size=min(8, allowed.size), replace=False)
            c[pick] = rng.standard_normal(pick.size)
            members.append(op.synthesize(c))
    else:
        grid = op.grid
        modes = np.arange(1, grid.points_per_axis // 2)
        xi = np.pi / grid.half_width * modes
        lo = modes[captured(xi)]
        hi = modes[captured(xi * np.sqrt(grid.dim))]
        if not (lo.size and hi.size and lo[0] <= hi[-1]):
            raise BandError("time grid captures no torus mode to the required level")
        for _ in range(count):
            vals = _hermitian_noise(grid, rng, int(lo[0]), int(hi[-1]) + 1, 8)
            members.append(GridFunction(grid, vals))
    return TestFamily(tuple(members))


def weight_suite(grid: Grid, seed: int) -> list:
    """Five qualitatively different weights: flat, two powers, rough, smooth."""
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    r = np.sqrt(sum(c**2 for c in coords)) + grid.spacing / 4.0
    suite = [Weight.ones(grid)]
    suite.append(Weight(GridFunction(grid, r**0.5)))
    suite.append(Weight(GridFunction(grid, r**-0.5)))
    rough = np.exp(rng.standard_normal(grid.shape))
    suite.append(Weight(GridFunction(grid, rough)))
    smooth = 1.0 + np.cos(np.pi * coords[0] / grid.half_width) ** 2
    suite.append(Weight(GridFunction(grid, smooth)))
    return suite


def power_weight_family(grid: Grid, p: float) -> list:
    """Six power weights |x|^a with A_p constants spanning at least a decade.

    The admissible exponent range is -1 < a < p - 1 (a <= 0 for the A_1
    endpoint); the family walks toward the singular ends, where the A_p
    constant blows up, while staying strictly inside.
    """
    if grid.dim != 1:
        raise ParameterError("power-weight families are one-dimensional")
    x = np.abs(grid.coords()[0]) + grid.spacing / 64.0
    if p == 1:
        exps = np.linspace(-0.95, 0.0, 6)
    else:
        exps = np.linspace(-0.95, 0.95 * (p - 1.0), 6)
    return [Weight(GridFunction(grid, x**a)) for a in exps]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_spectral_identity(images: list, family: TestFamily) -> RatioReport:
    """Discretized (int ||psi(t sqrt(L)) f||_2^2 dt/t)^(1/2) versus kappa ||f||_2,
    psi(z) = z^2 e^{-z^2}: images holds g_h f for each member f."""
    kap = kappa(square_symbol("s_h"))
    return _report("spectral_identity", ((lp_norm(gf, 2), kap * lp_norm(f, 2))
                                         for f, gf in zip(family.members, images, strict=True)))


def propagation_leak(op: SpectralOperator, f: GridFunction, steps, radius: float) -> float:
    """Worst share, over t = m h for m in steps, of |cos(t sqrt L) f| beyond
    t + radius + SUPPORT_HALO_CELLS h of the origin, for f supported within
    radius of it: finite propagation puts all of it in supp f + B(0, t).
    Steps that leave no grid point beyond that reach would measure nothing:
    a ResolutionError."""
    if not np.any(f.values):
        raise ParameterError("propagation_leak needs a source f that is not zero")
    g = op.grid
    h = g.spacing
    dist = g.distance_from_origin()
    reach = float(min(steps, default=np.inf)) * h + radius + constants.SUPPORT_HALO_CELLS * h
    if not np.any(dist > reach):
        raise ResolutionError(f"no grid point lies beyond the least reach t + radius + halo = "
                              f"{reach:g}; the grid's largest distance is {np.max(dist):g}")
    worst = 0.0
    for m in steps:
        t = float(m) * h
        mags = np.abs(op.wave_cosine(t, f).values)
        leak = float(np.sum(mags[dist > t + radius + constants.SUPPORT_HALO_CELLS * h]))
        worst = max(worst, leak / float(np.sum(mags)))
    return worst


def _maximals(functions) -> list:
    """M of each function or weight of a list on one grid, from one stacked call."""
    if not functions:
        return []
    return list(_maximal_stack(functions[0].grid, np.stack([f.values for f in functions])))


def _weighted_power_ratios(images: list, family: TestFamily, weights: list, p: float,
                           tag: str) -> RatioReport:
    """The report of int |Tf|^p w over the p-dependent majorant of |f|^p.

    For 1 < p <= 2 the majorant is int |f|^p Mw; for p > 2 it is
    int |f|^p (Mw)^{p/2} w^{-(p/2 - 1)}.  check_weighted_l2_mw and
    check_lp_range at p = 2 both call this, so they agree bit for bit.
    The ratios stay in (weight, member) order.
    """
    if p > 2 and any(np.min(w.values) <= 0.0 for w in weights):
        raise SingularWeightError("the p > 2 majorant needs a strictly positive weight")
    majorants = [mw ** (p / 2.0) * w.values ** (-(p / 2.0 - 1.0)) if p > 2 else mw
                 for w, mw in zip(weights, _maximals(weights))]
    powers = [(np.abs(f.values) ** p, np.abs(tf.values) ** p)
              for f, tf in zip(family.members, images, strict=True)]
    return _report(tag, ((float(np.sum(tp * w.values)) * w.grid.cell_volume,
                          float(np.sum(fp * majorant)) * w.grid.cell_volume)
                         for w, majorant in zip(weights, majorants) for fp, tp in powers))


def check_weighted_l2_mw(images: list, family: TestFamily, weights: list,
                         tag: str = "weighted_l2_mw") -> RatioReport:
    """Ratios of int (Tf)^2 w against int |f|^2 Mw over all (f, w) pairs."""
    return _weighted_power_ratios(images, family, weights, 2.0, tag)


def check_weak_1_1(images: list, family: TestFamily, weights: list) -> RatioReport:
    """lambda * w{Tf > lambda} versus int |f| Mw, over six levels lambda
    from max |Tf| / 100 up to max |Tf|; an image zero everywhere has none."""
    tops = [float(np.max(np.abs(tf.values))) for tf in images]
    levels = [np.geomspace(top / 100.0, top * 0.999, 6) if top else () for top in tops]
    mws = [Weight(GridFunction(w.grid, mw)) for w, mw in zip(weights, _maximals(weights))]
    denoms = [[weighted_lp_norm(f, mw, 1) for f in family.members] for mw in mws]
    return _report("weak_1_1", ((float(lam) * weighted_superlevel_measure(tf, w, float(lam)), denom)
                                for w, row in zip(weights, denoms)
                                for tf, lams, denom in zip(images, levels, row, strict=True)
                                for lam in lams))


def check_lp_range(images: list, family: TestFamily, weights: list, p: float) -> RatioReport:
    """int (Tf)^p w versus the p-dependent majorant of |f|^p.

    For 1 < p <= 2 the majorant is int |f|^p Mw; for p > 2 it is
    int |f|^p (Mw)^{p/2} w^{-(p/2 - 1)} (which needs w > 0).
    """
    require_exponent("p", p)
    return _weighted_power_ratios(images, family, weights, p, f"lp_range_p{p:g}")


def check_pointwise_domination(images: list, gstar_images: list, family: TestFamily) -> RatioReport:
    """max_x Tf(x) / g*f(x), excluding points where g* is at the noise floor."""
    return _pointwise("pointwise_domination",
                      ((np.abs(tf.values), gf.values.real)
                       for _, tf, gf in zip(family.members, images, gstar_images, strict=True)))


def growth_exponents(p_list) -> list:
    """p_list as a list, if it holds >= 4 values inside [2, P_MAX]; else a ParameterError."""
    p_list = list(p_list)
    if len(p_list) < 4 or not all(2 <= p <= constants.P_MAX for p in p_list):
        raise ParameterError(f"p_list must hold >= 4 values inside [2, {constants.P_MAX}]")
    return p_list


def check_growth_in_p(images: list, family: TestFamily, p_list) -> GrowthFit:
    """Empirical ||T||_{p->p} lower bounds fitted against p^(1/2) growth."""
    p_list = growth_exponents(p_list)
    if len(family.members) < 8:
        raise ParameterError("family too small for a growth fit (need >= 8)")
    norms = [_best((lp_norm(tf, p), lp_norm(f, p))
                   for f, tf in zip(family.members, images, strict=True))
             for p in p_list]
    return GrowthFit("growth_in_p", tuple(p_list), tuple(norms), 0.5,
                     constants.P_GROWTH_SLACK)


def check_growth_in_ap(images: list, family: TestFamily, weights: list, p: float) -> GrowthFit:
    """Empirical weighted norms fitted against the A_p-constant exponent.

    For p > 1 the y-values are L^p_w operator-norm lower bounds and the
    exponent bound is beta_p + 1/(p-1), beta_p = max{1/2, 1/(p-1)}.  The
    endpoint p = 1 certifies the A_1 statement: L^2_w norms against the
    A_1 constant with exponent bound 1/2.
    """
    require_exponent("p", p, closed=True)
    norm_p = 2.0 if p == 1 else p
    xs = np.array([ap_constant(w, p).constant for w in weights])
    ys = np.array([_best((weighted_lp_norm(tf, w, norm_p), weighted_lp_norm(f, w, norm_p))
                         for f, tf in zip(family.members, images, strict=True))
                   for w in weights])
    if np.max(xs) / np.min(xs) < 10.0:
        raise ParameterError("weight family must span at least a decade of A_p constant")
    if p == 1:
        bound = 0.5
    else:
        beta = max(0.5, 1.0 / (p - 1.0))
        bound = beta + 1.0 / (p - 1.0)
    return GrowthFit(f"growth_in_ap_p{p:g}", tuple(xs), tuple(ys), bound,
                     constants.AP_GROWTH_SLACK)


def check_sharp_maximal_domination(gstar_images: list, family: TestFamily, lam: float) -> RatioReport:
    """max_x of M#_lam((g* f)^2) / (Mf)^2 over the family, above (Mf)^2's noise floor."""
    sharps = [local_sharp_maximal(GridFunction(f.grid, gf.values.real**2), lam).values.real
              for f, gf in zip(family.members, gstar_images, strict=True)]
    return _pointwise("sharp_maximal_domination",
                      zip(sharps, (mf**2 for mf in _maximals(family.members)), strict=True))


def check_sharp_composite(family: TestFamily, weights: list, p: float,
                          lam: float = 0.25) -> RatioReport:
    """||Mf||_{L^p_w} against ||M# |f|^2||^{1/2}_{L^{p/2}_w} ||w||^gamma_{A_p},
    gamma = max{1/2, 1/(p-1)}.  M# |f|^2 and Mf run once per member; the
    ratios stay in (weight, member) order."""
    if not (p > 2):
        raise ParameterError("the composite bound needs p > 2 (q = 2 scale)")
    gamma = max(0.5, 1.0 / (p - 1.0))
    sharps = [local_sharp_maximal(GridFunction(f.grid, np.abs(f.values) ** 2), lam)
              for f in family.members]
    maxes = [GridFunction(f.grid, mf)
             for f, mf in zip(family.members, _maximals(family.members))]
    apcs = [ap_constant(w, p).constant for w in weights]
    return _report(f"sharp_composite_p{p:g}",
                   ((weighted_lp_norm(mf, w, p),
                     weighted_lp_norm(sharp, w, p / 2.0) ** 0.5 * apc**gamma)
                    for w, apc in zip(weights, apcs) for sharp, mf in zip(sharps, maxes)))


def default_operator(name: str, grid: Grid, truncation: int = 128) -> SpectralOperator:
    if name == "laplacian":
        return LaplacianTorus(grid)
    if name == "hermite":
        return HermiteOscillator1D(grid, truncation)
    raise ParameterError(f"unknown operator {name!r}")
