"""End-to-end acceptance gate for the inequality laboratory.

Every test certifies one headline property with pinned tolerances and a
runtime budget, prints a single PASS/FAIL line, and never loosens a
bound to accommodate the measurement.  Finite propagation is measured
beyond the source's own support widened by t, as the theorem states it,
so that a source's width is not charged to the propagator.
"""

import time

import numpy as np
import pytest

from sqfn.decomp import cz_decomposition, whitney
from sqfn.grid import Grid, GridFunction, lp_norm
from sqfn.kernelbounds import constant_variation, sweep
from sqfn.multipliers import kappa, square_symbol
from sqfn.spectral import HermiteOscillator1D, LaplacianTorus
from sqfn.squarefuncs import ConeQuadrature, TimeGrid, area_integral, g_function
from sqfn.verify import (band_limited_family, check_growth_in_ap,
                         check_growth_in_p, check_lp_range,
                         check_pointwise_domination, check_sharp_composite,
                         check_sharp_maximal_domination,
                         check_spectral_identity, check_weak_1_1,
                         check_weighted_l2_mw, mixed_family,
                         power_weight_family, propagation_leak,
                         resolved_family, square_function_operator,
                         weight_suite)
from sqfn.weights import empirical_maximal_norm, rubio_de_francia

KINDS = ("s_h", "s_p", "S_H", "S_P", "g_star")
SEED = 7
WEIGHT_SEED = 107
MU = 3.5

_hermite_elapsed = []

# One line per certified property; the conftest terminal-summary hook
# replays these at the end of the session, past the output capture.
RESULT_LINES = []


def _report(name, ok, detail, elapsed, budget):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s]"
    RESULT_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, f"{name} exceeded the {budget}s budget ({elapsed:.1f}s)"


def _cone_times(op, per_octave=8):
    t_max = 4.0 if isinstance(op, HermiteOscillator1D) else op.grid.half_width**2 / 4.0
    return TimeGrid.geometric(op.grid.spacing, t_max, per_octave)


def _identity_times(op, per_octave=12):
    t_max = 4.0 if isinstance(op, HermiteOscillator1D) else op.grid.half_width**2 / 4.0
    return TimeGrid.geometric(op.grid.spacing / 8.0, t_max, per_octave)


@pytest.fixture(scope="module")
def torus256():
    return LaplacianTorus(Grid(1, 256, 1.0))


@pytest.fixture(scope="module")
def torus_pair():
    return {n: LaplacianTorus(Grid(1, n, 1.0)) for n in (128, 256)}


@pytest.fixture(scope="module")
def hermite_pair():
    return {n: HermiteOscillator1D(Grid(1, n, 22.5), 128) for n in (256, 512)}


def _source_radius(g, source_values, mass_tol):
    """Least distance from the origin beyond which the sampled source holds
    less than mass_tol of its L1 mass: the radius of its numerical support."""
    dist = g.distance_from_origin()
    mags = np.abs(source_values)
    total = float(np.sum(mags))
    return float(next(r for r in np.unique(dist)
                      if np.sum(mags[dist > r]) < mass_tol * total))


def _band_residual(op, source_values):
    """L1 share of the sampled source that the resolved band does not hold."""
    f = GridFunction(op.grid, source_values)
    held = op.synthesize(op.coefficients(f)).values
    return float(np.sum(np.abs(source_values - held))) / float(np.sum(np.abs(source_values)))


def _weighted_l2_suite(op, count=20):
    times = _cone_times(op)
    fam = resolved_family(op, SEED, count)
    ws = weight_suite(op.grid, WEIGHT_SEED)
    out = {}
    for kind in KINDS:
        T = square_function_operator(kind, op, times, mu=MU)
        out[kind] = check_weighted_l2_mw(T, fam, ws, tag=f"weighted_l2_mw_{kind}")
    return out


@pytest.fixture(scope="module")
def cww_reports(torus_pair):
    return {n: _weighted_l2_suite(op) for n, op in torus_pair.items()}


def test_spectral_identity_torus(torus256):
    start = time.perf_counter()
    times = _identity_times(torus256)
    fam = band_limited_family(torus256, times, SEED, 20)
    rep = check_spectral_identity(torus256, fam, times)
    lo, hi = min(rep.ratios), max(rep.ratios)
    ok = 0.98 <= lo and hi <= 1.02
    _report("spectral-identity", ok,
            f"ratios in [{lo:.5f}, {hi:.5f}], required [0.98, 1.02]",
            time.perf_counter() - start, 10.0)


def test_plancherel_ratios_torus(torus256):
    start = time.perf_counter()
    cone_times = _cone_times(torus256, per_octave=12)
    fam_cone = band_limited_family(torus256, cone_times, SEED, 20)
    cone = ConeQuadrature(torus256.grid, cone_times)
    rs = [lp_norm(area_integral("s_h", f, torus256, cone), 2) / lp_norm(f, 2)
          for f in fam_cone.members]
    ident_times = _identity_times(torus256)
    fam_fine = band_limited_family(torus256, ident_times, SEED, 20)
    rg = [lp_norm(g_function("g_h", f, torus256, ident_times), 2) / lp_norm(f, 2)
          for f in fam_fine.members]
    kap = kappa(square_symbol("s_h"))
    ok_s = max(abs(v - 0.5) for v in rs) <= 0.5 * 0.05
    ok_g = max(abs(v - kap) for v in rg) <= kap * 0.02
    _report("plancherel-ratios", ok_s and ok_g,
            f"s_h in [{min(rs):.4f}, {max(rs):.4f}] (0.5 +- 5%), "
            f"g_h in [{min(rg):.5f}, {max(rg):.5f}] (kappa={kap:.5f} +- 2%)",
            time.perf_counter() - start, 30.0)


def test_finite_propagation_torus(torus256):
    start = time.perf_counter()
    n = torus256.grid.points_per_axis
    spike = np.zeros(torus256.grid.shape)
    spike[n // 2] = 1.0
    steps = np.linspace(6, min(100, int(0.8 * n // 2)), 10).astype(int)
    worst = propagation_leak(torus256, GridFunction(torus256.grid, spike), steps, radius=0.0)
    _report("finite-propagation", worst < 1e-6,
            f"worst mass outside t + 4h is {worst:.3g}, required < 1e-6 "
            f"over {len(steps)} times",
            time.perf_counter() - start, 20.0)


def test_kernel_bound_sweeps():
    start = time.perf_counter()
    op = LaplacianTorus(Grid(1, 128, 1.0))
    grids = {
        "compact_support": (0.7, 0.93, (0, 1, 2)),      # kappa
        "smoothed_difference": (0.45, 0.8, (0.5, 1.0, 2.0)),  # r / t
        "poisson_decay": (0.12, 0.3, (0, 1, 2)),        # kappa
        "gradient_heat": (0.03, 0.078, (0, 1)),         # kappa
    }
    worst_var, worst_leak = 0.0, 0.0
    for lemma, (t_lo, t_hi, variants) in grids.items():
        ts = np.geomspace(t_lo, t_hi, 5)
        for value in variants:
            recs = sweep(op, lemma, ts, value)
            worst_var = max(worst_var, constant_variation(recs))
            if lemma == "compact_support" and value == 0:
                worst_leak = max(worst_leak,
                                 max(r["support_violation_mass"] for r in recs))
    ok = worst_var < 0.20 and worst_leak < 1e-6
    _report("kernel-bound-sweeps", ok,
            f"worst constant variation {worst_var:.3f} (< 0.20), "
            f"support mass {worst_leak:.3g} (< 1e-6)",
            time.perf_counter() - start, 120.0)


def test_whitney_cz_exactness():
    start = time.perf_counter()
    g = Grid(1, 256, 1.0)
    rng = np.random.default_rng(SEED)
    n = g.points_per_axis
    checked = 0
    ok_covers = True
    ok_ratios = True
    while checked < 50:
        mask = np.zeros(n, dtype=bool)
        for _ in range(rng.integers(1, 5)):
            a = int(rng.integers(0, n))
            b = int(rng.integers(1, n // 2))
            mask[a : min(a + b, n)] = True
        if mask.all() or not mask.any():
            continue
        checked += 1
        cover = whitney(g, mask)
        ok_covers &= cover.covers_exactly()
        ratios = cover.distance_ratios()
        above = np.array([q.side_cells > 1 for q in cover.cubes])
        ok_ratios &= bool(np.all(ratios <= 4.0 + 1e-12))
        if above.any():
            ok_ratios &= bool(np.all(ratios[above] >= 1.0 - 1e-12))

    def cz_stats(points):
        grid = Grid(1, points, 1.0)
        fam = mixed_family(grid, SEED + 1, count=8, support_fraction=0.5)
        worst_recon, worst_mean, worst_c = 0.0, 0.0, 0.0
        for f in fam.members:
            real = GridFunction(grid, np.abs(f.values))
            lam = 2.0 * float(np.mean(np.abs(real.values))) + 1e-9
            if not (np.max(np.abs(real.values)) > lam):
                continue
            dec = cz_decomposition(real, lam)
            worst_recon = max(worst_recon, dec.reconstruction_error(real))
            if dec.bad_means().size:
                worst_mean = max(worst_mean, float(np.max(dec.bad_means())))
            worst_c = max(worst_c, dec.good_bound_constant())
        return worst_recon, worst_mean, worst_c

    recon128, mean128, c128 = cz_stats(128)
    recon256, mean256, c256 = cz_stats(256)
    recon = max(recon128, recon256)
    mean = max(mean128, mean256)
    drift = abs(c256 / c128 - 1.0)
    ok = (ok_covers and ok_ratios and recon <= 1e-12 and mean <= 1e-12
          and drift <= 0.25)
    _report("whitney-cz-exactness", ok,
            f"50 exact covers with 1 <= dist/diam <= 4, reconstruction "
            f"{recon:.2g} (<= 1e-12), bad means {mean:.2g} (<= 1e-12), "
            f"good-bound constant drift {drift:.3f} under doubling (<= 0.25)",
            time.perf_counter() - start, 60.0)


def test_weighted_l2_maximal_bound(cww_reports):
    start = time.perf_counter()
    worst_change = 0.0
    finite = True
    for kind in KINDS:
        a = cww_reports[128][kind].sup_ratio
        b = cww_reports[256][kind].sup_ratio
        finite &= np.isfinite(a) and np.isfinite(b) and a > 0 and b > 0
        worst_change = max(worst_change, b / a, a / b)
    ok = finite and worst_change < 2.0
    _report("weighted-l2-maximal-bound", ok,
            f"sup of (Tf)^2 w over |f|^2 Mw finite for {len(KINDS)} operators "
            f"on the 20x5 suite; worst doubling change {worst_change:.3f}x (< 2x)",
            time.perf_counter() - start, 300.0)


def test_weak_and_lp_bounds(torus_pair, cww_reports):
    start = time.perf_counter()
    sups = {}
    bit_identical = True
    for n, op in torus_pair.items():
        times = _cone_times(op)
        fam = resolved_family(op, SEED, 20)
        ws = weight_suite(op.grid, WEIGHT_SEED)
        T = square_function_operator("s_h", op, times)
        entries = {"weak_1_1": check_weak_1_1(T, fam, ws).sup_ratio}
        for p in (1.5, 2.0, 4.0):
            rep = check_lp_range(T, fam, ws, p)
            entries[f"p{p:g}"] = rep.sup_ratio
            if p == 2.0:
                bit_identical &= rep.ratios == cww_reports[n]["s_h"].ratios
        sups[n] = entries
    finite = all(np.isfinite(v) and v > 0
                 for entries in sups.values() for v in entries.values())
    worst_change = max(max(sups[256][k] / sups[128][k], sups[128][k] / sups[256][k])
                       for k in sups[128])
    ok = finite and worst_change < 2.0 and bit_identical
    _report("weak-and-lp-bounds", ok,
            f"weak (1,1) and p in {{1.5, 2, 4}} sup ratios finite; worst "
            f"doubling change {worst_change:.3f}x (< 2x); p = 2 bit-identical "
            f"to the weighted L2 formula: {bit_identical}",
            time.perf_counter() - start, 300.0)


def test_pointwise_g_star_domination(torus_pair):
    start = time.perf_counter()
    sups = {}
    excluded_ok = True
    for n, op in torus_pair.items():
        times = _cone_times(op)
        fam = resolved_family(op, SEED, 20)
        gstar = square_function_operator("g_star", op, times, mu=MU)
        entries = {}
        for kind in ("s_h", "s_p", "S_H", "S_P"):
            T = square_function_operator(kind, op, times)
            rep = check_pointwise_domination(T, gstar, fam)
            entries[kind] = rep.sup_ratio
            excluded_ok &= rep.excluded_fraction < 0.01
        sups[n] = entries
    finite = all(np.isfinite(v) and v > 0
                 for entries in sups.values() for v in entries.values())
    worst_change = max(max(sups[256][k] / sups[128][k], sups[128][k] / sups[256][k])
                       for k in sups[128])
    ok = finite and excluded_ok and worst_change < 2.0
    _report("pointwise-g-star-domination", ok,
            f"Tf <= C g*_{MU} f with fitted C per operator; exclusion < 1%; "
            f"worst doubling change {worst_change:.3f}x (< 2x)",
            time.perf_counter() - start, 180.0)


def test_operator_norm_growth_in_p(torus_pair):
    start = time.perf_counter()
    op = torus_pair[128]
    times = _cone_times(op)
    fam = resolved_family(op, SEED, 20)
    T = square_function_operator("s_h", op, times)
    fit = check_growth_in_p(T, fam, [2.0, 4.0, 8.0, 16.0, 32.0])
    ok = fit.fitted_exponent <= 0.65
    _report("operator-norm-growth-in-p", ok,
            f"log-log slope of ||s_h||_p over p in {{2,...,32}} is "
            f"{fit.fitted_exponent:.3f} (<= 0.65)",
            time.perf_counter() - start, 300.0)


def test_ap_growth_and_majorant(torus_pair):
    start = time.perf_counter()
    op = torus_pair[128]
    times = _cone_times(op)
    fam = resolved_family(op, SEED, 20)
    T = square_function_operator("s_h", op, times)
    bounds = {1.0: 0.5, 2.0: 2.0, 3.0: 1.0}  # max{1/2, 1/(p-1)} + 1/(p-1)
    slopes = {}
    ok_slopes = True
    for p, bound in bounds.items():
        weights = power_weight_family(op.grid, p)
        fit = check_growth_in_ap(T, fam, weights, p)
        slopes[p] = fit.fitted_exponent
        ok_slopes &= fit.fitted_exponent <= bound + 0.2
    ok_rdf = True
    mnorm = empirical_maximal_norm(op.grid, 2.0)
    for s in range(SEED, SEED + 10):
        rng = np.random.default_rng(s)
        phi = GridFunction(op.grid, np.abs(rng.standard_normal(op.grid.shape)))
        cert = rubio_de_francia(phi, 2.0, maximal_norm=mnorm)
        ok_rdf &= bool(np.all(cert.weight.values >= np.abs(phi.values) - 1e-12))
        ok_rdf &= cert.norm_ratio <= 2.0 and cert.a1_ratio <= 2.0 * cert.maximal_norm
    ok = ok_slopes and ok_rdf
    detail = ", ".join(f"p={p:g}: slope {slopes[p]:.3f} <= {b + 0.2:g}"
                       for p, b in bounds.items())
    _report("ap-growth-and-majorant", ok,
            detail + f"; majorant certificate on 10 seeds: {ok_rdf}",
            time.perf_counter() - start, 600.0)


def test_sharp_maximal_bounds(torus_pair):
    start = time.perf_counter()
    sups = {}
    for n, op in torus_pair.items():
        times = _cone_times(op)
        fam = resolved_family(op, SEED, 10, shapes=("band", "bump", "packet"))
        ws = weight_suite(op.grid, WEIGHT_SEED)[:3]
        gstar = square_function_operator("g_star", op, times, mu=MU)
        dom = check_sharp_maximal_domination(gstar, fam, 0.25)
        comp = check_sharp_composite(fam, ws, 4.0, 0.25)
        sups[n] = {"domination": dom.sup_ratio, "composite": comp.sup_ratio}
    finite = all(np.isfinite(v) and v > 0
                 for entries in sups.values() for v in entries.values())
    worst_change = max(max(sups[256][k] / sups[128][k], sups[128][k] / sups[256][k])
                       for k in sups[128])
    ok = finite and worst_change < 2.0
    _report("sharp-maximal-bounds", ok,
            f"M#((g* f)^2) <= C (Mf)^2 and the gamma = max{{1/2, 1/(p-1)}} "
            f"composite bound finite; worst doubling change {worst_change:.3f}x "
            f"(< 2x)",
            time.perf_counter() - start, 300.0)


def test_hermite_spectral_identity(hermite_pair):
    start = time.perf_counter()
    op = hermite_pair[256]
    times = _identity_times(op)
    fam = band_limited_family(op, times, SEED, 20)
    rep = check_spectral_identity(op, fam, times)
    lo, hi = min(rep.ratios), max(rep.ratios)
    ok = 0.98 <= lo and hi <= 1.02
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    _report("hermite-spectral-identity", ok,
            f"ratios in [{lo:.5f}, {hi:.5f}], required [0.98, 1.02]",
            elapsed, 600.0)


def test_hermite_plancherel(hermite_pair):
    start = time.perf_counter()
    op = hermite_pair[256]
    cone_times = _cone_times(op, per_octave=12)
    fam_cone = band_limited_family(op, cone_times, SEED, 20, capture=0.97)
    cone = ConeQuadrature(op.grid, cone_times)
    rs = [lp_norm(area_integral("s_h", f, op, cone), 2) / lp_norm(f, 2)
          for f in fam_cone.members]
    ident_times = _identity_times(op)
    fam_fine = band_limited_family(op, ident_times, SEED, 20)
    rg = [lp_norm(g_function("g_h", f, op, ident_times), 2) / lp_norm(f, 2)
          for f in fam_fine.members]
    kap = kappa(square_symbol("s_h"))
    ok = (max(abs(v - 0.5) for v in rs) <= 0.5 * 0.05
          and max(abs(v - kap) for v in rg) <= kap * 0.02)
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    _report("hermite-plancherel", ok,
            f"s_h in [{min(rs):.4f}, {max(rs):.4f}] (0.5 +- 5%), "
            f"g_h in [{min(rg):.5f}, {max(rg):.5f}] (kappa={kap:.5f} +- 2%)",
            elapsed, 600.0)


def test_hermite_finite_propagation(hermite_pair):
    # supp cos(t sqrt L) f lies in supp f + B(0, t), so the leak is counted
    # beyond t + r + 4h, where r is the sampled source's support radius
    # (mass beyond r below 1e-9, a thousandth of the tolerance).  The
    # propagator acts on the band-held part of the source; what the 128
    # modes drop spreads over the whole band and reads as leak at every t,
    # so the source must be held to within the tolerance as well.  The
    # steps stop where t + r + 4h reaches the top mode's turning point,
    # beyond which no in-band function holds mass.
    start = time.perf_counter()
    worst = 0.0
    worst_residual = 0.0
    parts = []
    for n, op in hermite_pair.items():
        g = op.grid
        h = g.spacing
        x = g.axis_coords()
        source = np.exp(-(x**2) / (2 * 0.35**2))
        residual = _band_residual(op, source)
        radius = _source_radius(g, source, 1e-9)
        turning = float(np.max(op.spectral_nodes()))
        last = int((turning - radius - 4.0 * h) / h)
        steps = np.linspace(6, min(100, last), 10).astype(int)
        leak = propagation_leak(op, GridFunction(g, source), steps, radius)
        worst = max(worst, leak)
        worst_residual = max(worst_residual, residual)
        parts.append(f"N={n}: r={radius / h:.0f}h, t<={steps[-1]}h, {leak:.3g}")
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    _report("hermite-finite-propagation", worst < 1e-6 and worst_residual < 1e-6,
            f"worst mass outside t + r + 4h is {worst:.3g} "
            f"({'; '.join(parts)}), band residual {worst_residual:.3g}, "
            f"both required < 1e-6",
            elapsed, 600.0)


def test_hermite_weighted_l2(hermite_pair):
    start = time.perf_counter()
    reports = {n: _weighted_l2_suite(op) for n, op in hermite_pair.items()}
    worst_change = 0.0
    finite = True
    for kind in KINDS:
        a = reports[256][kind].sup_ratio
        b = reports[512][kind].sup_ratio
        finite &= np.isfinite(a) and np.isfinite(b) and a > 0 and b > 0
        worst_change = max(worst_change, b / a, a / b)
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    total = sum(_hermite_elapsed)
    ok = finite and worst_change < 2.0 and total < 600.0
    _report("hermite-weighted-l2", ok,
            f"sup ratios finite for {len(KINDS)} operators; worst doubling "
            f"change {worst_change:.3f}x (< 2x); cross-model group total "
            f"{total:.0f}s (< 600s)",
            elapsed, 600.0)
