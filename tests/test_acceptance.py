"""End-to-end acceptance gate for the inequality laboratory.

Every test certifies one headline property with pinned tolerances and a
runtime budget, prints a single PASS/FAIL line, and never loosens a
bound to accommodate the measurement.  A property gates the records that
``sqfn run`` writes: it runs the check's runner from ``cli._CHECKS`` on a
``cli._Plan``, which builds the configured operator, so time grids,
square functions, families, weights and tolerances are the CLI's own.  A
sup-ratio record only says that its sup is finite, so those properties also
pass the record values at N and 2N through ``verify.doubling``.  Finite propagation on the
oscillator is measured beyond the source's own support widened by t, as
the theorem states it, so that a source's width is not charged to the
propagator.
"""

import functools
import time

import numpy as np

from sqfn import constants
from sqfn.cli import _CHECKS, _Plan, parse_config
from sqfn.grid import GridFunction
from sqfn.multipliers import kappa, square_symbol
from sqfn.verify import check_lp_range, check_weighted_l2_mw, doubling, propagation_leak

FINE = {"times.per_octave": "12"}

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


@functools.cache
def _plan(name, n, settings=()):
    """The plan sqfn run makes for operator name at N = n with the (key,
    value) pairs of settings, made once: checks on it share its operator,
    square functions, the family, its images and the weights."""
    return _Plan(parse_config(None, {"operator.name": name, "operator.n": str(n),
                                     **dict(settings)}))


def _records(tag, name, n, settings=None):
    """The records sqfn run writes for check tag on operator name at N = n."""
    return _CHECKS[tag]["runner"](_plan(name, n, tuple(sorted((settings or {}).items()))))


def _doubling(tag, name, n):
    """verify.doubling on the values of check tag's records at N = n and 2n,
    and whether every one of those records passed on its own."""
    records = []

    def measure(m):
        recs = _records(tag, name, m)
        records.extend(recs)
        return {rec["tag"]: rec["value"] for rec in recs}

    gate = doubling(measure, n)
    return gate, all(rec["passed"] for rec in records)


def _identity_line(rec):
    return (f"ratios in [{rec['low']:.5f}, {rec['value']:.5f}], "
            f"required [{1 - constants.IDENTITY_RTOL:g}, {rec['bound']:g}]")


def _plancherel_line(records):
    s_h, g_h = records
    kap = kappa(square_symbol("s_h"))
    return (f"s_h in [{s_h['low']:.4f}, {s_h['value']:.4f}] "
            f"(0.5 +- {constants.AREA_PLANCHEREL_RTOL:.0%}), "
            f"g_h in [{g_h['low']:.5f}, {g_h['value']:.5f}] "
            f"(kappa={kap:.5f} +- {constants.IDENTITY_RTOL:.0%})")


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


def test_spectral_identity_torus():
    start = time.perf_counter()
    (rec,) = _records("spectral_identity", "laplacian", 256, FINE)
    _report("spectral-identity", rec["passed"], _identity_line(rec),
            time.perf_counter() - start, 10.0)


def test_plancherel_ratios_torus():
    start = time.perf_counter()
    records = _records("plancherel", "laplacian", 256, FINE)
    _report("plancherel-ratios", all(rec["passed"] for rec in records),
            _plancherel_line(records), time.perf_counter() - start, 30.0)


def test_finite_propagation_torus():
    start = time.perf_counter()
    (rec,) = _records("finite_propagation", "laplacian", 256)
    _report("finite-propagation", rec["passed"],
            f"worst mass outside t + 4h is {rec['value']:.3g}, required < "
            f"{rec['bound']:g} over 10 times",
            time.perf_counter() - start, 20.0)


def test_kernel_bound_sweeps():
    start = time.perf_counter()
    records = _records("kernel_bounds", "laplacian", 128)
    (leak,) = [rec for rec in records if "support_violation_mass" in rec]
    _report("kernel-bound-sweeps", all(rec["passed"] for rec in records),
            f"worst constant variation {max(rec['value'] for rec in records):.3f} "
            f"(< {constants.KERNEL_FIT_VARIATION:.2f}), "
            f"support mass {leak['support_violation_mass']:.3g} "
            f"(< {constants.SUPPORT_LEAK_TOL:g})",
            time.perf_counter() - start, 120.0)


def test_whitney_cz_exactness():
    start = time.perf_counter()
    records = [rec for n in (128, 256) for rec in _records("whitney_cz", "laplacian", n)]
    coarse, fine = records
    low = min(rec["ratio_low"] for rec in records)
    high = max(rec["ratio_high"] for rec in records)
    drift = abs(fine["good_bound"] / coarse["good_bound"] - 1.0)
    ok = all(rec["passed"] for rec in records) and low >= 1.0 - 1e-12 and drift <= 0.25
    _report("whitney-cz-exactness", ok,
            f"exact covers at N = 128 and 256 with dist/diam in [{low:.3g}, {high:.3g}] "
            f"(required [1, 4]), reconstruction {max(rec['value'] for rec in records):.2g} "
            f"(<= {coarse['bound']:g}), good-bound constant drift {drift:.3f} under "
            f"doubling (<= 0.25)",
            time.perf_counter() - start, 60.0)


def test_weighted_l2_maximal_bound():
    start = time.perf_counter()
    gate, finite = _doubling("weighted_l2_mw", "laplacian", 128)
    _report("weighted-l2-maximal-bound", gate.passed and finite,
            f"sup of (Tf)^2 w over |f|^2 Mw finite for {len(gate.at_n)} operators "
            f"on the 20x5 suite; worst doubling change {gate.worst_change:.3f}x "
            f"(< {gate.factor:g}x)",
            time.perf_counter() - start, 300.0)


def test_weak_and_lp_bounds():
    start = time.perf_counter()
    gate, finite = _doubling("weak_lp", "laplacian", 128)
    bit_identical = True
    for n in (128, 256):
        plan = _plan("laplacian", n)
        images = plan.images("s_h")
        bit_identical &= (check_lp_range(images, plan.family, plan.weights, 2.0).ratios
                          == check_weighted_l2_mw(images, plan.family, plan.weights).ratios)
    _report("weak-and-lp-bounds", gate.passed and finite and bit_identical,
            f"weak (1,1) and p in {{1.5, 2, 4}} sup ratios finite; worst "
            f"doubling change {gate.worst_change:.3f}x (< {gate.factor:g}x); p = 2 "
            f"bit-identical to the weighted L2 formula: {bit_identical}",
            time.perf_counter() - start, 300.0)


def test_pointwise_g_star_domination():
    start = time.perf_counter()
    gate, passed = _doubling("pointwise_domination", "laplacian", 128)
    _report("pointwise-g-star-domination", gate.passed and passed,
            f"Tf <= C g*_{_plan('laplacian', 128).cfg['params.mu']} f with fitted C per "
            f"operator; exclusion < {constants.DOMINATION_EXCLUSION_MAX:.0%}; "
            f"worst doubling change {gate.worst_change:.3f}x (< {gate.factor:g}x)",
            time.perf_counter() - start, 180.0)


def test_operator_norm_growth_in_p():
    start = time.perf_counter()
    (rec,) = _records("growth_in_p", "laplacian", 128)
    _report("operator-norm-growth-in-p", rec["passed"],
            f"log-log slope of ||s_h||_p over p in {{2,...,32}} is "
            f"{rec['value']:.3f} (<= {rec['bound']:g})",
            time.perf_counter() - start, 300.0)


def test_ap_growth_and_majorant():
    start = time.perf_counter()
    fits = _records("growth_in_ap", "laplacian", 128)
    (rdf,) = _records("rubio_de_francia", "laplacian", 128)
    detail = ", ".join(f"p={rec['tag'].split('_p')[-1]}: slope {rec['value']:.3f} "
                       f"<= {rec['bound']:g}" for rec in fits)
    _report("ap-growth-and-majorant", all(rec["passed"] for rec in fits + [rdf]),
            detail + f"; majorant certificate on 10 seeds: {rdf['passed']}",
            time.perf_counter() - start, 600.0)


def test_sharp_maximal_bounds():
    start = time.perf_counter()
    gate, finite = _doubling("sharp_maximal", "laplacian", 128)
    _report("sharp-maximal-bounds", gate.passed and finite,
            f"M#((g* f)^2) <= C (Mf)^2 and the gamma = max{{1/2, 1/(p-1)}} "
            f"composite bound finite; worst doubling change {gate.worst_change:.3f}x "
            f"(< {gate.factor:g}x)",
            time.perf_counter() - start, 300.0)


def test_hermite_spectral_identity():
    start = time.perf_counter()
    (rec,) = _records("spectral_identity", "hermite", 256, FINE)
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    _report("hermite-spectral-identity", rec["passed"], _identity_line(rec), elapsed, 600.0)


def test_hermite_plancherel():
    start = time.perf_counter()
    records = _records("plancherel", "hermite", 256, FINE)
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    _report("hermite-plancherel", all(rec["passed"] for rec in records),
            _plancherel_line(records), elapsed, 600.0)


def test_hermite_finite_propagation():
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
    for n in (256, 512):
        op = _plan("hermite", n).op
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


def test_hermite_weighted_l2():
    start = time.perf_counter()
    gate, finite = _doubling("weighted_l2_mw", "hermite", 256)
    elapsed = time.perf_counter() - start
    _hermite_elapsed.append(elapsed)
    total = sum(_hermite_elapsed)
    _report("hermite-weighted-l2", gate.passed and finite and total < 600.0,
            f"sup ratios finite for {len(gate.at_n)} operators; worst doubling "
            f"change {gate.worst_change:.3f}x (< {gate.factor:g}x); cross-model "
            f"group total {total:.0f}s (< 600s)",
            elapsed, 600.0)
