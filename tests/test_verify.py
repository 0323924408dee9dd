import warnings

import numpy as np
import pytest

from sqfn.errors import BandError, ParameterError, ResolutionError
from sqfn.grid import Grid, GridFunction, Weight, weighted_lp_norm
from sqfn.spectral import LaplacianTorus
from sqfn.squarefuncs import ConeQuadrature, TimeGrid, area_integral, g_function
from sqfn.weights import local_sharp_maximal, maximal
from sqfn.verify import (Doubling, GrowthFit, RatioReport, _maximals,
                         band_limited_family, check_growth_in_ap, check_growth_in_p,
                         check_lp_range, check_pointwise_domination, check_sharp_composite,
                         check_sharp_maximal_domination, check_spectral_identity,
                         check_weak_1_1, check_weighted_l2_mw, default_operator, doubling,
                         mixed_family, power_weight_family, propagation_leak, resolved_family,
                         square_function_operator, weight_suite)


@pytest.fixture(scope="module")
def torus():
    return LaplacianTorus(Grid(1, 128, 1.0))


def test_ratio_report_invariants():
    rep = RatioReport("demo", (0.5, 2.0, 1.0))
    assert rep.sup_ratio == 2.0
    assert rep.witness == 1
    empty = RatioReport("empty", ())
    assert empty.sup_ratio == 0.0
    assert empty.witness == -1
    overflow = RatioReport("overflow", (1.0, np.inf))
    assert overflow.sup_ratio == np.inf
    assert overflow.witness == 1
    for bad in ((1.0, np.nan), (-0.5,)):
        with pytest.raises(ParameterError):
            RatioReport("bad", bad)


def test_growth_fit_recovers_planted_slope():
    x = np.geomspace(1.0, 100.0, 6)
    y = 3.0 * x**0.4
    fit = GrowthFit("demo", tuple(x), tuple(y), 0.5, 0.05)
    assert fit.fitted_exponent == pytest.approx(0.4, abs=1e-10)
    assert fit.passed
    steep = GrowthFit("demo", tuple(x), tuple(3.0 * x**0.7), 0.5, 0.05)
    assert not steep.passed


def _planted(at_n, at_2n):
    """A measure that reads at_n at N = 8 and at_2n at N = 16."""
    return lambda n: {8: at_n, 16: at_2n}[n]


def test_doubling_gate_is_strict_at_the_factor():
    assert Doubling.factor == 2.0
    gate = doubling(_planted({"a": 1.0, "b": 3.0}, {"a": 1.99, "b": 3.0}), 8)
    assert gate.passed and gate.worst_change == 1.99
    assert (gate.at_n, gate.at_2n) == ({"a": 1.0, "b": 3.0}, {"a": 1.99, "b": 3.0})
    shrink = doubling(_planted({"a": 1.99}, {"a": 1.0}), 8)
    assert shrink.passed and shrink.worst_change == 1.99
    for at_2n in ({"a": 2.0}, {"a": 0.5}):
        gate = doubling(_planted({"a": 1.0}, at_2n), 8)
        assert not gate.passed and gate.worst_change == 2.0


def test_doubling_worst_change_is_the_largest_over_tags():
    gate = doubling(_planted({"a": 1.0, "b": 4.0, "c": 2.0}, {"a": 1.5, "b": 2.5, "c": 2.0}), 8)
    assert gate.worst_change == max(1.5, 4.0 / 2.5, 1.0)
    assert gate.passed


@pytest.mark.parametrize("at_n, at_2n", [
    ({"a": 0.0}, {"a": 1.0}),
    ({"a": 1.0}, {"a": 0.0}),
    ({"a": -1.0}, {"a": -1.0}),
    ({"a": 1.0}, {"a": np.nan}),
    ({"a": np.float64(np.nan)}, {"a": np.float64(1.0)}),
    ({"a": np.inf}, {"a": np.inf}),
    ({"a": 1.0, "b": 1.0}, {"a": 1.0}),
    ({"a": 1.0}, {"a": 1.0, "b": 1.0}),
    ({}, {}),
    ({"a": np.float64(1e-300)}, {"a": np.float64(1e300)}),
], ids=["zero-at-n", "zero-at-2n", "negative", "nan", "numpy-nan", "inf",
        "missing-at-2n", "missing-at-n", "empty", "overflow"])
def test_doubling_fails_on_an_invalid_value_without_raising(at_n, at_2n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gate = doubling(_planted(at_n, at_2n), 8)
    assert not gate.passed
    assert gate.worst_change == np.inf


def test_growth_fit_guards():
    with pytest.raises(ParameterError):
        GrowthFit("few", (1.0, 2.0, 3.0), (1.0, 1.0, 1.0), 0.5, 0.1)
    with pytest.raises(ParameterError):
        GrowthFit("narrow", (1.0, 1.1, 1.2, 1.3), (1.0,) * 4, 0.5, 0.1)
    # a zero or NaN point would give a NaN slope, not a refusal
    with pytest.raises(ParameterError, match="finite positive y_values"):
        GrowthFit("zero", (1.0, 2.0, 4.0, 8.0), (1.0, 0.0, 1.0, 1.0), 0.5, 0.1)
    with pytest.raises(ParameterError, match="finite positive y_values"):
        GrowthFit("nan", (1.0, 2.0, 4.0, 8.0), (1.0, np.nan, 1.0, 1.0), 0.5, 0.1)
    with pytest.raises(ParameterError, match="finite positive x_values"):
        GrowthFit("zero-x", (0.0, 2.0, 4.0, 8.0), (1.0,) * 4, 0.5, 0.1)


def test_mixed_family_stable_across_resolution():
    """Band, bump and packet members describe the same continuum function
    on every grid at or above 128 points."""
    fam_lo = mixed_family(Grid(1, 128, 1.0), seed=7, count=8,
                          shapes=("band", "bump", "packet"))
    fam_hi = mixed_family(Grid(1, 256, 1.0), seed=7, count=8,
                          shapes=("band", "bump", "packet"))
    # compare on the shared coarse lattice after normalizing there (the
    # band synthesis carries an FFT 1/n scale)
    for lo, hi in zip(fam_lo.members, fam_hi.members):
        a = lo.values.real
        b = hi.values.real[::2]
        a = a / np.sqrt(np.sum(a**2))
        b = b / np.sqrt(np.sum(b**2))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_propagation_leak_refuses_a_zero_source(torus):
    zero = GridFunction(torus.grid, np.zeros(torus.grid.shape))
    with pytest.raises(ParameterError, match="not zero"):
        propagation_leak(torus, zero, (1, 2), 0.0)


def _delta_and_run_steps(n):
    """The 1-D torus at N with a delta at the origin, and sqfn run's steps."""
    op = LaplacianTorus(Grid(1, n, 1.0))
    vals = np.zeros(n)
    vals[n // 2] = 1.0
    return op, GridFunction(op.grid, vals), np.linspace(6, min(100, int(0.8 * n // 2)), 10).astype(int)


@pytest.mark.parametrize("n, empty", [(8, False), (16, False), (128, True)])
def test_propagation_leak_refuses_steps_that_measure_nothing(n, empty):
    """At N = 8 and 16 every one of sqfn run's steps reaches t + 4h >= R,
    the grid's largest distance, and an empty step set reaches nowhere: a
    ResolutionError naming the least reach and that distance."""
    op, f, steps = _delta_and_run_steps(n)
    reach = np.inf if empty else (min(steps) + 4) * op.grid.spacing
    with pytest.raises(ResolutionError, match=f"least reach t \\+ radius \\+ halo = {reach:g}; "
                                              "the grid's largest distance is 1$"):
        propagation_leak(op, f, [] if empty else steps, 0.0)


def test_propagation_leak_measures_once_a_step_leaves_points_beyond_it():
    """At N = 32 the longest of sqfn run's steps reaches R, but the shorter
    ones leave points beyond their reach, so the leak is measured."""
    op, f, steps = _delta_and_run_steps(32)
    assert (max(steps) + 4) * op.grid.spacing == 1.0
    assert propagation_leak(op, f, steps, 0.0) < 1e-12


def test_mixed_family_rejects_zero_members():
    from sqfn.verify import TestFamily

    g = Grid(1, 64, 1.0)
    with pytest.raises(ParameterError):
        TestFamily((GridFunction(g, np.zeros(64)),))


def test_mixed_family_rejects_small_grids():
    """Below 32 points per axis the band and packet modes have no room:
    a ParameterError, not numpy's low >= high."""
    for grid in (Grid(1, 8, 1.0), Grid(1, 16, 1.0), Grid(2, 16, 1.0)):
        with pytest.raises(ParameterError, match="32 points"):
            mixed_family(grid, seed=0, count=4)
    fam = mixed_family(Grid(1, 32, 1.0), seed=0, count=8)
    assert len(fam.members) == 8


def test_mixed_family_support_fraction():
    g = Grid(1, 128, 1.0)
    fam = mixed_family(g, seed=3, count=8, support_fraction=0.5)
    x = g.axis_coords()
    for f in fam.members:
        assert np.all(np.abs(f.values[np.abs(x) > 0.5]) == 0.0)


def _spike_positions(fam, grid):
    x = grid.axis_coords()
    return [float(x[np.argmax(np.abs(f.values))]) for f in fam.members]


def test_mixed_family_refuses_a_windowed_out_spike():
    """A spike outside the support window is refused with its index, not
    replaced by a centre spike: at seed 3 the second spike sits at -0.4375,
    past the window |x| <= 0.3."""
    g = Grid(1, 64, 1.0)
    at = _spike_positions(mixed_family(g, seed=3, count=2, shapes=("spike",)), g)
    assert abs(at[0]) <= 0.3 < abs(at[1])
    with pytest.raises(ParameterError, match="member 1 is the zero function"):
        mixed_family(g, seed=3, count=2, support_fraction=0.3, shapes=("spike",))


def test_resolved_family_refuses_a_band_zeroed_member():
    """An oscillator spike where every sampled eigenfunction underflows to 0
    (|x| > 38.6) is refused with its index, not replaced by the ground state:
    at seed 9 on R = 160 the second spike sits at x = 59."""
    op = default_operator("hermite", Grid(1, 1024, 160.0), truncation=32)
    at = _spike_positions(mixed_family(op.grid, seed=9, count=2, shapes=("spike",)), op.grid)
    assert abs(at[0]) < 20.0 and abs(at[1]) > 38.6
    with pytest.raises(ParameterError, match="member 1 is the zero function"):
        resolved_family(op, seed=9, count=2, shapes=("spike",))


def test_resolved_family_on_the_torus_is_the_mixed_family(torus):
    """The torus grid is its own band: resolved members are the mixed ones, bit for bit."""
    mixed = mixed_family(torus.grid, seed=7, count=8)
    resolved = resolved_family(torus, seed=7, count=8)
    for a, b in zip(mixed.members, resolved.members, strict=True):
        np.testing.assert_array_equal(a.values, b.values)


def test_resolved_family_hermite_members_are_in_band():
    op = default_operator("hermite", Grid(1, 256, 22.5))
    fam = resolved_family(op, seed=1, count=8)
    for f in fam.members:
        op.coefficients(f)  # must not raise the tail guard


def test_band_limited_family_identity_sharp(torus):
    """Members built from fully captured modes make the square-function
    identity exact to the capture tolerance."""
    g = torus.grid
    times = TimeGrid.geometric(g.spacing / 8, g.half_width**2 / 4.0, 12)
    fam = band_limited_family(torus, times, seed=2, count=6)
    g_h = square_function_operator("g_h", torus, times)
    rep = check_spectral_identity([g_h(f) for f in fam.members], fam)
    assert 0.98 <= min(rep.ratios) and rep.sup_ratio <= 1.02


def test_spectral_identity_refuses_an_over_budget_grid(torus):
    """The identity's g_h comes from the factory, so a time grid past the
    trust budget R^2/4 is refused, as g_function refuses it."""
    big = TimeGrid(torus.grid.half_width**2, 2.0, 3)
    with pytest.raises(ParameterError, match="exceeds the trust budget"):
        square_function_operator("g_h", torus, big)


def test_band_limited_family_raises_without_capture(torus):
    tiny = TimeGrid(1e-6, 2.0, 2)
    with pytest.raises(BandError):
        band_limited_family(torus, tiny, seed=0)


def test_weight_suite_shapes():
    g = Grid(1, 64, 1.0)
    suite = weight_suite(g, seed=0)
    assert len(suite) == 5
    assert np.all(suite[0].values == 1.0)
    for w in suite:
        assert np.min(w.values) > 0


def test_power_weight_family_spans_decade():
    from sqfn.weights import ap_constant

    g = Grid(1, 128, 1.0)
    for p in (1.0, 2.0, 3.0):
        fam = power_weight_family(g, p)
        cs = [ap_constant(w, p).constant for w in fam]
        assert max(cs) / min(cs) >= 10.0
    with pytest.raises(ParameterError):
        power_weight_family(Grid(2, 32, 1.0), 2.0)


def test_lp_range_p2_bit_identical_to_weighted_l2(torus):
    g = torus.grid
    fam = mixed_family(g, seed=7, count=8)
    weights = weight_suite(g, seed=107)[:3]
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0, 8)
    T = square_function_operator("s_h", torus, times)
    images = [T(f) for f in fam.members]
    a = check_weighted_l2_mw(images, fam, weights)
    b = check_lp_range(images, fam, weights, 2.0)
    assert a.ratios == b.ratios


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_maximals_equal_maximal_of_each(dim):
    """The one stacked M call the weighted checks make gives maximal's bits
    for every weight and family member (complex members included)."""
    g = Grid(dim, 32, 1.0)
    fam = mixed_family(g, seed=3, count=6)
    ws = weight_suite(g, seed=103)
    for items in (ws, list(fam.members)):
        for item, mv in zip(items, _maximals(items), strict=True):
            base = getattr(item, "base", item)
            assert np.array_equal(mv, maximal(base).values.real)
    assert _maximals([]) == []


def test_weighted_checks_with_no_weight_give_an_empty_report(torus):
    g = torus.grid
    fam = mixed_family(g, seed=7, count=4)
    images = list(fam.members)
    for rep in (check_weighted_l2_mw(images, fam, []), check_weak_1_1(images, fam, []),
                check_lp_range(images, fam, [], 3.0), check_sharp_composite(fam, [], 4.0)):
        assert (rep.ratios, rep.skipped) == ((), 0)


def test_lp_range_rejects_p_one(torus):
    g = torus.grid
    fam = mixed_family(g, seed=0, count=4)
    with pytest.raises(ParameterError):
        check_lp_range(list(fam.members), fam, weight_suite(g, 0)[:1], 1.0)


def test_square_function_operator_kinds(torus):
    """All nine kinds build and run; names without the underscore are not
    kinds; g* needs mu > 1; area_integral and g_function reject the other
    family."""
    g = torus.grid
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0, 6)
    f = mixed_family(g, seed=5, count=1).members[0]
    area, pointwise = ("s_h", "s_p", "S_H", "S_P"), ("g_h", "g_p", "G_H", "G_P")
    for kind in area + pointwise + ("g_star",):
        out = square_function_operator(kind, torus, times)(f).values
        assert np.all(np.isfinite(out.real)) and np.max(out.real) > 0, kind
    for bad in ("nope", "gstar", "S_H-scalar", "sh", "SP"):
        with pytest.raises(ParameterError, match="unknown square-function kind"):
            square_function_operator(bad, torus, times)
    for mu in (1.0, 0.5, -2.0):
        with pytest.raises(ParameterError, match="mu must exceed 1"):
            square_function_operator("g_star", torus, times, mu=mu)
    cone = ConeQuadrature(g, times)
    for kind in pointwise + ("g_star",):
        with pytest.raises(ParameterError, match="is not one of"):
            area_integral(kind, f, torus, cone)
    for kind in area + ("g_star",):
        with pytest.raises(ParameterError, match="is not one of"):
            g_function(kind, f, torus, times)


def test_default_operator_names():
    assert isinstance(default_operator("laplacian", Grid(1, 64, 1.0)),
                      LaplacianTorus)
    with pytest.raises(ParameterError):
        default_operator("nope", Grid(1, 64, 1.0))


def _with_member(fam, images, member, image, at=3):
    """fam and its images with member (and its image) put in at index at."""
    from sqfn.verify import TestFamily

    members, images = list(fam.members), list(images)
    members.insert(at, member)
    images.insert(at, image)
    return TestFamily(tuple(members)), images


@pytest.fixture(scope="module")
def tiny_case(torus):
    """A family with s_h images, and the same with a member of size 1e-200
    put in: every power |f|^p, p >= 2, of that member underflows to 0."""
    g = torus.grid
    fam = mixed_family(g, seed=7, count=8)
    T = square_function_operator("s_h", torus, TimeGrid.geometric(g.spacing, 0.25, 8))
    images = [T(f) for f in fam.members]
    tiny = GridFunction(g, 1e-200 * fam.members[0].values)
    assert float(np.max(np.abs(tiny.values) ** 2)) == 0.0 != float(np.max(np.abs(tiny.values)))
    return (fam, images) + _with_member(fam, images, tiny, T(tiny))


def test_a_zero_denominator_is_skipped_once_per_pair(tiny_case):
    """The tiny member adds no ratio and counts once as skipped in
    spectral_identity, and once per weight in the weighted checks; the
    other ratios keep their order and bits."""
    fam, images, fam_t, images_t = tiny_case
    weights = weight_suite(fam.members[0].grid, seed=107)
    reports = [lambda f, i: check_spectral_identity(i, f),
               lambda f, i: check_weighted_l2_mw(i, f, weights),
               lambda f, i: check_lp_range(i, f, weights, 2.0),
               lambda f, i: check_lp_range(i, f, weights, 4.0)]
    for check, per_pair in zip(reports, (1, len(weights), len(weights), len(weights))):
        base, rep = check(fam, images), check(fam_t, images_t)
        assert base.skipped == 0 and rep.skipped == per_pair, rep.inequality_tag
        assert rep.ratios == base.ratios, rep.inequality_tag


def test_growth_fits_ignore_a_member_with_a_zero_denominator(tiny_case):
    fam, images, fam_t, images_t = tiny_case
    p_list = (2, 4, 8, 16)
    assert (check_growth_in_p(images_t, fam_t, p_list).y_values
            == check_growth_in_p(images, fam, p_list).y_values)
    for p in (1.0, 2.0):
        weights = power_weight_family(fam.members[0].grid, p)
        base, fit = check_growth_in_ap(images, fam, weights, p), check_growth_in_ap(
            images_t, fam_t, weights, p)
        assert (fit.x_values, fit.y_values) == (base.x_values, base.y_values), p


def test_sharp_composite_skips_a_constant_member_once_per_weight(torus):
    """M# |f|^2 of a constant f vanishes, so its denominator is 0 on every
    weight; the other ratios keep their (weight, member) order and bits."""
    g = torus.grid
    fam = mixed_family(g, seed=7, count=6)
    weights = weight_suite(g, seed=107)[:3]
    constant = GridFunction(g, np.full(g.shape, 0.5))
    with_constant, _ = _with_member(fam, fam.members, constant, constant)
    base = check_sharp_composite(fam, weights, 4.0)
    rep = check_sharp_composite(with_constant, weights, 4.0)
    assert (base.skipped, rep.skipped) == (0, len(weights))
    assert rep.ratios == base.ratios


def test_weak_1_1_gives_an_image_zero_everywhere_no_level(tiny_case):
    """A member whose image is zero everywhere has no level: it adds no
    ratio and is not skipped, and the other ratios keep their bits."""
    fam, images, _, _ = tiny_case
    g = fam.members[0].grid
    weights = weight_suite(g, seed=107)
    fam_z, images_z = _with_member(fam, images, fam.members[0], GridFunction(g, np.zeros(g.shape)))
    base, rep = check_weak_1_1(images, fam, weights), check_weak_1_1(images_z, fam_z, weights)
    assert (base.skipped, rep.skipped) == (0, 0)
    assert rep.ratios == base.ratios


def test_weak_1_1_skips_a_zero_denominator_once_per_level(tiny_case):
    """A member whose one nonzero sample is the least subnormal has
    int |f| Mw = 0 on every weight: paired with a nonzero image it is
    skipped at each of its six levels per weight, and the other ratios
    keep their bits."""
    fam, images, _, _ = tiny_case
    g = fam.members[0].grid
    weights = weight_suite(g, seed=107)
    vals = np.zeros(g.shape)
    vals[g.points_per_axis // 2] = 5e-324
    least = GridFunction(g, vals)
    assert all(weighted_lp_norm(least, Weight(GridFunction(g, mw)), 1) == 0.0
               for mw in _maximals(weights))
    fam_l, images_l = _with_member(fam, images, least, images[0])
    base, rep = check_weak_1_1(images, fam, weights), check_weak_1_1(images_l, fam_l, weights)
    assert (base.skipped, rep.skipped) == (0, 6 * len(weights))
    assert rep.ratios == base.ratios


@pytest.fixture(scope="module")
def gstar_images(torus, tiny_case):
    """g*_mu images of tiny_case's base family, in member order."""
    g = torus.grid
    G = square_function_operator("g_star", torus, TimeGrid.geometric(g.spacing, 0.25, 8), mu=3.5)
    return [G(f) for f in tiny_case[0].members]


def test_pointwise_domination_skips_a_zero_g_star_image_once(tiny_case, gstar_images):
    """A member whose g* image is zero everywhere adds no ratio and counts
    once as skipped; the other ratios keep their bits."""
    fam, images, _, _ = tiny_case
    g = fam.members[0].grid
    fam_z, images_z = _with_member(fam, images, fam.members[0], images[0])
    _, gstar_z = _with_member(fam, gstar_images, fam.members[0], GridFunction(g, np.zeros(g.shape)))
    base = check_pointwise_domination(images, gstar_images, fam)
    rep = check_pointwise_domination(images_z, gstar_z, fam_z)
    assert (base.skipped, rep.skipped) == (0, 1)
    assert rep.ratios == base.ratios
    assert rep.excluded_fraction == base.excluded_fraction == 0.0


def test_pointwise_domination_excludes_the_points_below_the_floor(tiny_case, gstar_images):
    """Points where g* f is at most 1e-14 of its max add nothing to the
    ratio and count toward excluded_fraction, over every member's points."""
    fam, images, _, _ = tiny_case
    g = fam.members[0].grid
    half = gstar_images[0].values.real.copy()
    cut = half.size // 2
    half[:cut] = 1e-15 * np.max(half)
    rep = check_pointwise_domination(images, [GridFunction(g, half)] + gstar_images[1:], fam)
    base = check_pointwise_domination(images, gstar_images, fam)
    assert rep.ratios[0] == float(np.max(np.abs(images[0].values)[cut:] / half[cut:]))
    assert rep.ratios[1:] == base.ratios[1:]
    assert rep.excluded_fraction == cut / (half.size * len(fam.members))


def test_sharp_maximal_ratios_are_the_max_over_all_points(tiny_case, gstar_images):
    """On a torus family no point of (Mf)^2 is at the floor: each ratio is
    the max of M#((g* f)^2) / (Mf)^2 over every point."""
    fam = tiny_case[0]
    rep = check_sharp_maximal_domination(gstar_images, fam, 0.25)
    expected = tuple(
        float(np.max(local_sharp_maximal(GridFunction(f.grid, gf.values.real**2), 0.25).values.real
                     / maximal(f).values.real**2))
        for f, gf in zip(fam.members, gstar_images, strict=True))
    assert rep.ratios == expected
    assert (rep.skipped, rep.excluded_fraction) == (0, 0.0)
