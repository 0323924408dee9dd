import numpy as np
import pytest

from sqfn.errors import BandError, ParameterError
from sqfn.grid import Grid, GridFunction
from sqfn.spectral import LaplacianTorus
from sqfn.squarefuncs import ConeQuadrature, TimeGrid, area_integral, g_function
from sqfn.weights import maximal
from sqfn.verify import (GrowthFit, RatioReport, _maximals, band_limited_family,
                         check_lp_range, check_sharp_composite, check_spectral_identity,
                         check_weak_1_1, check_weighted_l2_mw, default_operator, mixed_family,
                         power_weight_family, resolved_family,
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
    with pytest.raises(ParameterError):
        RatioReport("bad", (1.0, np.inf))
    with pytest.raises(ParameterError):
        RatioReport("bad", (-0.5,))


def test_growth_fit_recovers_planted_slope():
    x = np.geomspace(1.0, 100.0, 6)
    y = 3.0 * x**0.4
    fit = GrowthFit("demo", tuple(x), tuple(y), 0.5, 0.05)
    assert fit.fitted_exponent == pytest.approx(0.4, abs=1e-10)
    assert fit.passed
    steep = GrowthFit("demo", tuple(x), tuple(3.0 * x**0.7), 0.5, 0.05)
    assert not steep.passed


def test_growth_fit_guards():
    with pytest.raises(ParameterError):
        GrowthFit("few", (1.0, 2.0, 3.0), (1.0, 1.0, 1.0), 0.5, 0.1)
    with pytest.raises(ParameterError):
        GrowthFit("narrow", (1.0, 1.1, 1.2, 1.3), (1.0,) * 4, 0.5, 0.1)


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
    rep = check_spectral_identity(torus, fam, times)
    assert 0.98 <= min(rep.ratios) and rep.sup_ratio <= 1.02


def test_spectral_identity_refuses_an_over_budget_grid(torus):
    """The identity's g_h comes from the factory, so a time grid past the
    trust budget R^2/4 is refused, as g_function refuses it."""
    g = torus.grid
    fam = mixed_family(g, seed=0, count=1)
    big = TimeGrid(g.half_width**2, 2.0, 3)
    with pytest.raises(ParameterError, match="exceeds the trust budget"):
        check_spectral_identity(torus, fam, big)


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
    a = check_weighted_l2_mw(T, fam, weights)
    b = check_lp_range(T, fam, weights, 2.0)
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
    T = lambda f: f  # noqa: E731
    for rep in (check_weighted_l2_mw(T, fam, []), check_weak_1_1(T, fam, []),
                check_lp_range(T, fam, [], 3.0), check_sharp_composite(fam, [], 4.0)):
        assert (rep.ratios, rep.skipped) == ((), 0)


def test_lp_range_rejects_p_one(torus):
    g = torus.grid
    fam = mixed_family(g, seed=0, count=4)
    with pytest.raises(ParameterError):
        check_lp_range(lambda f: f, fam, weight_suite(g, 0)[:1], 1.0)


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
