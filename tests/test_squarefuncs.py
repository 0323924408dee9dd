import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfn.errors import ParameterError, ResolutionError
from sqfn.grid import Grid, GridFunction, lp_norm
from sqfn.multipliers import psi_vanishing
from sqfn.spectral import HermiteOscillator1D, LaplacianTorus
from sqfn.squarefuncs import (ConeQuadrature, TimeGrid, area_integral,
                              g_function, g_star)
from sqfn.verify import square_function_operator


@pytest.fixture(scope="module")
def torus():
    return LaplacianTorus(Grid(1, 128, 1.0))


def test_time_grid_nodes_and_weight():
    tg = TimeGrid(0.1, 2.0, 4)
    np.testing.assert_allclose(tg.nodes, [0.1, 0.2, 0.4, 0.8])
    assert tg.log_weight == pytest.approx(np.log(2.0))


def test_time_grid_geometric_covers_range():
    tg = TimeGrid.geometric(0.01, 1.0, per_octave=4)
    assert tg.nodes[0] == pytest.approx(0.01)
    assert tg.nodes[-1] >= 1.0


def test_time_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(-0.1, 2.0, 4)
    with pytest.raises(ParameterError):
        TimeGrid(0.1, 0.9, 4)
    with pytest.raises(ParameterError):
        TimeGrid.geometric(1.0, 0.5)


@pytest.mark.parametrize("per_octave", [0, -1])
def test_time_grid_geometric_rejects_per_octave_below_one(per_octave):
    with pytest.raises(ParameterError, match="per_octave"):
        TimeGrid.geometric(0.01, 1.0, per_octave)


def test_cone_needs_resolved_times(torus):
    g = torus.grid
    with pytest.raises(ResolutionError):
        ConeQuadrature(g, TimeGrid(g.spacing / 4, 2.0, 3))


def test_budget_guard(torus):
    g = torus.grid
    big = TimeGrid(g.half_width**2, 2.0, 3)  # beyond R^2/4
    f = GridFunction(g, np.ones(g.shape))
    with pytest.raises(ParameterError):
        g_function("g_h", f, torus, big)


def test_g_function_single_mode_oracle(torus):
    """For a single Fourier mode, g_h is spatially constant with value
    (sum_j |psi(t_j s)|^2 log-weight)^(1/2) |f|."""
    g = torus.grid
    m = 10
    x = g.axis_coords()
    f = GridFunction(g, np.cos(np.pi * m * x))
    times = TimeGrid.geometric(g.spacing / 8, g.half_width**2 / 4.0, 12)
    out = g_function("g_h", f, torus, times).values.real
    s = np.pi * m
    expected_sq = float(np.sum((times.nodes * s) ** 4
                               * np.exp(-2 * (times.nodes * s) ** 2))
                        * times.log_weight)
    expected = np.sqrt(expected_sq) * np.abs(f.values.real)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_area_integral_l2_contraction_identity(torus):
    """Ball-averaging preserves the L2 norm up to the dt/t quadrature:
    ||s_h f||_2^2 = v_1 * sum |psi(t s)|^2-mass, which for a captured
    mode gives the ratio (v_1 kappa^2)^(1/2) = 1/2."""
    g = torus.grid
    m = 5  # mid-band mode for the cone time range
    x = g.axis_coords()
    f = GridFunction(g, np.cos(np.pi * m * x))
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0, 12)
    cone = ConeQuadrature(g, times)
    ratio = lp_norm(area_integral("s_h", f, torus, cone), 2) / lp_norm(f, 2)
    assert ratio == pytest.approx(0.5, rel=0.05)


def test_area_kind_aliases(torus):
    g = torus.grid
    rng = np.random.default_rng(1)
    f = GridFunction(g, rng.standard_normal(g.shape))
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0)
    cone = ConeQuadrature(g, times)
    for bad in ("sh", "SP", "nope"):
        with pytest.raises(ParameterError, match="unknown square-function kind"):
            area_integral(bad, f, torus, cone)


def test_vertical_kinds_use_gradients(torus):
    g = torus.grid
    rng = np.random.default_rng(2)
    f = GridFunction(g, rng.standard_normal(g.shape))
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0)
    cone = ConeQuadrature(g, times)
    out = area_integral("S_H", f, torus, cone)
    assert np.all(out.values.real >= 0)
    assert np.max(out.values.real) > 0


def test_g_star_dominates_shrinks_with_mu(torus):
    """g* decreases pointwise as mu grows (the cone weight sharpens)."""
    g = torus.grid
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.shape))
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0)
    lo = g_star(f, torus, 3.5, times).values.real
    hi = g_star(f, torus, 4.5, times).values.real
    assert np.all(hi <= lo + 1e-12 * np.max(lo))


def test_g_star_requires_mu_above_one(torus):
    g = torus.grid
    f = GridFunction(g, np.ones(g.shape))
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0)
    with pytest.raises(ParameterError, match="mu must exceed 1"):
        g_star(f, torus, 0.5, times)


def test_area_integral_2d_runs():
    op = LaplacianTorus(Grid(2, 32, 1.0))
    g = op.grid
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    times = TimeGrid.geometric(g.spacing, g.half_width**2 / 4.0, 4)
    cone = ConeQuadrature(g, times)
    out = area_integral("s_h", f, op, cone)
    assert np.all(np.isfinite(out.values.real))


# ---------------------------------------------------------------------------
# The per-t loop as a brute-force oracle of the tabulate-once core
# ---------------------------------------------------------------------------

ORACLE_KINDS = ("s_h", "s_p", "S_H", "S_P", "g_h", "g_p", "G_H", "G_P", "g_star")
ORACLE_MU = 3.5
ORACLE_OPS = (
    LaplacianTorus(Grid(1, 16, 1.0)),
    LaplacianTorus(Grid(1, 32, 1.0)),
    LaplacianTorus(Grid(2, 16, 1.0)),
    HermiteOscillator1D(Grid(1, 128, 12.0), 32),
)
ORACLE_PSI = {1: psi_vanishing(1), 2: psi_vanishing(2)}


def _per_t_loop(kind, f, op, times):
    """The square function one time node at a time, from apply_function
    and gradient, with its own ball and g* kernels."""
    g = op.grid
    n = g.dim
    dist = g.distance_from_origin()
    dt = times.log_weight
    acc = np.zeros(g.shape)
    for t in map(float, times.nodes):
        if kind == "g_star":
            profile = lambda s: ORACLE_PSI[n](t * s)
        elif kind in ("s_h", "g_h"):
            profile = lambda s: (t * s) ** 2 * np.exp(-((t * s) ** 2))
        elif kind in ("s_p", "g_p"):
            profile = lambda s: (t * s) * np.exp(-(t * s))
        elif kind in ("S_H", "G_H"):
            profile = lambda s: np.exp(-((t * s) ** 2))
        else:
            profile = lambda s: np.exp(-t * s)
        u = op.apply_function(profile, f)
        if kind[0] in "SG":
            dens = t**2 * sum(np.abs(c.values) ** 2 for c in op.gradient(u))
        else:
            dens = np.abs(u.values) ** 2
        if kind[0] in "sS":
            kernel = (dist < t).astype(float)
        elif kind == "g_star":
            kernel = (t / (t + dist)) ** (n * ORACLE_MU)
        else:
            acc += dens * dt
            continue
        conv = np.fft.ifftn(np.fft.fftn(dens) * np.fft.fftn(kernel)).real
        acc += conv * g.cell_volume * dt / t**n
    return np.sqrt(np.maximum(acc, 0.0))


@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.0, 0.99),
       ratio=st.floats(1.1, 2.0), count=st.integers(1, 4))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_square_functions_match_per_t_loop(seed, offset, ratio, count):
    """Every kind on every operator agrees with the per-t loop to 1e-12."""
    rng = np.random.default_rng(seed)
    for op in ORACLE_OPS:
        g = op.grid
        if isinstance(op, HermiteOscillator1D):
            f = op.synthesize(rng.standard_normal(op.truncation))
        else:
            f = GridFunction(g, rng.standard_normal(g.shape))
        t_min = g.spacing * (1.0 + offset)
        fits = 1 + int(np.floor(np.log(op.t_max / t_min) / np.log(ratio)))
        times = TimeGrid(t_min, ratio, min(count, fits))
        for kind in ORACLE_KINDS:
            T = square_function_operator(kind, op, times, mu=ORACLE_MU)
            want = _per_t_loop(kind, f, op, times)
            got = T(f).values
            assert np.max(np.abs(got.imag)) == 0.0
            assert np.max(np.abs(got.real - want)) <= 1e-12 * np.max(want), (
                kind, g, times)

