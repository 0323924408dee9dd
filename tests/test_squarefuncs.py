import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfn import squarefuncs
from sqfn.errors import NonFiniteError, ParameterError, ResolutionError
from sqfn.grid import Grid, GridFunction, lp_norm
from sqfn.multipliers import psi_vanishing, square_symbol
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
    for t_min, t_max in ((0.01, np.inf), (1e-308, 1e308)):  # t_max / t_min overflows
        with pytest.raises(ParameterError, match="no finite node count"):
            TimeGrid.geometric(t_min, t_max)


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
    """The squared square function one time node at a time, from
    apply_function and gradient, with its own ball and g* kernels."""
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
    return acc


@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.0, 0.99),
       ratio=st.floats(1.1, 2.0), count=st.integers(1, 4))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_square_functions_match_per_t_loop(seed, offset, ratio, count):
    """Every kind on every operator agrees with the per-t loop to 1e-12,
    compared before the square root: where (Sf)^2 sits at roundoff near 0,
    the root turns a 1e-17 difference into 3e-9."""
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
            assert np.max(np.abs(got.real**2 - want)) <= 1e-12 * np.max(want), (
                kind, g, times)


# ---------------------------------------------------------------------------
# Stacked kernels and node blocks change no bits
# ---------------------------------------------------------------------------

BLOCK_OPS = ORACLE_OPS[1:]


@pytest.mark.parametrize("op", BLOCK_OPS, ids=["torus1d", "torus2d", "oscillator"])
def test_kernel_stacks_equal_per_node_ffts(op):
    """The ball and g* kernel stacks, each one fftn, equal an fftn per node."""
    g = op.grid
    times = TimeGrid(g.spacing, 1.5, 5)
    dist = g.distance_from_origin()
    nodes = list(map(float, times.nodes))
    ball = np.stack([np.fft.fftn((dist < t).astype(float)) for t in nodes])
    weight = np.stack([np.fft.fftn((t / (t + dist)) ** (g.dim * ORACLE_MU)) for t in nodes])
    assert np.array_equal(squarefuncs._ball(op, times, ORACLE_MU), ball)
    assert np.array_equal(squarefuncs._g_star_weight(op, times, ORACLE_MU), weight)


@pytest.mark.parametrize("op", BLOCK_OPS, ids=["torus1d", "torus2d", "oscillator"])
def test_node_blocks_change_no_bits(op, monkeypatch):
    """Splitting the time nodes into blocks of one, or of three with a short
    last block, leaves every kind bit-identical to one block of all nodes."""
    g = op.grid
    rng = np.random.default_rng(12)
    if isinstance(op, HermiteOscillator1D):
        f = op.synthesize(rng.standard_normal(op.truncation))
    else:
        f = GridFunction(g, rng.standard_normal(g.shape))
    times = TimeGrid(g.spacing, (0.99 * op.t_max / g.spacing) ** (1 / 6), 7)
    for kind in ORACLE_KINDS:
        results = []
        for per_block in (7, 1, 3):
            monkeypatch.setattr(squarefuncs, "_BLOCK_ELEMENTS", per_block * g.size)
            T = square_function_operator(kind, op, times, mu=ORACLE_MU)
            assert T.block == per_block
            results.append(T(f).values)
        assert all(np.array_equal(results[0], other) for other in results[1:]), kind


@pytest.mark.parametrize("op", BLOCK_OPS, ids=["torus1d", "torus2d", "oscillator"])
def test_one_call_table_equals_per_row_tables(op):
    """The symbol tabulated on the whole (node x level) grid in one call,
    spread by the operator's level map as a block spreads it, equals one
    profile_values row per node with its subnormal entries set to 0, bit for
    bit, for every kind whose symbol is elementwise (all but g*, whose Phi
    takes the batch path)."""
    times = TimeGrid(op.grid.spacing, (0.99 * op.t_max / op.grid.spacing) ** (1 / 6), 7)
    for kind in ORACLE_KINDS[:-1]:
        symbol = square_symbol(squarefuncs.KINDS[kind][0])
        rows = np.stack([op.profile_values(lambda s: symbol(t * s)).real
                         for t in map(float, times.nodes)])
        rows[np.abs(rows) < np.finfo(float).tiny] = 0.0
        T = square_function_operator(kind, op, times)
        assert T.table.shape == (times.count, op.spectral_nodes().size), kind
        assert np.array_equal(op.spread(T.table), rows), kind


@pytest.mark.parametrize("op", BLOCK_OPS, ids=["torus1d", "torus2d", "oscillator"])
def test_a_nonfinite_symbol_fails_the_build_at_its_smallest_level(op):
    """A symbol that is NaN at two levels of one node row is a NonFiniteError
    from the SquareFunction build, naming the smaller of the two levels."""
    times = TimeGrid(op.grid.spacing, 1.5, 5)
    low = float(op.spectral_nodes()[2])

    def symbol(z):
        out = np.array(z)
        out[3, [5, 2]] = np.nan
        return out

    with pytest.raises(NonFiniteError) as err:
        squarefuncs.SquareFunction(op, times, symbol, False, None)
    assert str(err.value).endswith(f"sqrt(L) = {low!r}")


def test_a_build_holds_the_table_on_levels_only():
    """An identity-grid g_h build at 2-D N=64 (t from h/8 to t_max, 8 per
    octave) traces under 1.5 MiB: the table lives on the (node x level)
    grid, and no complex (node x spectrum) array is made (one was 4.6 MiB)."""
    op = LaplacianTorus(Grid(2, 64, 1.0))
    times = TimeGrid.geometric(op.grid.spacing / 8.0, op.t_max)
    tracemalloc.start()
    try:
        T = square_function_operator("g_h", op, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    assert T.table.shape == (times.count, op.spectral_nodes().size)


def test_g_star_build_calls_psi_once(torus, monkeypatch):
    """A g* build evaluates psi once, on the whole (node x level) grid."""
    shapes = []

    def counting(n):
        psi = psi_vanishing(n)

        def counted(s):
            shapes.append(np.shape(s))
            return psi(s)

        return counted

    monkeypatch.setattr(squarefuncs, "psi_vanishing", counting)
    times = TimeGrid.geometric(torus.grid.spacing, torus.t_max)
    square_function_operator("g_star", torus, times)
    assert shapes == [(times.count, torus.spectral_nodes().size)]


# ---------------------------------------------------------------------------
# One ball stack per operator and cone grid
# ---------------------------------------------------------------------------

CONE_KINDS = ("s_h", "s_p", "S_H", "S_P")


def _cone_grid(op):
    """The run's cone grid: from the spacing, 8 nodes per octave, to the last
    node within the trust budget."""
    times = TimeGrid.geometric(op.grid.spacing, op.t_max)
    return TimeGrid(times.t_min, times.ratio, times.count - (not op.trusts(times.nodes[-1])))


@pytest.mark.parametrize("op", BLOCK_OPS, ids=["torus1d", "torus2d", "oscillator"])
def test_cone_kinds_share_one_read_only_ball_stack(op):
    """s_h, s_p, S_H and S_P built on one operator and cone grid hold the
    same ball stack, read-only and equal to a freshly built one; g*'s
    stack is its own."""
    times = _cone_grid(op)
    stacks = [square_function_operator(kind, op, times).kernels for kind in CONE_KINDS]
    assert all(stack is stacks[0] for stack in stacks[1:])
    assert not stacks[0].flags.writeable
    with pytest.raises(ValueError):
        stacks[0][0] = 0.0
    fresh = squarefuncs._transformed(op, times, lambda t, dist: dist < t)
    assert np.array_equal(stacks[0], fresh)
    weight = square_function_operator("g_star", op, times).kernels
    assert weight is not stacks[0] and not np.shares_memory(weight, stacks[0])


def test_refused_cone_grids_leave_no_stack():
    """The trust-budget and cross-section refusals run before any ball stack
    is built or looked up: a refused grid leaves nothing on the operator."""
    op = LaplacianTorus(Grid(1, 64, 1.0))
    g = op.grid
    refused = (TimeGrid(g.spacing, 2.0, 40), TimeGrid(g.spacing / 4, 2.0, 3))
    for times in refused:
        with pytest.raises((ParameterError, ResolutionError)):
            square_function_operator("s_h", op, times)
    assert not vars(op).get("_balls")


def test_cone_kinds_hold_one_ball_stack():
    """Building s_h, s_p, S_H and S_P on a 2-D N=64 torus at the cone grid
    holds, and peaks at, no more than 1.25 ball stacks plus the four symbol
    tables (four stacks, one per kind, were about 4.0)."""
    op = LaplacianTorus(Grid(2, 64, 1.0))
    times = _cone_grid(op)
    tracemalloc.start()
    try:
        built = [square_function_operator(kind, op, times) for kind in CONE_KINDS]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = times.count * op.grid.size * np.dtype(np.complex128).itemsize
    tables = sum(T.table.nbytes for T in built)
    assert held <= tables + 1.25 * stack, f"held {(held - tables) / stack:.2f} stacks"
    assert peak <= tables + 1.25 * stack, f"peak {(peak - tables) / stack:.2f} stacks"


def test_ball_stack_dies_with_its_operator():
    """The shared ball stack lives exactly as long as its operator: once the
    operator and its square functions are gone, nothing keeps the stack."""
    op = LaplacianTorus(Grid(2, 32, 1.0))
    built = [square_function_operator(kind, op, _cone_grid(op)) for kind in CONE_KINDS]
    stack = weakref.ref(built[0].kernels)
    del op, built
    gc.collect()
    assert stack() is None
