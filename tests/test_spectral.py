import numpy as np
import pytest

from sqfn.errors import (NonFiniteError, ParameterError, ResolutionError,
                         SpectralTailError)
from sqfn.grid import Grid, GridFunction
from sqfn.multipliers import psi_vanishing, square_symbol
from sqfn.spectral import (HermiteOscillator1D, LaplacianTorus,
                           fit_gaussian_bound)


@pytest.fixture(scope="module")
def torus():
    return LaplacianTorus(Grid(1, 128, 1.0))


@pytest.fixture(scope="module")
def hermite():
    return HermiteOscillator1D(Grid(1, 256, 22.5), 128)


def _mode(grid, m):
    x = grid.axis_coords()
    return GridFunction(grid, np.cos(np.pi * m * x / grid.half_width))


def test_heat_single_mode_eigenvalue(torus):
    g = torus.grid
    m = 5
    f = _mode(g, m)
    t = 0.01
    u = torus.heat_semigroup(t, f)
    lam = (np.pi * m / g.half_width) ** 2
    np.testing.assert_allclose(u.values.real, np.exp(-t * lam) * f.values.real,
                               atol=1e-13)


def test_gradient_is_derivative(torus):
    g = torus.grid
    m = 3
    x = g.axis_coords()
    f = GridFunction(g, np.sin(np.pi * m * x))
    (df,) = torus.gradient(f)
    np.testing.assert_allclose(df.values.real, np.pi * m * np.cos(np.pi * m * x),
                               atol=1e-9)


def test_wave_cosine_mode(torus):
    g = torus.grid
    f = _mode(g, 4)
    t = 0.3
    u = torus.wave_cosine(t, f)
    s = np.pi * 4 / g.half_width
    np.testing.assert_allclose(u.values.real, np.cos(t * s) * f.values.real,
                               atol=1e-13)


def test_poisson_subordination_agrees(torus):
    # the Laguerre rule is converged once t * s >= ~5 for every nonzero
    # spectral node (the subordination integrand then lives away from
    # the u -> 0 singularity); the torus has s_min = pi
    g = torus.grid
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.shape))
    t = 2.0
    a = torus.poisson_semigroup(t, f, method="multiplier")
    b = torus.poisson_semigroup(t, f, method="subordination")
    scale = float(np.max(np.abs(a.values)))
    assert np.max(np.abs(a.values - b.values)) < 1e-6 * scale


def test_poisson_subordination_guard_fires(torus):
    # mid-range t * s: the 48/64-node comparison must reject the answer
    from sqfn.errors import AccuracyError

    g = torus.grid
    f = _mode(g, 1)
    with pytest.raises(AccuracyError):
        torus.poisson_semigroup(0.05, f, method="subordination")


def test_kernel_matrix_is_symmetric_circulant(torus):
    _, e = torus.kernel_matrix(lambda s: np.exp(-0.01 * s**2))
    assert np.max(np.abs(e - e.T)) < 1e-12
    # circulant: every row is a rotation of the first
    np.testing.assert_allclose(e[1], np.roll(e[0], 1), atol=1e-12)


def test_kernel_matrix_applies_like_multiplier(torus):
    g = torus.grid
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    _, entries = torus.kernel_matrix(lambda s: np.exp(-0.02 * s**2))
    via_kernel = entries @ f.values * g.spacing
    direct = torus.heat_semigroup(0.02, f)
    np.testing.assert_allclose(via_kernel, direct.values, atol=1e-11)


def test_kernel_profile_matches_matrix_column(torus):
    profile = lambda s: np.exp(-0.05 * s**2)
    dist, col = torus.kernel_profile(profile)
    _, entries = torus.kernel_matrix(profile)
    n = torus.grid.points_per_axis
    coarse = entries[0]
    # every 16th oversampled value must reproduce the matrix column
    np.testing.assert_allclose(col[::16].real, coarse.real, atol=1e-10)
    assert dist.size == 16 * n


@pytest.mark.parametrize("r", [1.0, 0.7])
def test_kernel_matrix_2d_equals_double_loop(r):
    """The 2-D dense kernel against its definition over grid pairs: entries
    col[(i - j) mod N] per axis, distances the hypot of the per-axis
    periodic |x - y|."""
    g = Grid(2, 8, r)
    op = LaplacianTorus(g)
    profile = lambda s: np.exp(-0.01 * s**2)
    dist, entries = op.kernel_matrix(profile)
    col = np.fft.ifftn(op.profile_values(profile)) / g.cell_volume
    assert np.max(np.abs(col.imag)) < 1e-13 * np.max(np.abs(col.real))
    n, x = g.points_per_axis, g.axis_coords()

    def periodic(a, b):
        d = abs(x[a] - x[b])
        return min(d, 2.0 * r - d)

    points = [(i0, i1) for i0 in range(n) for i1 in range(n)]
    want_entries = np.empty((g.size, g.size))
    want_dist = np.empty((g.size, g.size))
    for row, (i0, i1) in enumerate(points):
        for column, (j0, j1) in enumerate(points):
            want_entries[row, column] = col.real[(i0 - j0) % n, (i1 - j1) % n]
            want_dist[row, column] = np.hypot(periodic(i0, j0), periodic(i1, j1))
    assert np.array_equal(entries, want_entries)
    assert np.array_equal(dist, want_dist)


def test_kernel_gradient_matrix_applies_like_gradient(torus, hermite):
    """entries @ f * h is the gradient of F(sqrt(L)) f, on the torus and the
    oscillator."""
    profile = lambda s: np.exp(-0.02 * s**2)
    rng = np.random.default_rng(5)
    torus_f = GridFunction(torus.grid, rng.standard_normal(torus.grid.shape))
    hermite_f = hermite.synthesize(rng.standard_normal(hermite.truncation))
    for op, f in ((torus, torus_f), (hermite, hermite_f)):
        _, entries = op.kernel_gradient_matrix(profile)
        via_kernel = entries @ f.values * op.grid.spacing
        (direct,) = op.gradient(op.apply_function(profile, f))
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(via_kernel - direct.values)) < 1e-10 * scale, type(op).__name__


def test_time_budget_guard(torus):
    g = torus.grid
    f = _mode(g, 1)
    with pytest.raises(ParameterError):
        torus.heat_semigroup(-0.1, f)


def test_hermite_orthonormality_guard():
    # too many modes for the window: the top eigenfunctions alias
    with pytest.raises(ResolutionError):
        HermiteOscillator1D(Grid(1, 256, 10.0), 128)


def test_hermite_eigenfunction_heat(hermite):
    k = 17
    coeffs = np.zeros(hermite.truncation)
    coeffs[k] = 1.0
    f = hermite.synthesize(coeffs)
    t = 0.05
    u = hermite.heat_semigroup(t, f)
    np.testing.assert_allclose(u.values.real,
                               np.exp(-t * (2 * k + 1)) * f.values.real,
                               atol=1e-10)


def test_hermite_mehler_oracle(hermite):
    t = 0.1
    _, entries = hermite.kernel_matrix(lambda s: np.exp(-t * s**2))
    oracle = hermite.mehler_heat_kernel(t)
    # truncation at 128 modes: agreement to the truncated tail level
    assert np.max(np.abs(entries - oracle)) < 1e-8 * np.max(oracle)


def test_hermite_ground_state_gradient_analytic(hermite):
    # d/dx [pi^{-1/4} e^{-x^2/2}] = -x * h_0(x), independent of the recurrence
    g = hermite.grid
    coeffs = np.zeros(hermite.truncation)
    coeffs[0] = 1.0
    h0 = hermite.synthesize(coeffs)
    (dh0,) = hermite.gradient(h0)
    x = g.axis_coords()
    np.testing.assert_allclose(dh0.values.real, -x * h0.values.real, atol=1e-10)


def test_hermite_gradient_matches_finite_difference(hermite):
    g = hermite.grid
    coeffs = np.zeros(hermite.truncation)
    coeffs[3] = 1.0
    coeffs[10] = -0.5
    f = hermite.synthesize(coeffs)
    (df,) = hermite.gradient(f)
    fd = np.gradient(f.values.real, g.spacing)
    interior = slice(10, -10)
    # second-order stencil at mode ~10: a few percent is the expected error
    np.testing.assert_allclose(df.values.real[interior], fd[interior],
                               atol=0.08 * np.max(np.abs(df.values)))


def test_hermite_rejects_unresolved_input(hermite):
    g = hermite.grid
    spike = np.zeros(g.shape)
    spike[g.points_per_axis // 2] = 1.0
    with pytest.raises(SpectralTailError):
        hermite.coefficients(GridFunction(g, spike))


def test_hermite_projection_idempotent(hermite):
    g = hermite.grid
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(g.shape))
    p1 = hermite.project(f)
    p2 = hermite.project(p1)
    np.testing.assert_allclose(p1.values, p2.values, atol=1e-10)


def test_fit_gaussian_bound_recovers_planted_constants():
    d = np.linspace(0.0, 3.0, 400)
    scale = 0.25
    C_true, c_true = 2.0, 1.7
    vals = C_true * np.exp(-(d**2) / (c_true * scale))
    C, c = fit_gaussian_bound(vals, d, scale, prefactor=1.0)
    assert c == pytest.approx(c_true, rel=0.05)
    assert C == pytest.approx(C_true, rel=0.1)


def test_laplacian_2d_mode():
    op = LaplacianTorus(Grid(2, 32, 1.0))
    g = op.grid
    x, y = g.coords()
    f = GridFunction(g, np.cos(np.pi * 2 * x) * np.cos(np.pi * 3 * y))
    t = 0.005
    u = op.heat_semigroup(t, f)
    lam = (np.pi * 2) ** 2 + (np.pi * 3) ** 2
    np.testing.assert_allclose(u.values.real, np.exp(-t * lam) * f.values.real,
                               atol=1e-12)


@pytest.mark.parametrize("op, profile, where", [
    (LaplacianTorus(Grid(1, 16, 1.0)), lambda s: 1.0 / s, "sqrt(L) = 0.0"),
    (LaplacianTorus(Grid(2, 8, 1.0)), lambda s: 1.0 / s, "sqrt(L) = 0.0"),
    (HermiteOscillator1D(Grid(1, 64, 12.0), 16), lambda s: 1.0 / (s - 1.0), "sqrt(L) = 1.0"),
], ids=["torus1d", "torus2d", "oscillator"])
def test_profile_values_names_the_nonfinite_spectral_value(op, profile, where):
    """A profile that is not finite somewhere on the spectrum is a
    NonFiniteError naming the first spectral value where it fails."""
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError) as err:
        op.profile_values(profile)
    assert str(err.value).endswith(where)


# ---------------------------------------------------------------------------
# Distinct spectral levels and node-stacked transforms change no value
# ---------------------------------------------------------------------------

STACK_OPS = (LaplacianTorus(Grid(1, 64, 1.0)), LaplacianTorus(Grid(2, 16, 1.0)),
             HermiteOscillator1D(Grid(1, 128, 12.0), 32))
STACK_IDS = ["torus1d", "torus2d", "oscillator"]


def _full_spectrum(op):
    """sqrt(L) at every spectral coefficient, written out independently."""
    if isinstance(op, HermiteOscillator1D):
        return np.sqrt(2.0 * np.arange(op.truncation) + 1.0)
    g = op.grid
    xi = np.pi * np.fft.fftfreq(g.points_per_axis) * g.points_per_axis / g.half_width
    return np.hypot.reduce(np.meshgrid(*(xi,) * g.dim, indexing="ij"))


@pytest.mark.parametrize("op", STACK_OPS, ids=STACK_IDS)
def test_profile_values_on_levels_equal_the_full_spectrum(op):
    """Evaluating on the distinct values of sqrt(L) and scattering back is
    bit-identical for elementwise profiles; psi_vanishing's FourierBump GEMV
    may move bits with the row count, so it agrees to 1e-12."""
    spectrum = _full_spectrum(op)
    assert np.array_equal(op.spectral_nodes(), np.unique(spectrum))
    t = 0.07
    elementwise = [lambda s: np.exp(-t * s**2), lambda s: np.exp(-t * s),
                   lambda s: np.cos(t * s)]
    elementwise += [lambda s, phi=square_symbol(key): phi(t * s)
                    for key in ("s_h", "s_p", "S_H-scalar", "S_P-scalar")]
    for profile in elementwise:
        want = np.asarray(profile(spectrum), dtype=np.complex128)
        assert np.array_equal(op.profile_values(profile), want)
    psi = psi_vanishing(op.dim)
    want = psi(t * spectrum)
    got = op.profile_values(lambda s: psi(t * s))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _per_row_transforms(op, c):
    """(inverse, inverse_gradient) of one coefficient row, written out: the
    matrix @ c products on the oscillator, the FFT of the row on the torus."""
    if isinstance(op, HermiteOscillator1D):
        u = op._band @ c
        return u, (op._basis_deriv @ ((op._band.T @ u) * op.grid.spacing),)
    g = op.grid
    n = g.points_per_axis
    xi = np.pi * (np.fft.fftfreq(n) * n) / g.half_width
    return np.fft.ifftn(c), tuple(np.fft.ifftn(1j * k * c)
                                  for k in np.meshgrid(*(xi,) * g.dim, indexing="ij"))


@pytest.mark.parametrize("op", STACK_OPS + (HermiteOscillator1D(Grid(1, 256, 22.5), 128),),
                         ids=STACK_IDS + ["oscillator256"])
def test_stacked_inverse_transforms_equal_the_per_row_calls(op):
    """inverse and inverse_gradient on a (T, ...) stack give the bits of the
    per-row transforms: batched FFTs on the torus, and on the oscillator one
    batched matmul whose items are the per-row GEMVs.  The inputs are complex
    noise, float64, complex with a zero imaginary part, a strided stack and
    one row, at both oscillator sizes the benchmark runs."""
    rng = np.random.default_rng(11)
    real = rng.standard_normal((6,) + _full_spectrum(op).shape)
    noise = real + 1j * rng.standard_normal(real.shape)
    inputs = {"complex": noise, "float64": real, "zero-imaginary": real + 0j,
              "strided": noise[::2], "vector": noise[0]}
    for name, stack in inputs.items():
        want = [_per_row_transforms(op, c) for c in (stack[None] if name == "vector" else stack)]
        got_inverse, got_gradient = op.inverse(stack), op.inverse_gradient(stack)
        if name == "vector":
            got_inverse, got_gradient = got_inverse[None], [d[None] for d in got_gradient]
        assert np.array_equal(got_inverse, np.stack([w[0] for w in want])), name
        assert len(got_gradient) == op.dim
        for axis, got in enumerate(got_gradient):
            assert np.array_equal(got, np.stack([w[1][axis] for w in want])), name
