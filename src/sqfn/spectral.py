"""Self-adjoint model operators and their functional calculus.

Two concrete non-negative self-adjoint operators are provided:

* ``LaplacianTorus`` — minus the Laplacian on the torus [-R, R)^dim,
  diagonalized by the FFT with frequencies pi*k/R;
* ``HermiteOscillator1D`` — the harmonic oscillator -d^2/dx^2 + x^2 on a
  (large) periodic interval, truncated to its first K+1 eigenfunctions
  with eigenvalues 2k+1.

Both expose F(sqrt(L)) for arbitrary scalar profiles, heat and Poisson
semigroups (the latter also via subordination quadrature), gradients,
the even wave propagator cos(t sqrt(L)), and dense kernel matrices for
kernel-bound fits, returned as (distances, entries) like the torus's
oversampled kernel_profile (the torus matrix by one path in every
dimension).  level_values gives F once per distinct sqrt(L), spread
takes a level axis to every coefficient, and profile_values is both.
forward / inverse / inverse_gradient expose the transform pair, so a
square function can transform f once per call; both inverses take a
leading node axis.  The oscillator's eigenbasis matrices are real and its
data complex, so each of its products views the data as (re, im) float64
pairs and runs one real matmul per vector or row (``_rows``), never a
complex cast of the matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from . import constants
from .errors import (
    AccuracyError,
    CapabilityError,
    NonFiniteError,
    ParameterError,
    ResolutionError,
    ResourceError,
    SpectralTailError,
)
from .grid import Grid, GridFunction, require_same_grid


@functools.lru_cache(maxsize=2)  # hermgauss(128) takes about 9 ms
def _half_laguerre_rule(n: int) -> tuple:
    """n-node Gauss rule for int_0^inf u^{-1/2} e^{-u} g(u) du (generalized
    Laguerre, alpha = -1/2): with u = x^2 it is int_R e^{-x^2} g(x^2) dx, so the
    nodes are the squared positive nodes of the 2n-node Gauss-Hermite rule and
    the weights are twice theirs.  The arrays are shared, so read-only."""
    x, w = np.polynomial.hermite.hermgauss(2 * n)
    u, w = x[n:] ** 2, 2.0 * w[n:]
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _real_if_close(a: np.ndarray, rtol: float) -> np.ndarray:
    """a.real if every |imaginary part| is below rtol times the largest |real part|, else a."""
    if np.max(np.abs(a.imag)) < rtol * max(np.max(np.abs(a.real)), 1e-300):
        return a.real
    return a


class SpectralOperator:
    """Common functional-calculus interface of the model operators.

    Subclasses give apply_function(profile, f) = F(sqrt(L)) f, gradient(f) as
    a tuple, kernel_matrix(profile) = (distances, entries) with op(f) ~
    entries @ f * h^dim over flattened grid points, project(f) onto the
    resolved band, and the transform pair forward(f) -> coefficients,
    inverse(coeffs), inverse_gradient(coeffs).
    They set _levels, _where = np.unique(spectrum, return_inverse=True): the
    distinct values of sqrt(L) and the map back to the spectrum's shape.
    """

    grid: Grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    def trusts(self, t: float) -> bool:
        """Whether time t lies within the trust budget t_max, up to a 1e-9 relative slack."""
        return t <= self.t_max * (1.0 + 1e-9)

    def spectral_nodes(self) -> np.ndarray:
        """The distinct values of sqrt(L) on the resolved spectrum, ascending."""
        return self._levels

    def level_values(self, profile) -> np.ndarray:
        """F at each distinct sqrt(L), as complex, on a trailing level axis after
        any leading axes F returns (one row per time node, say).  NaN/Inf is
        an error naming the smallest spectral value where F is not finite;
        NumPy's overflow and invalid-value warnings on the way there are not
        raised, as that error reports them."""
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(profile(self._levels), dtype=np.complex128)
        vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, self._levels.shape))
        bad = ~np.isfinite(vals).reshape(-1, self._levels.size).all(axis=0)
        if np.any(bad):
            s = float(self._levels[bad][0])
            raise NonFiniteError(f"profile is NaN/Inf at the spectral value sqrt(L) = {s!r}")
        return vals

    def spread(self, levels) -> np.ndarray:
        """An array on a trailing level axis, that axis spread to the spectrum's shape."""
        return np.take(levels, self._where, axis=-1)

    def profile_values(self, profile) -> np.ndarray:
        """spread(level_values(profile))."""
        return self.spread(self.level_values(profile))

    def _guard_budget(self):
        need = self.grid.size**2 * 16 / 2**20
        if need > constants.KERNEL_MATRIX_BUDGET_MB:
            raise ResourceError(f"kernel matrix needs {need:.0f} MiB, budget is "
                                f"{constants.KERNEL_MATRIX_BUDGET_MB:.0f} MiB")

    def heat_semigroup(self, t: float, f: GridFunction) -> GridFunction:
        """e^{-tL} f."""
        if not (t > 0):
            raise ParameterError(f"heat time must be positive, got {t}")
        return self.apply_function(lambda s: np.exp(-t * s**2), f)

    def poisson_semigroup(self, t: float, f: GridFunction, method: str = "multiplier"):
        """e^{-t sqrt(L)} f, directly or by subordination to the heat flow.

        The subordination route integrates the heat semigroup against the
        density u^{-1/2} e^{-u} / sqrt(pi) with a 64-node generalized
        Gauss-Laguerre rule, and fails loudly if the internal 48-node
        comparison disagrees beyond the pinned tolerance.
        """
        if not (t > 0):
            raise ParameterError(f"Poisson time must be positive, got {t}")
        if method == "multiplier":
            return self.apply_function(lambda s: np.exp(-t * s), f)
        if method != "subordination":
            raise ParameterError(f"unknown Poisson method {method!r}")

        def subordinated(s, order):
            u, w = _half_laguerre_rule(order)
            # e^{-ts} = pi^{-1/2} * int_0^inf u^{-1/2} e^{-u} e^{-t^2 s^2 / 4u} du
            block = np.exp(-np.multiply.outer(s**2, t**2 / (4.0 * u)))
            return (block @ w) / np.sqrt(np.pi)

        nodes = self.spectral_nodes()
        hi = subordinated(nodes, 64)
        lo = subordinated(nodes, 48)
        scale = max(float(np.max(np.abs(hi))), 1e-300)
        if np.max(np.abs(hi - lo)) > constants.SUBORDINATION_RTOL * scale:
            raise AccuracyError(
                "subordination quadrature failed its internal 48/64-node comparison"
            )
        return self.apply_function(lambda s: subordinated(s, 64), f)

    def wave_cosine(self, t: float, f: GridFunction) -> GridFunction:
        """cos(t sqrt(L)) f — the even wave propagator."""
        if t < 0:
            raise ParameterError(f"wave time must be non-negative, got {t}")
        return self.apply_function(lambda s: np.cos(t * s), f)


class LaplacianTorus(SpectralOperator):
    """Minus the Laplacian on [-R, R)^dim, diagonal in the Fourier basis."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n, r = grid.points_per_axis, grid.half_width
        k = np.fft.fftfreq(n) * n
        xi = np.pi * k / r
        self._xi_axes = tuple(np.meshgrid(*(xi,) * grid.dim, indexing="ij"))
        self._levels, self._where = np.unique(np.abs(np.hypot.reduce(self._xi_axes)),
                                              return_inverse=True)

    @property
    def t_max(self) -> float:
        """Largest trustworthy time, R/4: time is a length, as the symbols take t sqrt(L)."""
        return self.grid.half_width / 4.0

    def forward(self, f: GridFunction) -> np.ndarray:
        require_same_grid(self, f)
        return np.fft.fftn(f.values)

    def project(self, f: GridFunction) -> GridFunction:
        """f itself: the torus grid is its own resolved band."""
        require_same_grid(self, f)
        return f

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(coeffs, axes=self.grid.axes)

    def inverse_gradient(self, coeffs: np.ndarray) -> tuple:
        return tuple(np.fft.ifftn(1j * xi * coeffs, axes=self.grid.axes)
                     for xi in self._xi_axes)

    def apply_function(self, profile, f: GridFunction) -> GridFunction:
        vals = self.profile_values(profile)
        return GridFunction(self.grid, self.inverse(vals * self.forward(f)))

    def gradient(self, f: GridFunction) -> tuple:
        return tuple(GridFunction(self.grid, c)
                     for c in self.inverse_gradient(self.forward(f)))

    def kernel_matrix(self, profile) -> tuple:
        return self._kernel(profile, gradient=False)

    def kernel_gradient_matrix(self, profile) -> tuple:
        """Matrix of d/dx K(x, y) (1-D only), for gradient kernel-bound fits."""
        return self._kernel(profile, gradient=True)

    def _kernel(self, profile, gradient: bool) -> tuple:
        if gradient and self.grid.dim != 1:
            raise CapabilityError("gradient kernel matrices are 1-D only")
        self._guard_budget()
        vals = self.profile_values(profile)
        # Kernel column at y = 0; the operator is a circulant so every
        # other column is a periodic shift of it.
        if gradient:
            col = np.fft.ifftn(1j * self._xi_axes[0] * vals) / self.grid.cell_volume
        else:
            col = _real_if_close(np.fft.ifftn(vals) / self.grid.cell_volume, 1e-13)
        n, dim, size = self.grid.points_per_axis, self.grid.dim, self.grid.size
        # Per axis, (i - j) mod N and the periodic |x_i - x_j|, broadcast over
        # that axis's row position (axis) and column position (dim + axis).
        shapes = [[n if k % dim == axis else 1 for k in range(2 * dim)] for axis in range(dim)]
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        x = self.grid.axis_coords()
        delta = self.grid.periodic_delta(x[:, None] - x[None, :])
        entries = col[tuple(idx.reshape(shape) for shape in shapes)]
        dist = functools.reduce(np.hypot, (delta.reshape(shape) for shape in shapes))
        return dist.reshape(size, size), entries.reshape(size, size)

    def kernel_profile(self, profile, gradient: bool = False):
        """Kernel column K(d) on a 16-fold oversampled distance grid (1-D only).

        The kernel of any multiplier is a trigonometric polynomial in
        x - y, so zero-padded inverse FFT evaluates it exactly between
        grid points; sup-type fits stop jittering with the sampling.
        Returns (distances, values).
        """
        if self.grid.dim != 1:
            raise CapabilityError("kernel profiles are 1-D only")
        n = self.grid.points_per_axis
        vals = self.profile_values(profile)
        if gradient:
            vals = 1j * self._xi_axes[0] * vals
        m = n * 16
        spec = np.zeros(m, dtype=np.complex128)
        half = n // 2
        spec[:half] = vals[:half]
        spec[-half + 1 :] = vals[half + 1 :]
        # split the Nyquist coefficient symmetrically
        spec[half] = 0.5 * vals[half]
        spec[-half] += 0.5 * vals[half]
        col = np.fft.ifft(spec) * (m / n) / self.grid.cell_volume
        x = 2.0 * self.grid.half_width * np.arange(m) / m
        dist = np.minimum(x, 2.0 * self.grid.half_width - x)
        return dist, _real_if_close(col, 1e-12)


class HermiteOscillator1D(SpectralOperator):
    """The oscillator -d^2/dx^2 + x^2 on a wide interval, truncated at K.

    Eigenfunctions are built by the normalized three-term recurrence;
    construction fails with a resolution error unless the sampled family
    is orthonormal under the Riemann sum to 1e-8.  Inputs with more than
    the pinned tail fraction of energy outside the resolved band are
    rejected rather than silently truncated.
    """

    def __init__(self, grid: Grid, truncation: int = 128):
        if grid.dim != 1:
            raise ParameterError("the oscillator model is one-dimensional")
        if truncation < 1:
            raise ParameterError(f"truncation must be >= 1, got {truncation}")
        self.grid = grid
        self.truncation = truncation
        x = grid.axis_coords()
        k_max = truncation  # one extra column beyond the band, for gradients
        basis = np.empty((x.size, k_max + 1))
        basis[:, 0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
        if k_max >= 1:
            basis[:, 1] = np.sqrt(2.0) * x * basis[:, 0]
        for k in range(1, k_max):
            basis[:, k + 1] = np.sqrt(2.0 / (k + 1)) * x * basis[:, k] - np.sqrt(
                k / (k + 1.0)
            ) * basis[:, k - 1]
        h = grid.spacing
        self._band = band = basis[:, :truncation]  # the resolved modes
        gram = band.T @ band * h
        defect = float(np.max(np.abs(gram - np.eye(truncation))))
        if defect > 1e-8:
            raise ResolutionError(
                f"grid cannot hold {truncation} oscillator eigenfunctions "
                f"orthonormally (defect {defect:.2e}); enlarge R and/or N"
            )
        k = np.arange(truncation)
        self._levels, self._where = np.unique(np.sqrt(2.0 * k + 1.0), return_inverse=True)
        # h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}
        deriv = -np.sqrt((k + 1) / 2.0) * basis[:, 1 : truncation + 1]
        deriv[:, 1:] += np.sqrt(k[1:] / 2.0) * basis[:, : truncation - 1]
        self._basis_deriv = deriv

    @property
    def t_max(self) -> float:
        """Largest trustworthy time, R^2/4: x^2 fixes the unit of length, so no
        dilation ties the budget to R, and it holds the auto t_max = 4 for R >= 4."""
        return self.grid.half_width**2 / 4.0

    def coefficients(self, f: GridFunction) -> np.ndarray:
        """Eigen-coefficients of f, rejecting unresolved spectral tails."""
        require_same_grid(self, f)
        v = f.values
        c = self._rows(self._band.T, v) * self.grid.spacing
        resolved = self._rows(self._band, c)
        total = float(np.sum(np.abs(v) ** 2))
        if total > 0:
            tail = float(np.sum(np.abs(v - resolved) ** 2)) / total
            if tail > constants.SPECTRAL_TAIL_TOL:
                raise SpectralTailError(
                    f"{tail:.2e} of the input energy lies outside the first "
                    f"{self.truncation} oscillator modes"
                )
        return c

    def project(self, f: GridFunction) -> GridFunction:
        """Orthogonal projection onto the resolved band (no tail check)."""
        require_same_grid(self, f)
        c = self._rows(self._band.T, f.values) * self.grid.spacing
        return GridFunction(self.grid, self._rows(self._band, c))

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (self.truncation,):
            raise ParameterError("coefficient vector length must equal the truncation")
        return GridFunction(self.grid, self._band @ coeffs)

    def forward(self, f: GridFunction) -> np.ndarray:
        return self.coefficients(f)

    @staticmethod
    def _rows(matrix: np.ndarray, c: np.ndarray) -> np.ndarray:
        """matrix @ c for a complex vector c or each row c of a stack, in real
        arithmetic: c viewed as (..., K, 2) float64 (re, im) pairs, one real
        matmul, the result viewed back as complex.  The real matrix is never
        cast to complex.  Each row is its own (M, K) x (K, 2) product, so a
        stack gives the bits of its rows one at a time; a real input (made
        complex) comes back with an imaginary part of exactly 0."""
        c = np.ascontiguousarray(c, dtype=np.complex128)
        pairs = c.view(np.float64).reshape(c.shape + (2,))
        return np.matmul(matrix, pairs).view(np.complex128)[..., 0]

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return self._rows(self._band, coeffs)

    def inverse_gradient(self, coeffs: np.ndarray) -> tuple:
        """Differentiates the re-projected synthesis, as gradient() of it
        would: the sampled basis is orthonormal only to its Gram defect."""
        c = self._rows(self._band.T, self.inverse(coeffs)) * self.grid.spacing
        return (self._rows(self._basis_deriv, c),)

    def apply_function(self, profile, f: GridFunction) -> GridFunction:
        c = self.coefficients(f)
        return GridFunction(self.grid, self.inverse(self.profile_values(profile) * c))

    def gradient(self, f: GridFunction) -> tuple:
        c = self.coefficients(f)
        return (GridFunction(self.grid, self._rows(self._basis_deriv, c)),)

    def kernel_matrix(self, profile) -> tuple:
        return self._kernel(profile, gradient=False)

    def kernel_gradient_matrix(self, profile) -> tuple:
        return self._kernel(profile, gradient=True)

    def _kernel(self, profile, gradient: bool) -> tuple:
        self._guard_budget()
        vals = self.profile_values(profile)
        left = self._basis_deriv if gradient else self._band
        entries = _real_if_close(self._rows(self._band, left * vals), 1e-13)
        x = self.grid.axis_coords()
        dist = np.abs(x[:, None] - x[None, :])
        return dist, entries

    def mehler_heat_kernel(self, t: float) -> np.ndarray:
        """Closed-form heat kernel of the oscillator (independent oracle).

        p_t(x, y) = (2 pi sinh 2t)^{-1/2}
                    exp(-coth(2t) (x^2+y^2)/2 + xy / sinh 2t).
        """
        if not (t > 0):
            raise ParameterError(f"heat time must be positive, got {t}")
        x = self.grid.axis_coords()
        s2t, c2t = np.sinh(2.0 * t), np.cosh(2.0 * t) / np.sinh(2.0 * t)
        xx, yy = x[:, None], x[None, :]
        return np.exp(-c2t * (xx**2 + yy**2) / 2.0 + xx * yy / s2t) / np.sqrt(
            2.0 * np.pi * s2t
        )


# ---------------------------------------------------------------------------
# Two-stage Gaussian-bound fits: first the decay rate c by least squares
# on log|K| against d^2/scale over the numerically trustworthy region,
# then the sharp prefactor C as the max ratio against the fitted bound.
# ---------------------------------------------------------------------------


def fit_gaussian_bound(entries: np.ndarray, distances: np.ndarray, scale: float,
                       prefactor: float):
    """Fit |K| <= C * prefactor * exp(-d^2 / (c * scale)); returns (C, c).

    ``scale`` is t for heat-type kernels and t^2 for heat flows written
    in the t sqrt(L) convention; ``prefactor`` is the expected on-diagonal
    size (e.g. t^{-n/2}).
    """
    mags = np.abs(np.asarray(entries)).reshape(-1)
    d2 = (np.asarray(distances).reshape(-1) ** 2) / scale
    peak = float(np.max(mags))
    if peak <= 0:
        raise ParameterError("kernel is identically zero; nothing to fit")
    region = mags > 1e-12 * peak
    # The rate is a tail property, fitted on bin-averaged log magnitudes
    # over the scale-invariant window 1 <= d^2/scale <= 40.  Binning
    # keeps the regression independent of how densely the grid happens
    # to sample each distance range; starting past one kernel width
    # keeps on-diagonal structure (e.g. the odd zero of a gradient
    # kernel) from tilting the slope.
    edges = np.linspace(1.0, 40.0, 21)
    xs, ys = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        inside = region & (d2 >= a) & (d2 < b)
        if inside.any():
            xs.append(0.5 * (a + b))
            ys.append(float(np.mean(np.log(mags[inside]))))
    if len(xs) < 2:
        # Kernel dies before the window: fall back to the raw region.
        sub = region & (d2 > 0)
        if np.ptp(d2[sub]) == 0:
            raise AccuracyError("kernel decay region is degenerate; cannot fit a rate")
        xs, ys = d2[sub], np.log(mags[sub])
    slope, _ = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    if slope >= 0:
        raise AccuracyError("kernel does not decay with distance; no Gaussian rate")
    c = -1.0 / slope
    # Prefactor: max ratio over the same trustworthy window.  Entries at
    # the numerical floor, or far beyond the fitting window, would
    # otherwise dominate through the tiny envelope tail.
    window = region & (d2 <= 40.0)
    ratios = mags[window] / (prefactor * np.exp(-d2[window] / c))
    return float(np.max(ratios)), float(c)
