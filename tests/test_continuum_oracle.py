"""A continuum oracle: the heat flow of a periodized Gaussian in closed form.

On R^n, e^{-tau L} with L = -Laplacian maps the Gaussian
exp(-|x|^2 / (2 sigma^2)) to (sigma^2/s)^{n/2} exp(-|x|^2 / (2 s)),
s = sigma^2 + 2 tau.  On the torus [-R, R)^n the exact image of the
periodized Gaussian, the sum over the images x + 2Rk, is the sum of those
images.  So, at tau = t^2,

    t^2 L e^{-t^2 L} f = -t^2 d/dtau e^{-tau L} f = t^2 u (n/s - |x|^2/s^2),
    t grad e^{-t^2 L} f = -t (x/s) u,

summed over the images, and g_h^2 and G_H^2 at every grid point are the
sums over the lab's time nodes of those closed forms squared, times
log(ratio).  With sigma = 4h the Gaussian's Fourier coefficients beyond the
grid's Nyquist frequency are below e^{-8 pi^2}, so the sampled input is the
continuum one to roundoff, and the lab must match to 1e-12 of the maximum.
The input has to be periodized: with the bare Gaussian as both input and
closed form, g_h misses by 1.0e-2 of the maximum on the 2-D torus at N = 32
and by 2.2e-4 in 1-D at N = 256.

Only the g-functions (delta kernel) are checked here.  The cone kinds and g*
convolve with kernel stacks built from grid.distance_from_origin(), which is
centred at index N/2 where the FFT takes index 0 as the origin, so they come
out translated by R along every axis and fail this oracle until that
centring is fixed.
"""

import itertools

import numpy as np
import pytest

from sqfn.cli import _Plan, parse_config
from sqfn.grid import GridFunction

_IMAGES = 3  # images past |k| = 3 lie >= 7 away, below e^-130 at R = 1


def _displaced(grid):
    """For each periodic image k, the coordinate arrays x + 2Rk, one per axis."""
    coords, two_r = grid.coords(), 2.0 * grid.half_width
    for k in itertools.product(range(-_IMAGES, _IMAGES + 1), repeat=grid.dim):
        yield [c + two_r * ki for c, ki in zip(coords, k)]


def _periodized_heat(grid, sigma: float, t: float) -> tuple:
    """t^2 L e^{-t^2 L} f and the components of t grad e^{-t^2 L} f for the
    periodized Gaussian f of width sigma, in closed form on the grid."""
    n = grid.dim
    s = sigma**2 + 2.0 * t**2
    horizontal = np.zeros(grid.shape)
    gradient = [np.zeros(grid.shape) for _ in range(n)]
    for d in _displaced(grid):
        r2 = sum(di**2 for di in d)
        u = (sigma**2 / s) ** (n / 2.0) * np.exp(-r2 / (2.0 * s))
        horizontal += t**2 * u * (n / s - r2 / s**2)
        for axis in range(n):
            gradient[axis] -= t * d[axis] / s * u
    return horizontal, gradient


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32), (2, 64)])
@pytest.mark.parametrize("role", ["cone", "identity"])
def test_g_functions_match_the_periodized_closed_form(dim, n, role):
    """g_h^2 and G_H^2 on the lab's own time grid (default R = 1) equal the
    closed form's Riemann sum to 1e-12 of its maximum at every grid point."""
    plan = _Plan(parse_config(None, {"operator.dim": str(dim), "operator.n": str(n)}))
    grid, times = plan.op.grid, plan.times(role)
    sigma = 4.0 * grid.spacing
    f = GridFunction(grid, sum(np.exp(-sum(di**2 for di in d) / (2.0 * sigma**2))
                               for d in _displaced(grid)))
    g_h2, G_H2 = np.zeros(grid.shape), np.zeros(grid.shape)
    for t in times.nodes:
        horizontal, gradient = _periodized_heat(grid, sigma, float(t))
        g_h2 += horizontal**2 * times.log_weight
        G_H2 += sum(c**2 for c in gradient) * times.log_weight
    for kind, oracle in (("g_h", g_h2), ("G_H", G_H2)):
        lab = plan.square(kind, role)(f).values.real ** 2
        err = float(np.max(np.abs(lab - oracle))) / float(np.max(oracle))
        assert err <= 1e-12, (kind, err)
