"""An exact ladder of false and true L^2 bounds from Stein's g*_mu threshold.

With w = 1, int (g*_mu f)^2 = sum_j w_j m_j(mu) int |psi(t_j sqrt(L)) f|^2,
where w_j = h^n log(ratio) / t_j^n is the node's weight and m_j the mass
sum_x (t_j / (t_j + |x|))^(n mu) of its kernel.  So the sup over f of the
ratio int (g* f)^2 / int |f|^2 is the spectral maximum
lambda = max_s sum_j w_j m_j psi(t_j s)^2, with no family and no
eigen-solve.  On R^n the mass is finite exactly when mu > 1 (Stein).  On
the 1-D torus it is finite for every mu, and under refinement it grows at
the predicted rate when mu <= 1: like h^(-1/2) at mu = 1/2 and like
log(1/h) at mu = 1.  Above the threshold it converges, at order 1/2 at
mu = 3/2.  Three resolutions N, 2N, 4N give q = (v4 - v2) / (v2 - v1),
which tends to 2^(-alpha) for convergence at order alpha, to 1 for
logarithmic growth and above 1 for power growth.  The rows are the
calibration set of a gate that can see slow divergence, which the
N -> 2N factor-2 gate cannot: each row passes it.

The library refuses mu <= 1, as that is the theorem's hypothesis, so the
kernel masses are built here from the lab's own ``_transformed`` stack;
psi is the lab's ``psi_vanishing`` and the time grid is ``sqfn run``'s
cone grid.
"""

import numpy as np
import pytest

from sqfn import cli
from sqfn.grid import GridFunction
from sqfn.multipliers import psi_vanishing
from sqfn.squarefuncs import _transformed, square_function_operator

N_LADDER = (128, 256, 512, 1024, 2048)


def _plan(dim: int, n: int):
    return cli._Plan(cli.parse_config(None, {"operator.dim": str(dim), "operator.n": str(n)}))


def _levels(plan, mu: float) -> np.ndarray:
    """sum_j w_j m_j(mu) psi(t_j s)^2 at every spectral level s."""
    op, times = plan.op, plan.times("cone")
    t = times.nodes
    psi = psi_vanishing(op.dim)
    squares = op.level_values(lambda s: psi(np.multiply.outer(t, s))).real ** 2
    stack = _transformed(op, times, lambda tj, dist: (tj / (tj + dist)) ** (op.dim * mu))
    mass = stack.reshape(times.count, -1)[:, 0].real  # the zero-frequency entry
    return (op.grid.cell_volume * times.log_weight / t**op.dim * mass) @ squares


@pytest.fixture(scope="module")
def ladder():
    """mu -> the spectral maximum at each N of N_LADDER, on the 1-D torus."""
    plans = [_plan(1, n) for n in N_LADDER]
    return {mu: np.array([_levels(plan, mu).max() for plan in plans])
            for mu in (0.5, 1.0, 1.5, 3.5)}


# mu -> the limit of q the analysis predicts: h^(-1/2) growth, log(1/h)
# growth, and convergence at order 1/2
@pytest.mark.parametrize("mu, q_limit", [(0.5, 2**0.5), (1.0, 1.0), (1.5, 2**-0.5)])
def test_increment_ratio_reads_the_predicted_rate(ladder, mu, q_limit):
    v = ladder[mu]
    assert np.all(np.diff(v) > 0), v
    q = (v[2:] - v[1:-1]) / (v[1:-1] - v[:-2])
    assert np.all(np.abs(q - q_limit) < 0.1), q


def test_above_the_threshold_the_ladder_converges(ladder):
    v = ladder[3.5]
    assert abs(v[-1] - v[-2]) < 1e-4 * v[-1], v


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32), (2, 64)])
def test_g_star_of_a_pure_mode_is_the_spectral_value(dim, n):
    """A pure mode f = e^{i xi.x} with |f| = 1 at the maximising level s has
    |psi(t_j sqrt(L)) f|^2 = psi(t_j s)^2 everywhere, so the lab's g* at
    mu = 3.5 must read (g* f)^2 = lambda(s) at every point."""
    plan = _plan(dim, n)
    op = plan.op
    levels = _levels(plan, 3.5)
    top = int(np.argmax(levels))
    where = op.spread(np.arange(levels.size))
    coeffs = np.zeros(op.grid.shape, dtype=complex)
    coeffs[tuple(np.argwhere(where == top)[0])] = 1.0
    mode = op.inverse(coeffs)
    f = GridFunction(op.grid, mode / np.abs(mode))
    gf = square_function_operator("g_star", op, plan.times("cone"), mu=3.5)(f)
    assert np.max(np.abs(gf.values**2 / levels[top] - 1.0)) < 1e-12
