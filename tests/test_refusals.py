"""Each library refusal of a single bad argument, reached once.

One id per ``raise``: the bad argument, the error class the caller gets and
a fragment of its message.  No other test reaches these refusals.  The
cheap ways in: the budget refusal of a dense kernel matrix on the 2-D
torus at N = 128 (its 4 GiB would exceed the budget), a maximal-function
norm too small for the Rubio de Francia series to converge, and the
default cone time grid of the 2-D torus at N = 128, which captures no
torus mode to the plancherel level.
"""

import numpy as np
import pytest

from sqfn.cli import _Plan, parse_config
from sqfn.errors import (AccuracyError, BandError, CapabilityError, ConvergenceError,
                         NonFiniteError, ParameterError, ResourceError, SingularWeightError)
from sqfn.grid import Grid, GridFunction, Weight, weighted_superlevel_measure
from sqfn.multipliers import BumpProfile
from sqfn.spectral import HermiteOscillator1D, LaplacianTorus, fit_gaussian_bound
from sqfn.squarefuncs import TimeGrid
from sqfn.verify import (band_limited_family, check_growth_in_p, check_growth_in_ap,
                         check_lp_range, check_sharp_composite, mixed_family)
from sqfn.weights import ap_constant, local_sharp_maximal, rubio_de_francia

G1 = Grid(1, 64, 1.0)
G2 = Grid(2, 16, 1.0)


def _ones(grid=G1):
    return GridFunction(grid, np.ones(grid.shape))


def _family(count=2):
    return mixed_family(G1, 7, count=count)


def _heat(s):
    return np.exp(-0.01 * s**2)


def _cone_band_2d():
    plan = _Plan(parse_config(None, {"operator.dim": "2", "operator.n": "128"}))
    return band_limited_family(plan.op, plan.times("cone"), 7, 4)


# id: (call, error class, message fragment)
_REFUSALS = {
    "GridFunction-nonfinite": (lambda: GridFunction(G1, np.full(64, np.nan)),
                               NonFiniteError, "must be finite"),
    "Weight-complex": (lambda: Weight(GridFunction(G1, np.full(64, 1j))),
                       ParameterError, "real-valued"),
    "Weight-zero": (lambda: Weight(GridFunction(G1, np.zeros(64))),
                    ParameterError, "positive somewhere"),
    "weighted_superlevel_measure-level": (
        lambda: weighted_superlevel_measure(_ones(), Weight.ones(G1), 0.0),
        ParameterError, "level must be positive"),
    "BumpProfile-radius": (lambda: BumpProfile(0.0), ParameterError, "support_radius"),
    "kernel_matrix-budget": (lambda: LaplacianTorus(Grid(2, 128, 1.0)).kernel_matrix(_heat),
                             ResourceError, "budget is"),
    "poisson_semigroup-time": (lambda: LaplacianTorus(G1).poisson_semigroup(0.0, _ones()),
                               ParameterError, "Poisson time must be positive"),
    "poisson_semigroup-method": (
        lambda: LaplacianTorus(G1).poisson_semigroup(0.1, _ones(), method="nope"),
        ParameterError, "unknown Poisson method 'nope'"),
    "wave_cosine-time": (lambda: LaplacianTorus(G1).wave_cosine(-1.0, _ones()),
                         ParameterError, "wave time must be non-negative"),
    "kernel_gradient_matrix-2d": (lambda: LaplacianTorus(G2).kernel_gradient_matrix(_heat),
                                  CapabilityError, "gradient kernel matrices are 1-D only"),
    "kernel_profile-2d": (lambda: LaplacianTorus(G2).kernel_profile(_heat),
                          CapabilityError, "kernel profiles are 1-D only"),
    "HermiteOscillator1D-2d": (lambda: HermiteOscillator1D(G2),
                               ParameterError, "one-dimensional"),
    "synthesize-length": (
        lambda: HermiteOscillator1D(Grid(1, 128, 12.0), 16).synthesize(np.zeros(3)),
        ParameterError, "must equal the truncation"),
    "mehler_heat_kernel-time": (
        lambda: HermiteOscillator1D(Grid(1, 128, 12.0), 16).mehler_heat_kernel(0.0),
        ParameterError, "heat time must be positive"),
    "fit_gaussian_bound-zero": (
        lambda: fit_gaussian_bound(np.zeros(8), np.arange(8.0), 1.0, 1.0),
        ParameterError, "identically zero"),
    "fit_gaussian_bound-growing": (
        lambda: fit_gaussian_bound(np.exp(np.linspace(0, 6, 50) ** 2 / 100),
                                   np.linspace(0, 6, 50), 1.0, 1.0),
        AccuracyError, "does not decay"),
    "TimeGrid-count": (lambda: TimeGrid(0.1, 2.0, 0), ParameterError, "count must be >= 1"),
    "band_limited_family-torus-mode": (_cone_band_2d, BandError, "captures no torus mode"),
    "check_lp_range-zero-weight": (
        lambda: check_lp_range(list(_family().members), _family(),
                               [Weight(GridFunction(G1, np.r_[0.0, np.ones(63)]))], 4.0),
        SingularWeightError, "strictly positive weight"),
    "check_growth_in_p-few": (
        lambda: check_growth_in_p(list(_family(4).members), _family(4), [2, 4, 8, 16]),
        ParameterError, "family too small"),
    "check_growth_in_ap-narrow": (
        lambda: check_growth_in_ap(list(_family().members), _family(),
                                   [Weight.ones(G1)] * 3, 2.0),
        ParameterError, "span at least a decade"),
    "check_sharp_composite-p": (
        lambda: check_sharp_composite(_family(), [Weight.ones(G1)], 2.0),
        ParameterError, "needs p > 2"),
    "ap_constant-dual-overflow": (
        lambda: ap_constant(Weight(GridFunction(G1, np.full(64, 1e-300))), 1.001),
        SingularWeightError, "overflows for p = 1.001"),
    "rubio_de_francia-norm": (lambda: rubio_de_francia([_ones()], 2.0, maximal_norm=0.0),
                              ParameterError, "maximal_norm must be positive"),
    "rubio_de_francia-divergent": (
        lambda: rubio_de_francia([_ones()], 2.0, maximal_norm=0.05),
        ConvergenceError, "has not converged"),
    "local_sharp_maximal-complex": (
        lambda: local_sharp_maximal(GridFunction(G1, np.full(64, 1j)), 0.25),
        ParameterError, "defined for real inputs"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_a_single_bad_argument_is_refused(case):
    call, error, fragment = _REFUSALS[case]
    with pytest.raises(error, match=fragment):
        call()


@pytest.mark.parametrize("w, p", [(np.full(64, 1e-300), 1.001),
                                  (np.r_[np.ones(63), 1e-20], 1.05)])
def test_ap_constant_reports_a_dual_overflow_without_a_warning(w, p):
    """The overflow of w^(-1/(p-1)) reaches the caller as the refusal, not as
    NumPy's RuntimeWarning (an error under this suite's warning filter)."""
    with pytest.raises(SingularWeightError, match="overflows"):
        ap_constant(Weight(GridFunction(G1, w)), p)
