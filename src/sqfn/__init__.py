"""Numerical laboratory for semigroup square functions and weighted bounds.

Builds spectral operators (torus Laplacian in one and two dimensions,
one-dimensional harmonic oscillator), their square functions and
maximal operators, Muckenhoupt weight machinery and Whitney/CZ
decompositions, and an empirical harness that measures every inequality
as a ratio report or a growth fit.
"""

from .errors import SqfnError
from .grid import Grid, GridFunction, Weight, lp_norm, weighted_lp_norm
from .multipliers import BumpProfile, kappa, psi_vanishing, square_symbol
from .spectral import HermiteOscillator1D, LaplacianTorus
from .squarefuncs import ConeQuadrature, TimeGrid, area_integral, g_function, g_star
from .weights import ap_constant, maximal, rubio_de_francia
from .decomp import cz_decomposition, whitney
from .verify import (GrowthFit, RatioReport, TestFamily, band_limited_family,
                     default_operator, mixed_family, square_function_operator)

__version__ = "0.1.0"

__all__ = [
    "SqfnError", "Grid", "GridFunction", "Weight", "lp_norm",
    "weighted_lp_norm", "BumpProfile", "kappa", "psi_vanishing",
    "square_symbol", "HermiteOscillator1D", "LaplacianTorus",
    "ConeQuadrature", "TimeGrid", "area_integral", "g_function", "g_star",
    "ap_constant", "maximal", "rubio_de_francia", "cz_decomposition",
    "whitney", "GrowthFit", "RatioReport", "TestFamily",
    "band_limited_family", "default_operator", "mixed_family",
    "square_function_operator",
]
