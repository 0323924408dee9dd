"""Spectral multiplier profiles.

A profile is a plain function of the spectral variable s >= 0, applied
as F(t sqrt(L)) by ``SpectralOperator.profile_values``; the dilate
s -> F(t s) is ``lambda s: F(t * s)``.  Houses the smooth compactly
supported bump, its Fourier transform, the high-order-vanishing profile
used inside the dominating square function, the heat/Poisson
square-function symbols, and the L^2 normalization constant kappa of a
profile.  Bumps and their transforms integrate with one 2000-interval
Clenshaw-Curtis rule; kappa with one fixed composite Gauss-Legendre rule
on a log axis.  Import computes the rule's nodes but reads its weights
from ``clenshaw_curtis_2000.npy``, the exact bits ``clenshaw_curtis(2000)``
returns, so no process builds the rule's cosine matrix.
A profile may take an array of any shape, such as the whole (time node x
sqrt(L) level) grid of a square function's table; the bump transform
answers a batch larger than its certified Chebyshev degree from that
rule's values at the Chebyshev points, interpolated barycentrically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayClassError, ParameterError


def clenshaw_curtis(n: int):
    """Clenshaw-Curtis nodes and weights on [-1, 1] with n intervals (n even)."""
    if n < 2 or n % 2:
        raise ParameterError("clenshaw_curtis needs an even n >= 2")
    k, j = np.arange(n + 1), np.arange(n // 2 + 1)
    coeff = np.ones(n // 2 + 1)
    coeff[[0, -1]] = 0.5
    moments = 2.0 / (1.0 - 4.0 * j**2)
    # One GEMV: splitting the product moves the last bit.
    w = (2.0 / n) * (coeff * moments) @ np.cos(2.0 * np.pi * np.outer(j, k) / n)
    w[[0, -1]] *= 0.5
    return np.cos(np.pi * k / n), w


# The one rule every bump and bump transform integrates with, read-only,
# since every caller shares it.  The nodes are clenshaw_curtis's own
# expression; the weights are its GEMV's output stored bit for bit, since
# every Phi value inherits them and another summation order moves the last
# bit.  Regenerate the file, from the root of the repository, with
#   PYTHONPATH=src python -c "import numpy as np; from sqfn.multipliers import clenshaw_curtis; np.save('src/sqfn/clenshaw_curtis_2000.npy', clenshaw_curtis(2000)[1])"
# tests/test_multipliers.py::test_shipped_rule_is_the_generators_bits ties
# the file to the generator.
_CC_INTERVALS = 2000
_CC_NODES = np.cos(np.pi * np.arange(_CC_INTERVALS + 1) / _CC_INTERVALS)
_CC_WEIGHTS_FILE = os.path.join(os.path.dirname(__file__), "clenshaw_curtis_2000.npy")
_CC_WEIGHTS = np.load(_CC_WEIGHTS_FILE)
_CC_NODES.flags.writeable = False
_CC_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class BumpProfile:
    """The standard smooth bump c_a * exp(-1/(1-(s/a)^2)) on (-a, a).

    Even, non-negative, exactly supported in [-a, a] and normalized to
    unit integral.  Default radius 1/10; radius 1 is used where the
    compact-support kernel lemma needs support inside (-1, 1).
    """

    support_radius: float = 0.1
    normalization: float = field(init=False)

    def __post_init__(self):
        if not (self.support_radius > 0):
            raise ParameterError("support_radius must be positive")
        unit_mass = float(_CC_WEIGHTS @ _raw_bump(_CC_NODES))
        object.__setattr__(self, "normalization", 1.0 / (self.support_radius * unit_mass))

    def __call__(self, s):
        out = self.normalization * _raw_bump(np.asarray(s, dtype=float) / self.support_radius)
        return out if out.ndim else float(out)


def _raw_bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


class FourierBump:
    """Fourier transform Phi(s) = integral phi(u) e^{-ius} du of a bump.

    phi is even so Phi is real and even, Phi(0) = 1 and |Phi| <= 1.
    Evaluation is Clenshaw-Curtis quadrature over the bump's support,
    vectorized over the requested spectral nodes.  A call runs it at
    every live point, unless it has more live points than the n + 1
    Chebyshev points of [0, max|s|] whose interpolant is certified to
    hold the quadrature's own Phi there (``_chebyshev_degree``): then it
    runs at those points only, and the rest is barycentric interpolation.
    """

    def __init__(self, bump: BumpProfile):
        a = bump.support_radius
        self._radius = a
        self._nodes = a * _CC_NODES
        self._weights = a * _CC_WEIGHTS * bump(self._nodes)
        # Frequencies above intervals/(2a) alias through the quadrature;
        # the true transform is below double-precision there, so report 0.
        self.valid_to = _CC_INTERVALS / (2.0 * a)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        out = np.zeros_like(flat)
        live = np.abs(flat) <= self.valid_to
        src = flat[live]
        top = float(np.max(np.abs(src), initial=0.0))
        n = _chebyshev_degree(self._radius * top / 2.0)
        table = self._chebyshev_values(top, n) if 0 < top and n + 1 < src.size else None
        out[live] = self._quadrature(src) if table is None else _barycentric(np.abs(src), *table)
        out = out.reshape(s.shape)
        return out if out.ndim else float(out)

    def _quadrature(self, src: np.ndarray) -> np.ndarray:
        """Phi at every point of src by the Clenshaw-Curtis sum."""
        res = np.empty_like(src)
        # Chunked to bound the outer-product workspace, which cos overwrites.
        for i in range(0, src.size, _ROWS):
            phase = np.outer(src[i : i + _ROWS], self._nodes)
            res[i : i + _ROWS] = np.cos(phase, out=phase) @ self._weights
        return res

    def _chebyshev_values(self, top: float, n: int):
        """(points, Phi there) at the n + 1 Chebyshev points of [0, top], or
        None unless the values' last two Chebyshev coefficients confirm
        the degree, each below _TRAILING_TOL."""
        points = 0.5 * top * (1.0 + np.cos(np.pi * np.arange(n + 1) / n))
        vals = self._quadrature(points)
        # the DCT-I of the values by one FFT of their even extension
        coeffs = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
        if not np.max(np.abs(coeffs[-2:])) <= _TRAILING_TOL:
            return None
        return points, vals


# Rows per chunk of FourierBump's workspace: 4096 x 2001 quadrature nodes,
# or 4096 x (n + 1) <= 4096 x 2001 Chebyshev points.
_ROWS = 4096

# The degree rule.  The quadrature's Phi is sum_j w_j cos(s x_j) with
# every w_j >= 0, sum_j w_j = Phi(0) ~ 1 and |x_j| <= a.  On [0, S] with
# s = S (1 + u) / 2, one cosine has Chebyshev coefficients in u of size
# |a_k| <= 2 |J_k(x_j S / 2)| <= 2 (c/2)^k / k!, c = a S / 2 (Jacobi-Anger;
# DLMF 10.14.4).  The degree-n interpolant at Chebyshev points errs by at
# most 2 sum_{k > n} |a_k| (Trefethen, Approximation Theory and
# Approximation Practice, ch. 4), which is <= 8 (c/2)^(n+1) / (n+1)! once
# n + 1 >= c, as the terms then at least halve.  The degree holds that
# below one unit roundoff; the trailing coefficients computed from the
# values must confirm it.
_CHEBYSHEV_TOL = 2.0**-53
_TRAILING_TOL = 1e-14


def _chebyshev_degree(c: float) -> int:
    """The smallest n >= max(1, c - 1) with 8 (c/2)^(n+1) / (n+1)! <= _CHEBYSHEV_TOL."""
    n, bound = 1, c * c
    while n + 1 < c or bound > _CHEBYSHEV_TOL:
        n += 1
        bound *= 0.5 * c / (n + 1)
    return n


def _barycentric(x: np.ndarray, points: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The interpolant through vals at Chebyshev points of the second kind,
    at x, by the second barycentric formula (Berrut-Trefethen, SIAM Review
    46, 2004) in row chunks; an x on a point takes that point's value."""
    w = (-1.0) ** np.arange(points.size)
    w[[0, -1]] *= 0.5
    out = np.empty_like(x)
    for i in range(0, x.size, _ROWS):
        diff = np.subtract.outer(x[i : i + _ROWS], points)
        hit = diff == 0.0
        diff[hit] = 1.0
        q = np.divide(w, diff, out=diff)
        out[i : i + _ROWS] = (q @ vals) / q.sum(axis=1)
        rows, cols = np.nonzero(hit)
        out[i + rows] = vals[cols]
    return out


def psi_vanishing(n: int):
    """The profile s^(2n+2) * Phi(s)^3 with order-(2n+2) vanishing at 0,
    Phi the transform of the radius-1/10 bump."""
    if n not in (1, 2):
        raise ParameterError(f"dimension must be 1 or 2, got {n}")
    phi = FourierBump(BumpProfile(0.1))
    power = 2 * n + 2

    def psi(s):
        return s**power * phi(s) ** 3

    return psi


_SQUARE_SYMBOLS = {
    "s_h": lambda z: z**2 * np.exp(-(z**2)),
    "s_p": lambda z: z * np.exp(-z),
    "S_H-scalar": lambda z: np.exp(-(z**2)),
    "S_P-scalar": lambda z: np.exp(-z),
}


def square_symbol(kind: str):
    """Scalar symbols of the four square functions.

    The horizontal symbols are z^2 e^{-z^2} (heat) and z e^{-z}
    (Poisson); the vertical kinds return the bare semigroup symbol, with
    the factor t*gradient applied spatially by the operator.
    """
    if kind not in _SQUARE_SYMBOLS:
        raise ParameterError(f"unknown symbol kind {kind!r}; choose from {sorted(_SQUARE_SYMBOLS)}")
    return _SQUARE_SYMBOLS[kind]


def kappa(psi) -> float:
    """kappa = (integral_0^inf |psi(t)|^2 dt/t)^(1/2): 68 equal panels of 64
    Gauss-Legendre nodes on the log axis v = log t in [-34, 34], at both ends
    of which |psi(e^v)|^2 must fall below 1e-13."""
    integrand = lambda v: np.abs(psi(np.exp(v))) ** 2
    lo, hi, panels = -34.0, 34.0, 68
    if integrand(lo) > 1e-13 or integrand(hi) > 1e-13:
        raise DecayClassError(
            "profile lacks the decay/vanishing needed for the dt/t integral to converge"
        )
    x, w = np.polynomial.legendre.leggauss(64)
    half = (hi - lo) / (2 * panels)
    mids = np.linspace(lo + half, hi - half, panels)
    total = half * (np.tile(w, panels) @ integrand((mids[:, None] + half * x).ravel()))
    return float(np.sqrt(total))
