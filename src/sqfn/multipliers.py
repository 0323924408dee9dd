"""Spectral multiplier profiles.

A profile is a plain function of the spectral variable s >= 0, applied
as F(t sqrt(L)) by ``SpectralOperator.profile_values``; the dilate
s -> F(t s) is ``lambda s: F(t * s)``.  Houses the smooth compactly
supported bump, its Fourier transform, the high-order-vanishing profile
used inside the dominating square function, the heat/Poisson
square-function symbols, and the L^2 normalization constant kappa of a
profile.  Bumps and their transforms integrate with one Clenshaw-Curtis
rule; kappa with one fixed composite Gauss-Legendre rule on a log axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecayClassError, ParameterError


def clenshaw_curtis(n: int):
    """Clenshaw-Curtis nodes and weights on [-1, 1] with n intervals (n even)."""
    if n < 2 or n % 2:
        raise ParameterError("clenshaw_curtis needs an even n >= 2")
    k = np.arange(n + 1)
    x = np.cos(np.pi * k / n)
    j = np.arange(n // 2 + 1)
    moments = 2.0 / (1.0 - 4.0 * j**2)
    coeff = np.ones(n // 2 + 1)
    coeff[0] = 0.5
    coeff[-1] = 0.5
    w = (2.0 / n) * (coeff * moments) @ np.cos(2.0 * np.pi * np.outer(j, k) / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


# The one rule every bump and bump transform integrates with, built once
# at import and read-only, since every caller shares it.
_CC_INTERVALS = 2000
_CC_NODES, _CC_WEIGHTS = clenshaw_curtis(_CC_INTERVALS)
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

    def integral(self) -> float:
        """Quadrature value of the total mass (should be 1 to 1e-10)."""
        a = self.support_radius
        return float(a * (_CC_WEIGHTS @ self(a * _CC_NODES)))


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
    vectorized over the requested spectral nodes.
    """

    def __init__(self, bump: BumpProfile):
        a = bump.support_radius
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
        res = np.empty_like(src)
        # Chunked to bound the outer-product workspace, which cos overwrites.
        step = 4096
        for i in range(0, src.size, step):
            phase = np.outer(src[i : i + step], self._nodes)
            res[i : i + step] = np.cos(phase, out=phase) @ self._weights
        out[live] = res
        out = out.reshape(s.shape)
        return out if out.ndim else float(out)


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
