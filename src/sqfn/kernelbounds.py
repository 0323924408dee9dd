"""Kernel-bound sweeps: fitted constants for four kernel estimates.

``sweep(op, lemma)`` samples the lemma's kernel at five times of its
window for each variant (oversampled on the 1-D torus, a dense matrix
otherwise), fits the bound's shape and returns, per record tag, C_fit and
any c_fit or support_violation_mass at each time.  ``_LEMMAS`` is the
whole table: each lemma's window in units of R, variants, tag letter,
shared factor (evaluated once per t) and fit:

* compact support (kappa in {0, 1, 2}) — kernel of (t^2 L)^kappa
  Phi(t sqrt(L)), Phi a bump supported in (-1, 1): sup bounded by
  C t^{-n}, mass outside |x-y| <= t + SUPPORT_HALO_CELLS h measured;
* smoothed difference (r/t in {1/2, 1, 2}) — kernel of Psi(t sqrt(L))(1 -
  Phi(r sqrt(L))): |K| <= C (r / t^{n+1}) (1 + |x-y|^2/t^2)^{-(n+1)/2};
* Poisson decay (kappa in {0, 1, 2}) — kernel of (t sqrt(L))^{2 kappa}
  e^{-t sqrt(L)}: |K| <= C t^{-n} (1 + |x-y|/t)^{-(n + 2 kappa + 1)};
* gradient heat (kappa in {0, 1}, 1-D) — gradient kernel of (t^2 L)^kappa
  e^{-t^2 L}: two-stage Gaussian fit with prefactor t^{-(n+1)}.
"""

from __future__ import annotations

import numpy as np

from . import constants
from .errors import ParameterError
from .multipliers import BumpProfile, FourierBump, psi_vanishing
from .spectral import SpectralOperator, fit_gaussian_bound


def _periodized(envelope, grid):
    """Wrap a decay envelope around the torus: sum over three periodic
    images on each side.

    Polynomially decaying kernels pick up visible contributions from
    neighboring fundamental cells; the transferred bound on the torus is
    the periodized envelope.
    """
    period = 2.0 * grid.half_width

    def wrapped(d):
        total = np.zeros_like(np.asarray(d, dtype=float))
        for j in range(-3, 4):
            total += envelope(np.abs(d + j * period))
        return total

    return wrapped


def _sup_fit(op: SpectralOperator, dist, vals, envelope) -> dict:
    """C_fit = sup |K| / envelope(d), the envelope periodized, over the
    numerically trustworthy region.

    Entries below 1e-12 of the kernel peak sit at the discretization /
    roundoff floor and would dominate the ratio through the tiny
    envelope tail, so they are excluded (same rule as the Gaussian fit).
    """
    mags = np.abs(vals)
    region = mags > 1e-12 * float(np.max(mags))
    env = _periodized(envelope, op.grid)(dist)
    return {"C_fit": float(np.max(mags[region] / env[region]))}


def _kernel_samples(op: SpectralOperator, profile, gradient: bool = False):
    """Flat (distances, values) kernel samples, oversampled when possible."""
    if op.grid.dim == 1 and hasattr(op, "kernel_profile"):
        dist, vals = op.kernel_profile(profile, gradient=gradient)
    else:
        dist, vals = (op.kernel_gradient_matrix if gradient else op.kernel_matrix)(profile)
    return dist.reshape(-1), vals.reshape(-1)


def _compact_support(op: SpectralOperator, t: float, kappa: int, phi_t) -> dict:
    """Bump of radius 1, phi_t = Phi_1(t s) on the spectral levels s: sup
    times t^n, and the mass outside t + halo."""
    dist, vals = _kernel_samples(op, lambda s: (t * s) ** (2 * kappa) * phi_t)
    mags = np.abs(vals)
    outside = dist > t + constants.SUPPORT_HALO_CELLS * op.grid.spacing
    total = float(np.sum(mags))
    return {"C_fit": float(np.max(mags)) * t**op.dim,
            "support_violation_mass":
                float(np.sum(mags[outside])) / total if total > 0 else 0.0}


def _smoothed_difference(op: SpectralOperator, t: float, r_over_t: float, psi_t) -> dict:
    """psi_t = Psi(t s) on the spectral levels s, Psi = psi_vanishing; Phi
    the transform of the radius-1/10 bump."""
    phi = FourierBump(BumpProfile(0.1))
    r = r_over_t * t
    dist, vals = _kernel_samples(op, lambda s: psi_t * (1.0 - phi(r * s)))
    n = op.dim
    envelope = lambda d: (r / t ** (n + 1)) * (1.0 + d**2 / t**2) ** (-(n + 1) / 2.0)
    return _sup_fit(op, dist, vals, envelope)


def _poisson_decay(op: SpectralOperator, t: float, kappa: int, _shared) -> dict:
    dist, vals = _kernel_samples(op, lambda s: (t * s) ** (2 * kappa) * np.exp(-t * s))
    n = op.dim
    envelope = lambda d: t ** (-n) * (1.0 + d / t) ** (-(n + 2 * kappa + 1))
    return _sup_fit(op, dist, vals, envelope)


def _gradient_heat(op: SpectralOperator, t: float, kappa: int, _shared) -> dict:
    """Two-stage Gaussian fit of |grad_x K| <= C t^{-(n+1)} exp(-d^2 / (c t^2))."""
    dist, vals = _kernel_samples(
        op, lambda s: (t * s) ** (2 * kappa) * np.exp(-((t * s) ** 2)), gradient=True
    )
    C, c = fit_gaussian_bound(vals, dist, t**2, t ** (-(op.dim + 1)))
    return {"C_fit": C, "c_fit": c}


# lemma -> (time window (lo, hi) in units of R, first tuned at N = 128, R = 1;
# variants; their tag letter; op -> the profile F whose dilate F(t s) every
# variant shares, or None; (op, t, variant, F(t s) on the spectral levels s)
# -> the fit fields)
_LEMMAS = {
    "compact_support": ((0.7, 0.93), (0, 1, 2), "k",
                        lambda op: FourierBump(BumpProfile(1.0)), _compact_support),
    "smoothed_difference": ((0.45, 0.8), (0.5, 1.0, 2.0), "rho",
                            lambda op: psi_vanishing(op.dim), _smoothed_difference),
    "poisson_decay": ((0.12, 0.3), (0, 1, 2), "k", None, _poisson_decay),
    "gradient_heat": ((0.03, 0.078), (0, 1), "k", None, _gradient_heat),
}


def sweep(op: SpectralOperator, lemma: str) -> dict:
    """The lemma's fit fields at the five times R * geomspace(lo, hi, 5) of
    its window, per variant, keyed by record tag (``compact_support_k0``,
    ``smoothed_difference_rho0.5``, ...).  At each t the shared factor,
    Phi_1(t sqrt(L)) or psi(t sqrt(L)), is evaluated once on the operator's
    spectral levels, before the variants' calls."""
    (lo, hi), variants, letter, shared, fit = _LEMMAS[lemma]
    profile = shared(op) if shared else None
    fits = {f"{lemma}_{letter}{v:g}": [] for v in variants}
    for t in map(float, op.grid.half_width * np.geomspace(lo, hi, 5)):
        dilated = profile(t * op.spectral_nodes()) if profile else None
        for variant, each in zip(variants, fits.values()):
            each.append(fit(op, t, variant, dilated))
    return fits


def constant_variation(records: list) -> float:
    """max/min - 1 of the fitted constants across a sweep."""
    if not records:
        raise ParameterError("constant_variation needs a sweep over a non-empty time grid")
    cs = np.array([rec["C_fit"] for rec in records], dtype=float)
    if not np.all(np.isfinite(cs)) or np.min(cs) <= 0:
        raise ParameterError("sweep produced non-finite or non-positive constants")
    return float(np.max(cs) / np.min(cs) - 1.0)
