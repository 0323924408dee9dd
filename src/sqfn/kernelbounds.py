"""Kernel-bound sweeps: fitted constants for four kernel estimates.

``sweep(op, lemma, t_values, variants)`` samples the lemma's kernel at
each t for each variant (oversampled on the 1-D torus, a dense matrix
otherwise), fits the bound's shape and returns, per variant, one record
per t: lemma, t, r, kappa, C_fit, c_fit and support_violation_mass (None
where unused).  At each t the factor every variant shares is evaluated
once.  ``_LEMMAS`` gives each lemma's variant, shared factor and fit:

* compact support (kappa in {0, 1, 2}) — kernel of (t^2 L)^kappa
  Phi(t sqrt(L)), Phi a bump supported in (-1, 1): sup bounded by
  C t^{-n}, mass outside |x-y| <= t + SUPPORT_HALO_CELLS h measured;
* smoothed difference (r/t > 0) — kernel of Psi(t sqrt(L))(1 -
  Phi(r sqrt(L))): |K| <= C (r / t^{n+1}) (1 + |x-y|^2/t^2)^{-(n+1)/2};
* Poisson decay (kappa >= 0) — kernel of (t sqrt(L))^{2 kappa}
  e^{-t sqrt(L)}: |K| <= C t^{-n} (1 + |x-y|/t)^{-(n + 2 kappa + 1)};
* gradient heat (kappa >= 0, 1-D) — gradient kernel of (t^2 L)^kappa
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


# lemma -> (variant key, variant check, op -> the profile F whose dilate
# F(t s) every variant shares or None, (op, t, variant, the values of F(t s)
# on the spectral levels s) -> the record's fit fields)
_LEMMAS = {
    "compact_support": ("kappa", lambda v: v in (0, 1, 2),
                        lambda op: FourierBump(BumpProfile(1.0)), _compact_support),
    "smoothed_difference": ("r_over_t", lambda v: v > 0,
                            lambda op: psi_vanishing(op.dim), _smoothed_difference),
    "poisson_decay": ("kappa", lambda v: v >= 0, None, _poisson_decay),
    "gradient_heat": ("kappa", lambda v: v >= 0, None, _gradient_heat),
}


def sweep(op: SpectralOperator, lemma: str, t_values, variants) -> list:
    """Run one lemma's sweep over a time grid for each variant; returns one
    record list per variant, in the order of ``variants``.

    A variant is kappa (0, 1 or 2 for compact support, >= 0 otherwise),
    or r/t > 0 for the smoothed difference.  At each t, Phi_1(t sqrt(L))
    (compact support) or psi(t sqrt(L)) (smoothed difference) is evaluated
    once on the operator's spectral levels, before the variants' calls.
    """
    if lemma not in _LEMMAS:
        raise ParameterError(f"unknown kernel lemma {lemma!r}")
    key, valid, shared, fit = _LEMMAS[lemma]
    if len(variants) == 0:
        raise ParameterError(f"{lemma}: no {key} to sweep")
    for variant in variants:
        if not valid(variant):
            raise ParameterError(f"{lemma}: invalid {key} {variant!r}")
    if len(t_values) == 0:
        raise ParameterError(f"{lemma}: the time grid is empty")
    profile = shared(op) if shared else None
    records = [[] for _ in variants]
    for t in t_values:
        t = float(t)
        if not (t > 0):
            raise ParameterError(f"{lemma}: t must be positive, got {t}")
        dilated = profile(t * op.spectral_nodes()) if profile else None
        for variant, recs in zip(variants, records):
            fields = fit(op, t, variant, dilated)
            recs.append({
                "lemma": lemma,
                "t": t,
                "r": variant * t if key == "r_over_t" else None,
                "kappa": variant if key == "kappa" else None,
                "C_fit": fields["C_fit"],
                "c_fit": fields.get("c_fit"),
                "support_violation_mass": fields.get("support_violation_mass"),
            })
    return records


def constant_variation(records: list) -> float:
    """max/min - 1 of the fitted constants across a sweep."""
    if not records:
        raise ParameterError("constant_variation needs a sweep over a non-empty time grid")
    cs = np.array([rec["C_fit"] for rec in records], dtype=float)
    if not np.all(np.isfinite(cs)) or np.min(cs) <= 0:
        raise ParameterError("sweep produced non-finite or non-positive constants")
    return float(np.max(cs) / np.min(cs) - 1.0)
