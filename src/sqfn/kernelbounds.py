"""Kernel-bound sweeps: fitted constants for four kernel estimates.

Each sweep builds dense kernel matrices across a geometric grid of time
scales, fits the asserted bound shape, and reports one record per
(t, r) pair:

* compact support — kernel of (t^2 L)^kappa Phi(t sqrt(L)) with a bump
  supported in (-1, 1): sup bounded by C t^{-n}, mass outside
  |x-y| <= t + 4h measured;
* smoothed difference — kernel of Psi(t sqrt(L))(1 - Phi(r sqrt(L))):
  |K| <= C (r / t^{n+1}) (1 + |x-y|^2/t^2)^{-(n+1)/2};
* Poisson decay — kernel of (t sqrt(L))^{2 kappa} e^{-t sqrt(L)}:
  |K| <= C t^{-n} (1 + |x-y|/t)^{-(n + 2 kappa + 1)};
* gradient heat — gradient kernel of t^{2 kappa + 1} grad L^kappa
  e^{-t^2 L}: two-stage Gaussian fit with prefactor t^{-n}.
"""

from __future__ import annotations

import numpy as np

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


def _sup_fit(entries, distances, envelope):
    """C = sup |K| / envelope(d), over the numerically trustworthy region.

    Entries below 1e-12 of the kernel peak sit at the discretization /
    roundoff floor and would dominate the ratio through the tiny
    envelope tail, so they are excluded (same rule as the Gaussian fit).
    """
    mags = np.abs(np.asarray(entries))
    region = mags > 1e-12 * float(np.max(mags))
    env = envelope(np.asarray(distances))
    return float(np.max(mags[region] / env[region]))


def _kernel_samples(op: SpectralOperator, profile, gradient: bool = False):
    """Flat (distances, values) kernel samples, oversampled when possible."""
    if op.grid.dim == 1 and hasattr(op, "kernel_profile"):
        return op.kernel_profile(profile, gradient=gradient)
    km = op.kernel_gradient_matrix(profile) if gradient else op.kernel_matrix(profile)
    return km.distances.reshape(-1), km.entries.reshape(-1)


def compact_support_record(op: SpectralOperator, t: float, kappa: int) -> dict:
    """One record of the compact-support kernel sweep (bump of radius 1)."""
    if kappa not in (0, 1, 2):
        raise ParameterError(f"kappa must be 0, 1 or 2, got {kappa}")
    phi = FourierBump(BumpProfile(1.0))
    dist, vals = _kernel_samples(op, lambda s: (t * s) ** (2 * kappa) * phi(t * s))
    mags = np.abs(vals)
    halo = t + 4.0 * op.grid.spacing
    outside = dist > halo
    total = float(np.sum(mags))
    violation = float(np.sum(mags[outside])) / total if total > 0 else 0.0
    return {
        "lemma": "compact_support",
        "t": t,
        "r": None,
        "kappa": kappa,
        "C_fit": float(np.max(mags)) * t**op.dim,
        "c_fit": None,
        "support_violation_mass": violation,
    }


def smoothed_difference_record(op: SpectralOperator, t: float, r: float) -> dict:
    """One record of the smoothed-difference kernel sweep (Psi = psi_vanishing,
    Phi the transform of the radius-1/10 bump)."""
    if not (t > 0 and r > 0):
        raise ParameterError("t and r must be positive")
    psi = psi_vanishing(op.dim)
    phi = FourierBump(BumpProfile(0.1))
    dist, vals = _kernel_samples(op, lambda s: psi(t * s) * (1.0 - phi(r * s)))
    n = op.dim
    c_fit = _sup_fit(
        vals,
        dist,
        _periodized(
            lambda d: (r / t ** (n + 1)) * (1.0 + d**2 / t**2) ** (-(n + 1) / 2.0),
            op.grid,
        ),
    )
    return {
        "lemma": "smoothed_difference",
        "t": t,
        "r": r,
        "kappa": None,
        "C_fit": c_fit,
        "c_fit": None,
        "support_violation_mass": None,
    }


def poisson_decay_record(op: SpectralOperator, t: float, kappa: int) -> dict:
    """One record of the Poisson polynomial-decay kernel sweep."""
    if kappa < 0:
        raise ParameterError("kappa must be >= 0")
    dist, vals = _kernel_samples(op, lambda s: (t * s) ** (2 * kappa) * np.exp(-t * s))
    n = op.dim
    power = n + 2 * kappa + 1
    c_fit = _sup_fit(
        vals,
        dist,
        _periodized(lambda d: t ** (-n) * (1.0 + d / t) ** (-power), op.grid),
    )
    return {
        "lemma": "poisson_decay",
        "t": t,
        "r": None,
        "kappa": kappa,
        "C_fit": c_fit,
        "c_fit": None,
        "support_violation_mass": None,
    }


def gradient_heat_record(op: SpectralOperator, t: float, kappa: int = 0) -> dict:
    """One record of the gradient heat-kernel Gaussian sweep.

    Fits |grad_x K| <= C t^{-(n+1)} exp(-d^2 / (c t^2)) for the kernel of
    (t^2 L)^kappa e^{-t^2 L} in the t sqrt(L) convention.
    """
    if kappa < 0:
        raise ParameterError("kappa must be >= 0")
    dist, vals = _kernel_samples(
        op, lambda s: (t * s) ** (2 * kappa) * np.exp(-((t * s) ** 2)), gradient=True
    )
    n = op.dim
    C, c = fit_gaussian_bound(vals, dist, t**2, t ** (-(n + 1)))
    return {
        "lemma": "gradient_heat",
        "t": t,
        "r": None,
        "kappa": kappa,
        "C_fit": C,
        "c_fit": c,
        "support_violation_mass": None,
    }


def sweep(op: SpectralOperator, lemma: str, t_values, *, kappa: int = 0,
          r_over_t: float = 1.0) -> list:
    """Run one lemma's sweep over a time grid; returns the record list."""
    records = []
    for t in t_values:
        t = float(t)
        if lemma == "compact_support":
            records.append(compact_support_record(op, t, kappa))
        elif lemma == "smoothed_difference":
            records.append(smoothed_difference_record(op, t, r_over_t * t))
        elif lemma == "poisson_decay":
            records.append(poisson_decay_record(op, t, kappa))
        elif lemma == "gradient_heat":
            records.append(gradient_heat_record(op, t, kappa))
        else:
            raise ParameterError(f"unknown kernel lemma {lemma!r}")
    return records


def constant_variation(records: list) -> float:
    """max/min - 1 of the fitted constants across a sweep."""
    cs = np.array([rec["C_fit"] for rec in records], dtype=float)
    if not np.all(np.isfinite(cs)) or np.min(cs) <= 0:
        raise ParameterError("sweep produced non-finite or non-positive constants")
    return float(np.max(cs) / np.min(cs) - 1.0)
