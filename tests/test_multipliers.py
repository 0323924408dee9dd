import numpy as np
import pytest
from scipy.integrate import quad

from sqfn.errors import DecayClassError, ParameterError
from sqfn.multipliers import (BumpProfile, FourierBump, clenshaw_curtis,
                              kappa, psi_vanishing, square_symbol)


def test_clenshaw_curtis_low_order():
    # n = 2 reproduces Simpson's rule on [-1, 1]
    x, w = clenshaw_curtis(2)
    np.testing.assert_allclose(sorted(x), [-1, 0, 1], atol=1e-14)
    np.testing.assert_allclose(sorted(w), sorted([1 / 3, 4 / 3, 1 / 3]), atol=1e-14)


def test_clenshaw_curtis_polynomial_exactness():
    x, w = clenshaw_curtis(16)
    for k in (0, 2, 4, 6):
        assert w @ x**k == pytest.approx(2.0 / (k + 1), abs=1e-12)


def test_clenshaw_curtis_rejects_odd():
    with pytest.raises(ParameterError):
        clenshaw_curtis(3)


def test_bump_normalized_and_supported():
    bump = BumpProfile(0.1)
    assert bump.integral() == pytest.approx(1.0, abs=1e-10)
    assert bump(0.11) == 0.0
    assert bump(-0.11) == 0.0
    assert bump(0.0) > 0.0
    # even
    s = np.linspace(-0.09, 0.09, 33)
    np.testing.assert_allclose(bump(s), bump(-s))


def test_fourier_bump_against_adaptive_quadrature():
    bump = BumpProfile(0.1)
    phi = FourierBump(bump)
    for s in (0.0, 3.0, 17.5, 60.0):
        oracle, _ = quad(lambda u: bump(u) * np.cos(s * u), -0.1, 0.1, limit=200)
        assert phi(s) == pytest.approx(oracle, abs=1e-10)
    assert phi(0.0) == pytest.approx(1.0, abs=1e-10)


def test_fourier_bump_cutoff():
    bump = BumpProfile(0.1)
    phi = FourierBump(bump)
    assert phi.valid_to == pytest.approx(2000 / 0.2)
    assert phi(phi.valid_to * 2.0) == 0.0


def test_kappa_closed_forms():
    # integral of z^2 e^{-2z} dz/z = 1/4 and of z^4 e^{-2z^2} dz/z = 1/8
    assert kappa(square_symbol("s_p")) == pytest.approx(0.5, abs=1e-9)
    assert kappa(square_symbol("s_h")) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-9)


def test_kappa_rejects_nonvanishing_profile():
    with pytest.raises(DecayClassError):
        kappa(lambda s: np.ones_like(s))


def test_psi_vanishing_vanishing_order():
    psi = psi_vanishing(1)
    s = np.array([1e-4, 2e-4])
    vals = psi(s)
    # order-4 vanishing at zero: quadrupling under doubling^4
    assert vals[1] / vals[0] == pytest.approx(16.0, rel=1e-3)
    assert psi(1e9) == 0.0  # beyond the bump transform's validity, exactly zero
    with pytest.raises(ParameterError):
        psi_vanishing(3)


def test_square_symbol_unknown_kind():
    with pytest.raises(ParameterError):
        square_symbol("nope")


def test_phi_hat_decay():
    prof = FourierBump(BumpProfile(0.1))
    # smooth-bump transform decay is subexponential in sqrt(s)
    assert abs(prof(1000.0)) < 1e-4 * abs(prof(0.0))
