import os
import subprocess
import sys
from math import lgamma
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from sqfn import multipliers
from sqfn.errors import DecayClassError, ParameterError
from sqfn.multipliers import (BumpProfile, FourierBump, _chebyshev_degree,
                              clenshaw_curtis, kappa, psi_vanishing,
                              square_symbol)


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


def test_shipped_rule_is_the_generators_bits():
    """The weights file, the weights loaded from it and the nodes computed at
    import are clenshaw_curtis(2000) bit for bit, and both arrays are read-only."""
    x, w = clenshaw_curtis(multipliers._CC_INTERVALS)
    shipped = np.load(multipliers._CC_WEIGHTS_FILE)
    assert shipped.dtype == w.dtype and np.array_equal(shipped, w)
    assert np.array_equal(multipliers._CC_NODES, x)
    assert np.array_equal(multipliers._CC_WEIGHTS, w)
    assert not multipliers._CC_NODES.flags.writeable
    assert not multipliers._CC_WEIGHTS.flags.writeable


def test_import_builds_no_rule():
    """A fresh interpreter imports sqfn without calling clenshaw_curtis, at a
    traced peak of at most 10 MB over numpy: about 2.4 MB, where building the
    rule's cosine matrix at import peaked at about 16.7 MB."""
    code = "\n".join([
        "import sys, tracemalloc",
        "import numpy",
        "calls = []",
        "def hook(frame, event, arg):",
        "    if event == 'call' and frame.f_code.co_name == 'clenshaw_curtis':",
        "        calls.append(frame.f_code.co_filename)",
        "sys.setprofile(hook)",
        "tracemalloc.start()",
        "import sqfn",
        "peak = tracemalloc.get_traced_memory()[1]",
        "tracemalloc.stop()",
        "sys.setprofile(None)",
        "print(len(calls), peak)",
    ])
    path = [str(Path(multipliers.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    calls, peak = map(int, out.split())
    assert calls == 0
    assert peak <= 10e6, f"import sqfn peaked at {peak / 1e6:.1f} MB"


def test_rule_file_is_package_data():
    """The file the loader reads sits in the package and is listed as its
    package data, so an installed sqfn ships it."""
    tomllib = pytest.importorskip("tomllib")
    weights = Path(multipliers._CC_WEIGHTS_FILE)
    assert weights.parent == Path(multipliers.__file__).parent
    assert weights.is_file()
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert weights.name in config["tool"]["setuptools"]["package-data"]["sqfn"]


def test_bump_normalized_and_supported():
    bump = BumpProfile(0.1)
    # integrated by adaptive quadrature, not the Clenshaw-Curtis rule that
    # defines the normalization
    mass, _ = quad(bump, -0.1, 0.1, epsabs=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
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
    assert kappa(square_symbol("s_p")) == pytest.approx(0.5, rel=1e-12)
    assert kappa(square_symbol("s_h")) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), rel=1e-12)


def _adaptive_kappa(psi):
    """kappa by adaptive quadrature on 17 equal panels of the log axis."""
    def integrand(v):
        return float(np.abs(psi(np.exp(v))) ** 2)

    edges = np.linspace(-34.0, 34.0, 18)
    return np.sqrt(sum(quad(integrand, a, b, epsabs=5e-12, limit=400)[0]
                       for a, b in zip(edges[:-1], edges[1:])))


@pytest.mark.parametrize("psi", [square_symbol("s_h"), square_symbol("s_p"),
                                 psi_vanishing(1), psi_vanishing(2)],
                         ids=["s_h", "s_p", "psi_1", "psi_2"])
def test_kappa_against_adaptive_quadrature(psi):
    assert kappa(psi) == pytest.approx(_adaptive_kappa(psi), rel=1e-8)


def test_kappa_of_s_h_is_pinned():
    # The value every identity record of the g_h square function reads.
    assert kappa(square_symbol("s_h")) == 0.35355339059327373


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


@pytest.mark.parametrize("radius", [0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_phi_matches_direct_quadrature(radius, seed):
    """Batches large enough for the Chebyshev path agree with the direct
    quadrature to 1e-14 over the whole live range, a * s <= 1000."""
    phi = FourierBump(BumpProfile(radius))
    rng = np.random.default_rng(seed)
    for size in (800, 4097):
        for top in np.array([1.0, 100.0, 1000.0]) / radius:
            s = rng.uniform(-top, top, size)
            s[0] = top
            n = _chebyshev_degree(radius * top / 2)
            assert n + 1 < size and phi._chebyshev_values(top, n) is not None
            got = phi(s)
            assert np.max(np.abs(got - phi._quadrature(s))) <= 1e-14, (size, top)


@pytest.mark.parametrize("radius", [0.1, 1.0])
def test_small_calls_keep_the_direct_quadrature_bits(radius):
    """A call with no more live points than n + 1 runs the direct
    quadrature, bit for bit; points past valid_to stay 0 and do not count."""
    phi = FourierBump(BumpProfile(radius))
    rng = np.random.default_rng(5)
    for top in (0.5 / radius, 50.0 / radius, 900.0 / radius):
        size = _chebyshev_degree(radius * top / 2) + 1
        s = rng.uniform(0.0, top, size)
        s[0] = top
        padded = np.concatenate([s, [2.0 * phi.valid_to] * size])
        direct = phi._quadrature(s)
        assert np.array_equal(phi(s), direct)
        assert np.array_equal(phi(padded), np.concatenate([direct, np.zeros(size)]))


def test_uncertified_chebyshev_values_fall_back_to_direct(monkeypatch):
    """Trailing coefficients above the tolerance send the call to the direct
    quadrature: a degree too low for the batch cannot pass."""
    phi = FourierBump(BumpProfile(0.1))
    s = np.linspace(0.0, 5000.0, 3000)
    assert phi._chebyshev_values(5000.0, 40) is None
    monkeypatch.setattr(multipliers, "_chebyshev_degree", lambda c: 40)
    assert np.array_equal(phi(s), phi._quadrature(s))


@pytest.mark.parametrize("c", [0.0, 0.3, 2.5, 28.8, 94.0, 500.0])
def test_chebyshev_degree_meets_its_bound(c):
    """n >= max(1, c - 1), 8 (c/2)^(n+1)/(n+1)! within one unit roundoff,
    and n - 1 misses it (n = 1 or n - 1 < c - 1 aside)."""
    n = _chebyshev_degree(c)
    bound = lambda m: 8.0 * np.exp((m + 1) * np.log(c / 2) - lgamma(m + 2)) if c else 0.0
    assert n >= max(1, c - 1) and bound(n) <= 2.0**-53
    assert n == 1 or n - 1 < c - 1 or bound(n - 1) > 2.0**-53
