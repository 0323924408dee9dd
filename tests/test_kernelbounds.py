import numpy as np
import pytest

from sqfn import kernelbounds, multipliers
from sqfn.errors import ParameterError
from sqfn.grid import Grid
from sqfn.kernelbounds import _periodized, constant_variation, sweep
from sqfn.spectral import LaplacianTorus


@pytest.fixture(scope="module")
def torus():
    return LaplacianTorus(Grid(1, 128, 1.0))


def test_record_structure(torus):
    """One list of five fit-field dicts per variant, keyed by record tag."""
    fits = sweep(torus, "compact_support")
    assert list(fits) == ["compact_support_k0", "compact_support_k1", "compact_support_k2"]
    for recs in fits.values():
        assert len(recs) == 5
        for rec in recs:
            assert list(rec) == ["C_fit", "support_violation_mass"]
            assert rec["C_fit"] > 0
            assert rec["support_violation_mass"] >= 0


def test_compact_support_mass_outside_halo(torus):
    # the wave-equation support theorem, seen through the kernel mass
    for rec in sweep(torus, "compact_support")["compact_support_k0"]:
        assert rec["support_violation_mass"] < 1e-6


def test_smoothed_difference_constant_finite(torus):
    fits = sweep(torus, "smoothed_difference")
    assert list(fits) == ["smoothed_difference_rho0.5", "smoothed_difference_rho1",
                          "smoothed_difference_rho2"]
    for rec in fits["smoothed_difference_rho1"]:
        assert list(rec) == ["C_fit"]
        assert np.isfinite(rec["C_fit"]) and rec["C_fit"] > 0


def test_poisson_decay_constant_finite(torus):
    for rec in sweep(torus, "poisson_decay")["poisson_decay_k1"]:
        assert np.isfinite(rec["C_fit"]) and rec["C_fit"] > 0


def test_gradient_heat_two_stage_fit(torus):
    for rec in sweep(torus, "gradient_heat")["gradient_heat_k0"]:
        assert np.isfinite(rec["C_fit"]) and rec["C_fit"] > 0
        assert rec["c_fit"] is not None and rec["c_fit"] > 0


def test_parameter_guards(torus):
    with pytest.raises(KeyError):
        sweep(torus, "nope")


def test_sweep_and_variation(torus):
    records = sweep(torus, "poisson_decay")["poisson_decay_k0"]
    assert len(records) == 5
    var = constant_variation(records)
    assert 0.0 <= var < 0.2


def test_constant_variation_rejects_bad_constants():
    with pytest.raises(ParameterError):
        constant_variation([{"C_fit": 1.0}, {"C_fit": np.inf}])
    with pytest.raises(ParameterError):
        constant_variation([{"C_fit": 1.0}, {"C_fit": 0.0}])
    with pytest.raises(ParameterError, match="empty time grid"):
        constant_variation([])


def test_periodized_envelope_sums_images():
    g = Grid(1, 64, 1.0)  # period 2
    env = lambda d: np.exp(-np.abs(d))
    wrapped = _periodized(env, g)
    d = 0.3
    expected = sum(np.exp(-abs(d + 2 * j)) for j in range(-3, 4))
    assert wrapped(d) == pytest.approx(expected)
    # the images only add tail mass
    assert wrapped(d) > env(d)


def test_compact_support_all_kappa_fine_grid():
    """The support property is an invariant, not a tuning artifact: on a
    finer grid every derivative order keeps its mass inside the halo."""
    op = LaplacianTorus(Grid(1, 1024, 1.0))
    for recs in sweep(op, "compact_support").values():
        for rec in recs:
            assert rec["support_violation_mass"] < 1e-6


def test_compact_support_sweeps_keep_the_direct_quadrature(torus, monkeypatch):
    """The radius-1 bump's records sit at roundoff, so each of its 65-level
    calls at the table's compact-support times must run the direct
    quadrature: there n + 1 >= a max|s| / 2 exceeds the call's size."""
    monkeypatch.setattr(multipliers.FourierBump, "_chebyshev_values",
                        lambda self, top, n: pytest.fail("took the Chebyshev path"))
    sweep(torus, "compact_support")


@pytest.mark.parametrize("lemma, variants", [("compact_support", (0, 1, 2)),
                                             ("smoothed_difference", (0.5, 1.0, 2.0)),
                                             ("poisson_decay", (0, 2))])
def test_one_sweep_equals_one_variant_sweeps(torus, monkeypatch, lemma, variants):
    """Sharing the variant-free factor at each t keeps every record's bits."""
    window, _, letter, shared, fit = kernelbounds._LEMMAS[lemma]

    def with_variants(vs):
        monkeypatch.setitem(kernelbounds._LEMMAS, lemma, (window, vs, letter, shared, fit))
        return sweep(torus, lemma)

    together = with_variants(variants)
    singles = {}
    for v in variants:
        singles.update(with_variants((v,)))
    assert len(together) == len(variants)
    assert list(together.items()) == list(singles.items())


@pytest.mark.parametrize("lemma, variants, calls", [("compact_support", (0, 1, 2), 1),
                                                    ("smoothed_difference", (0.5, 1.0, 2.0), 4)])
def test_shared_factor_is_evaluated_once_per_t(torus, monkeypatch, lemma, variants, calls):
    """Compact support's Phi_1(t s) is one bump-transform call per t for all
    three kappa; the smoothed difference makes one psi(t s) call per t and
    one Phi(r s) call per rho."""
    assert kernelbounds._LEMMAS[lemma][1] == variants
    count = [0]
    original = multipliers.FourierBump.__call__

    def counted(self, s):
        count[0] += 1
        return original(self, s)

    monkeypatch.setattr(multipliers.FourierBump, "__call__", counted)
    sweep(torus, lemma)
    assert count[0] == 5 * calls
