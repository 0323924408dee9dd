import numpy as np
import pytest

from sqfn import cli, multipliers
from sqfn.errors import ParameterError
from sqfn.grid import Grid
from sqfn.kernelbounds import _periodized, constant_variation, sweep
from sqfn.spectral import LaplacianTorus


@pytest.fixture(scope="module")
def torus():
    return LaplacianTorus(Grid(1, 128, 1.0))


def _record(op, lemma, t, variant):
    """The record of a one-t, one-variant sweep."""
    ((rec,),) = sweep(op, lemma, [t], [variant])
    return rec


def test_record_structure(torus):
    rec = _record(torus, "compact_support", 0.8, 0)
    assert rec["lemma"] == "compact_support"
    assert list(rec) == ["lemma", "t", "r", "kappa", "C_fit", "c_fit",
                         "support_violation_mass"]
    assert rec["C_fit"] > 0
    assert rec["support_violation_mass"] >= 0


def test_compact_support_mass_outside_halo(torus):
    # the wave-equation support theorem, seen through the kernel mass
    rec = _record(torus, "compact_support", 0.8, 0)
    assert rec["support_violation_mass"] < 1e-6


def test_smoothed_difference_constant_finite(torus):
    rec = _record(torus, "smoothed_difference", 0.6, 1.0)
    assert np.isfinite(rec["C_fit"]) and rec["C_fit"] > 0
    assert rec["r"] == pytest.approx(0.6)
    assert rec["kappa"] is None


def test_poisson_decay_constant_finite(torus):
    rec = _record(torus, "poisson_decay", 0.2, 1)
    assert np.isfinite(rec["C_fit"]) and rec["C_fit"] > 0


def test_gradient_heat_two_stage_fit(torus):
    rec = _record(torus, "gradient_heat", 0.05, 0)
    assert np.isfinite(rec["C_fit"]) and rec["C_fit"] > 0
    assert rec["c_fit"] is not None and rec["c_fit"] > 0


def test_parameter_guards(torus):
    with pytest.raises(ParameterError):
        sweep(torus, "compact_support", [0.8], [0, 3])
    with pytest.raises(ParameterError):
        sweep(torus, "smoothed_difference", [-0.1], [5.0])
    with pytest.raises(ParameterError):
        sweep(torus, "smoothed_difference", [0.1], [0.0])
    with pytest.raises(ParameterError):
        sweep(torus, "poisson_decay", [0.2], [-1])
    with pytest.raises(ParameterError):
        sweep(torus, "nope", [0.5], [0])
    with pytest.raises(ParameterError, match="time grid is empty"):
        sweep(torus, "poisson_decay", [], [0])
    with pytest.raises(ParameterError, match="no kappa to sweep"):
        sweep(torus, "poisson_decay", [0.2], [])


def test_sweep_and_variation(torus):
    (records,) = sweep(torus, "poisson_decay", np.geomspace(0.12, 0.3, 3), [0])
    assert len(records) == 3
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
    for kappa in (0, 1, 2):
        rec = _record(op, "compact_support", 0.8, kappa)
        assert rec["support_violation_mass"] < 1e-6


def test_compact_support_sweeps_keep_the_direct_quadrature(torus, monkeypatch):
    """The radius-1 bump's records sit at roundoff, so each of its 65-level
    calls at the CLI's compact-support times must run the direct quadrature:
    there n + 1 >= a max|s| / 2 exceeds the call's size."""
    t_lo, t_hi, variants = cli._SWEEP_GRIDS["compact_support"]
    monkeypatch.setattr(multipliers.FourierBump, "_chebyshev_values",
                        lambda self, top, n: pytest.fail("took the Chebyshev path"))
    sweep(torus, "compact_support", np.geomspace(t_lo, t_hi, 5), variants)


@pytest.mark.parametrize("lemma, variants", [("compact_support", (0, 1, 2)),
                                             ("smoothed_difference", (0.5, 1.0, 2.0)),
                                             ("poisson_decay", (0, 2))])
def test_one_sweep_equals_one_variant_sweeps(torus, lemma, variants):
    """Sharing the variant-free factor at each t keeps every record's bits."""
    ts = np.geomspace(0.4, 0.8, 3)
    together = sweep(torus, lemma, ts, variants)
    assert together == [sweep(torus, lemma, ts, [v])[0] for v in variants]


@pytest.mark.parametrize("lemma, variants, calls", [("compact_support", (0, 1, 2), 1),
                                                    ("smoothed_difference", (0.5, 1.0, 2.0), 4)])
def test_shared_factor_is_evaluated_once_per_t(torus, monkeypatch, lemma, variants, calls):
    """Compact support's Phi_1(t s) is one bump-transform call per t for all
    three kappa; the smoothed difference makes one psi(t s) call per t and
    one Phi(r s) call per rho."""
    count = [0]
    original = multipliers.FourierBump.__call__

    def counted(self, s):
        count[0] += 1
        return original(self, s)

    monkeypatch.setattr(multipliers.FourierBump, "__call__", counted)
    sweep(torus, lemma, np.geomspace(0.5, 0.8, 5), variants)
    assert count[0] == 5 * calls
