import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfn import weights
from sqfn.errors import SingularWeightError
from sqfn.grid import Grid, GridFunction, Weight
from sqfn.weights import (ap_constant, empirical_maximal_norm,
                          local_sharp_maximal, maximal, rubio_de_francia)


def _brute_maximal_1d(vals, n):
    """Reference: all periodic dyadic windows, all positions, O(N^2 log N)."""
    mags = np.abs(vals)
    best = np.array(mags)
    m = 2
    while m <= n:
        for start in range(n):
            window = mags[np.arange(start, start + m) % n]
            mean = window.mean()
            for x in range(start, start + m):
                best[x % n] = max(best[x % n], mean)
        m *= 2
    return best


def test_maximal_matches_brute_force_1d():
    n = 32
    rng = np.random.default_rng(0)
    g = Grid(1, n, 1.0)
    vals = rng.standard_normal(n)
    fast = maximal(GridFunction(g, vals)).values.real
    np.testing.assert_allclose(fast, _brute_maximal_1d(vals, n), atol=1e-12)


def test_maximal_matches_brute_force_2d():
    n = 8
    rng = np.random.default_rng(1)
    g = Grid(2, n, 1.0)
    vals = rng.standard_normal((n, n))
    fast = maximal(GridFunction(g, vals)).values.real
    mags = np.abs(vals)
    best = np.array(mags)
    m = 2
    while m <= n:
        for si, sj in itertools.product(range(n), repeat=2):
            ii = np.arange(si, si + m) % n
            jj = np.arange(sj, sj + m) % n
            mean = mags[np.ix_(ii, jj)].mean()
            for x, y in itertools.product(ii, jj):
                best[x, y] = max(best[x, y], mean)
        m *= 2
    np.testing.assert_allclose(fast, best, atol=1e-12)


def test_maximal_dominates_function_and_mean():
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(64)
    mf = maximal(GridFunction(g, vals)).values.real
    assert np.all(mf >= np.abs(vals) - 1e-15)
    assert np.all(mf >= np.mean(np.abs(vals)) - 1e-15)


def test_ap_constant_flat_weight_is_one():
    g = Grid(1, 64, 1.0)
    for p in (1.0, 2.0, 3.0):
        rep = ap_constant(Weight.ones(g), p)
        assert rep.constant == pytest.approx(1.0, abs=1e-12)


def test_ap_constant_monotone_in_power():
    g = Grid(1, 128, 1.0)
    x = np.abs(g.axis_coords()) + g.spacing / 16.0
    last = 0.0
    for a in (0.2, 0.5, 0.8):
        c = ap_constant(Weight(GridFunction(g, x**a)), 2.0).constant
        assert c > last
        last = c


def test_ap_constant_brute_force_small():
    n = 16
    g = Grid(1, n, 1.0)
    rng = np.random.default_rng(3)
    w = np.exp(rng.standard_normal(n))
    p = 2.0
    best = 0.0
    m = 1
    while m <= n:
        for start in range(n):
            idx = np.arange(start, start + m) % n
            best = max(best, w[idx].mean() * (1.0 / w[idx]).mean())
        m *= 2
    rep = ap_constant(Weight(GridFunction(g, w)), p)
    assert rep.constant == pytest.approx(best, rel=1e-12)


def test_ap_rejects_zero_weight():
    g = Grid(1, 64, 1.0)
    vals = np.ones(64)
    vals[0] = 0.0
    with pytest.raises(SingularWeightError):
        ap_constant(Weight(GridFunction(g, vals)), 2.0)


def test_a1_constant_controls_mw():
    """Mw <= ||w||_A1 * w pointwise (characterization of A_1)."""
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(4)
    w = Weight(GridFunction(g, 1.0 + np.abs(rng.standard_normal(64))))
    c = ap_constant(w, 1.0).constant
    mw = maximal(w.base).values.real
    assert np.all(mw <= c * w.values + 1e-10)


def _local_sharp_oracle(vals, lam):
    """M#_lam from its definition.  For each periodic dyadic cube Q (every
    side 2^k, every position): the least (r+1)-th largest |v - c| over v
    in Q, r = floor(lam |Q|), minimised over c in the pairwise midpoints of
    Q's values (one of them is an optimal c); each point then takes the
    largest value over the cubes that contain it."""
    n, dim = vals.shape[0], vals.ndim
    best = np.zeros(vals.shape)
    memo = {}  # cubes holding the same values (every cube of side n) share one inf
    m = 1
    while m <= n:
        for start in itertools.product(range(n), repeat=dim):
            cube = np.ix_(*(np.arange(s, s + m) % n for s in start))
            v = vals[cube].reshape(-1)
            key = np.sort(v).tobytes()
            if key not in memo:
                k = v.size - 1 - int(np.floor(lam * v.size))  # (r+1)-th largest
                mids = 0.5 * (v[:, None] + v[None, :])[np.triu_indices(v.size)]
                memo[key] = min(
                    np.partition(np.abs(v[None, :] - c[:, None]), k, axis=1)[:, k].min()
                    for c in np.array_split(mids, -(-mids.size // 4096)))
            best[cube] = np.maximum(best[cube], memo[key])
        m *= 2
    return best


def test_local_sharp_maximal_brute_force(monkeypatch):
    # A 7-entry chunk splits each scale's sort into many chunks, some of
    # which end in the middle of a row of window starts.
    chunks = (weights._SORT_CHUNK, 7)
    rng = np.random.default_rng(6)
    for dim, n, lam in itertools.product((1, 2), (8, 16), (0.25, 0.3)):
        g = Grid(dim, n, 1.0)
        vals = rng.standard_normal(g.shape)
        expected = _local_sharp_oracle(vals, lam)
        for chunk in chunks:
            monkeypatch.setattr(weights, "_SORT_CHUNK", chunk)
            fast = local_sharp_maximal(GridFunction(g, vals), lam).values.real
            np.testing.assert_allclose(fast, expected, rtol=0, atol=1e-12,
                                       err_msg=f"dim={dim} n={n} lam={lam} chunk={chunk}")


def test_local_sharp_kills_constants():
    g = Grid(1, 32, 1.0)
    f = GridFunction(g, np.full(32, 7.0))
    out = local_sharp_maximal(f, 0.25).values.real
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_rubio_de_francia_certificate():
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(7)
    phi = GridFunction(g, np.abs(rng.standard_normal(64)))
    cert = rubio_de_francia(phi, 2.0)
    assert np.all(cert.weight.values >= np.abs(phi.values) - 1e-12)
    assert cert.norm_ratio <= 2.0
    assert cert.a1_ratio <= 2.0 * cert.maximal_norm
    assert cert.tail <= 1e-8 * 10


def test_empirical_maximal_norm_exceeds_one():
    g = Grid(1, 64, 1.0)
    assert empirical_maximal_norm(g, 2.0) > 1.0


@given(st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_maximal_sublinear(seed):
    g = Grid(1, 32, 1.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(32))
    h = GridFunction(g, rng.standard_normal(32))
    mf = maximal(f).values.real
    mh = maximal(h).values.real
    msum = maximal(f + h).values.real
    assert np.all(msum <= mf + mh + 1e-12)


@given(st.integers(0, 20), st.floats(1.1, 4.0))
@settings(max_examples=15, deadline=None)
def test_ap_constant_at_least_one(seed, p):
    g = Grid(1, 32, 1.0)
    rng = np.random.default_rng(seed)
    w = Weight(GridFunction(g, np.exp(rng.standard_normal(32))))
    assert ap_constant(w, p).constant >= 1.0 - 1e-12
