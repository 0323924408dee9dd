import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from sqfn import constants, verify, weights
from sqfn.errors import GridMismatchError, ParameterError, SingularWeightError
from sqfn.grid import Grid, GridFunction, Weight, lp_norm
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


def _trailing_max(a, m, dim):
    """The max over the side-m cubes that contain each point: scipy's wrapped
    running max over starts in (x - m, x] on each of the trailing dim axes."""
    for axis in range(-dim, 0):
        a = maximum_filter1d(a, size=m, axis=axis, mode="wrap", origin=m - 1 - m // 2)
    return a


def _per_side_maximal(vals, dim):
    """M as one grid array was computed before stacks: its own wrapped
    cumulative sum per side and axis, the full side by np.sum, and the sup
    over the cubes containing a point by scipy's running max per side."""
    mags = np.abs(vals)
    n = mags.shape[0]
    best = np.array(mags)
    m = 2
    while m <= n:
        out = mags
        for axis in range(dim):
            if m == n:
                out = np.repeat(np.sum(out, axis=axis, keepdims=True), n, axis=axis)
                continue
            ext = np.concatenate([out, np.take(out, range(m - 1), axis=axis)], axis=axis)
            cs = np.cumsum(ext, axis=axis)
            cs = np.concatenate([np.zeros_like(np.take(cs, [0], axis=axis)), cs], axis=axis)
            out = np.take(cs, range(m, n + m), axis=axis) - np.take(cs, range(n), axis=axis)
        best = np.maximum(best, _trailing_max(out / float(m) ** dim, m, dim))
        m *= 2
    return best


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 128), (1, 256), (2, 8), (2, 32), (2, 64)])
@pytest.mark.parametrize("kind", ["real", "complex", "zero"])
def test_maximal_stack_equals_per_function(dim, n, kind):
    """The stacked kernel, one function of it, and maximal all give the
    per-side construction's bits."""
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(n + dim)
    stack = rng.standard_normal((4,) + g.shape) * 10.0 ** rng.integers(-3, 4, (4,) + g.shape)
    if kind == "complex":
        stack = stack + 1j * rng.standard_normal(stack.shape)
    elif kind == "zero":
        stack = np.zeros_like(stack)
    together = weights._maximal_stack(g, stack)
    alone = weights._maximal_stack(g, stack[:1])
    assert together.shape == stack.shape and alone.shape == (1,) + g.shape
    for k, vals in enumerate(stack):
        oracle = _per_side_maximal(GridFunction(g, vals).values, dim)
        assert np.array_equal(together[k], oracle)
        assert np.array_equal(maximal(GridFunction(g, vals)).values.real, oracle)
    assert np.array_equal(alone[0], together[0])


def test_stack_chunks_change_no_bits(monkeypatch):
    """M of a 2-D N=64 stack of 33 real and of 33 complex functions, and
    empirical_maximal_norm, have the same bits in chunks of one function
    and in one call of the whole stack."""
    g = Grid(2, 64, 1.0)
    rng = np.random.default_rng(33)
    real = rng.standard_normal((33,) + g.shape)
    stacks = (real, real + 1j * rng.standard_normal(real.shape))
    results = []
    for cells in (g.size, 2**30):
        monkeypatch.setattr(weights, "_STACK_CELLS", cells)
        results.append([weights._maximal_stack(g, a) for a in stacks]
                       + [empirical_maximal_norm(g, 2.0)])
    (m_real, m_complex, norm), (w_real, w_complex, whole_norm) = results
    assert np.array_equal(m_real, w_real) and np.array_equal(m_complex, w_complex)
    assert norm == whole_norm


def test_empirical_maximal_norm_works_in_bounded_chunks():
    """At 2-D N=64 the 33-function stack runs in chunks: the call's traced
    peak stays under 7 MiB (one call of the whole stack peaks near 10 MiB)."""
    g = Grid(2, 64, 1.0)
    tracemalloc.start()
    try:
        empirical_maximal_norm(g, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _rubio_de_francia_one(phi, q, mnorm):
    """The series and certificate of one phi, as they were computed per phi."""
    term = np.abs(phi.values)
    total = np.array(term)
    for _ in range(29):
        term = maximal(GridFunction(phi.grid, term)).values.real / (2.0 * mnorm)
        total += term
    size = lp_norm(GridFunction(phi.grid, total), q)
    tail = lp_norm(GridFunction(phi.grid, term), q) / max(size, 1e-300)
    mv = maximal(GridFunction(phi.grid, total)).values.real
    positive = total > 0
    a1 = float(np.max(mv[positive] / total[positive]))
    return total, size / max(lp_norm(phi, q), 1e-300), a1, tail


@pytest.mark.parametrize("dim, n, q", [(1, 64, 2.0), (1, 128, 3.0), (2, 16, 2.0)])
def test_rubio_de_francia_stack_equals_per_phi_loop(dim, n, q):
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(11)
    phis = [GridFunction(g, rng.standard_normal(g.shape) * (1 + 1j * (k % 2)))
            for k in range(5)]
    mnorm = empirical_maximal_norm(g, q)
    certs = rubio_de_francia(phis, q, maximal_norm=mnorm)
    assert len(certs) == len(phis)
    for phi, cert in zip(phis, certs):
        total, ratio, a1, tail = _rubio_de_francia_one(phi, q, mnorm)
        assert np.array_equal(cert.weight.values, total)
        assert (cert.q, cert.norm_ratio, cert.a1_ratio, cert.maximal_norm, cert.tail) == (
            q, ratio, a1, mnorm, tail)
    assert rubio_de_francia(phis[1:2], q)[0].a1_ratio == certs[1].a1_ratio  # M's norm by default


def test_rubio_de_francia_refuses_an_empty_or_mixed_sequence():
    g = Grid(1, 32, 1.0)
    phi = GridFunction(g, np.ones(32))
    with pytest.raises(ParameterError, match="at least one phi"):
        rubio_de_francia([], 2.0)
    with pytest.raises(GridMismatchError):
        rubio_de_francia([phi, GridFunction(Grid(1, 32, 2.0), np.ones(32))], 2.0)


@pytest.mark.parametrize("dim, n, q", [(1, 64, 2.0), (2, 16, 1.5)])
def test_empirical_maximal_norm_equals_per_candidate_loop(dim, n, q):
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(7)
    candidates = [np.abs(rng.standard_normal(g.shape)) for _ in range(32)]
    spike = np.zeros(g.shape)
    spike[(0,) * dim] = 1.0
    best = 0.0
    for v in candidates + [spike]:
        f = GridFunction(g, v)
        best = max(best, lp_norm(maximal(f), q) / max(lp_norm(f, q), 1e-300))
    assert empirical_maximal_norm(g, q) == best * constants.MAXIMAL_NORM_MARGIN


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


def _brute_ap(w, p):
    """sup over every periodic dyadic cube, every position, of the A_p product."""
    n, dim = w.shape[0], w.ndim
    best = 0.0
    m = 1
    while m <= n:
        for start in itertools.product(range(n), repeat=dim):
            cube = w[np.ix_(*(np.arange(s, s + m) % n for s in start))]
            if p == 1:
                value = cube.mean() / cube.min()
            else:
                value = cube.mean() * (cube ** (-1.0 / (p - 1.0))).mean() ** (p - 1.0)
            best = max(best, value)
        m *= 2
    return best


def test_ap_constant_brute_force_small():
    """ap_constant equals the A_p sup over every cube, p in {1, 2, 3}, on a
    1-D N=16 and a 2-D N=8 grid: p = 1 goes through the sliding minimum."""
    rng = np.random.default_rng(3)
    for dim, n in ((1, 16), (2, 8)):
        g = Grid(dim, n, 1.0)
        w = np.exp(rng.standard_normal(g.shape))
        for p in (1.0, 2.0, 3.0):
            rep = ap_constant(Weight(GridFunction(g, w)), p)
            assert rep.constant == pytest.approx(_brute_ap(w, p), rel=1e-12), (dim, p)


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


def _sorted_window_sharp(vals, lam):
    """M#_lam side by side: half the least spread of consecutive order
    statistics of each window's sorted samples, by lowest corner, then the
    wrapped running max over the cubes that contain each point."""
    n, dim = vals.shape[0], vals.ndim
    best = np.zeros(vals.shape)
    m = 2
    while m <= n:
        count = m**dim
        q = count - int(np.floor(lam * count))
        if q > 1:
            spread = np.empty(vals.shape)
            for start in itertools.product(range(n), repeat=dim):
                s = np.sort(vals[np.ix_(*(np.arange(a, a + m) % n for a in start))].reshape(-1))
                spread[start] = 0.5 * np.min(s[q - 1 :] - s[: count - q + 1])
            best = np.maximum(best, _trailing_max(spread, m, dim))
        m *= 2
    return best


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 16), (1, 64), (2, 8), (2, 16)])
@pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.9])
def test_local_sharp_maximal_equals_the_sorted_windows_exactly(dim, n, lam):
    """Every value has the bits of the per-side sorted windows and scipy's
    running max, with ties among the samples."""
    g = Grid(dim, n, 1.0)
    vals = np.round(2.0 * np.random.default_rng(10 * n + dim).standard_normal(g.shape)) / 2.0
    fast = local_sharp_maximal(GridFunction(g, vals), lam).values.real
    assert np.array_equal(fast, _sorted_window_sharp(vals, lam))


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (1, 256), (2, 8), (2, 32), (2, 64)])
def test_a1_constant_equals_the_per_side_minimum_filter(dim, n):
    """At p = 1 the constant, the witness side and the witness start equal
    those of scipy's wrapped running min over each side's cubes, side by
    side, the first strict maximum winning; ties among the weight's values."""
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(n + dim)
    w = np.exp(np.round(2.0 * rng.standard_normal(g.shape)) / 2.0)
    best, side, start = -np.inf, None, None
    m = 1
    while m <= n:
        low = w
        for axis in range(dim):
            low = minimum_filter1d(low, size=m, axis=axis, mode="wrap", origin=-(m // 2))
        field = weights._window_sums(w, m, dim) / float(m) ** dim / low
        idx = int(np.argmax(field))
        if field.reshape(-1)[idx] > best:
            best, side, start = float(field.reshape(-1)[idx]), m, np.unravel_index(idx, g.shape)
        m *= 2
    rep = ap_constant(Weight(GridFunction(g, w)), 1.0)
    assert (rep.constant, rep.witness_side, rep.witness_start) == (
        best, side * g.spacing, tuple(int(i) for i in start))


def _per_side_ap(w, p):
    """ap_constant as each side's own prefix sums give it: constant, witness
    side in cells and witness start, the first strict maximum winning."""
    n, dim = w.shape[0], w.ndim
    dual = w ** (-1.0 / (p - 1.0)) if p > 1 else None
    best, cube = -np.inf, None
    low = w
    for m in weights._dyadic_sides(Grid(dim, n, 1.0)):
        mean_w = weights._window_sums(w, m, dim) / float(m) ** dim
        if p > 1:
            field = mean_w * (weights._window_sums(dual, m, dim) / float(m) ** dim) ** (p - 1.0)
        else:
            low = weights._doubled(low, -(m // 2), dim, np.minimum)
            field = mean_w / low
        idx = int(np.argmax(field))
        if field.reshape(-1)[idx] > best:
            best, cube = float(field.reshape(-1)[idx]), (m, np.unravel_index(idx, field.shape))
    return best, cube[0], tuple(int(i) for i in cube[1])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim, n", [(1, 64), (1, 256), (2, 16), (2, 64)])
def test_ap_constant_shared_prefix_sums_keep_the_per_side_bits(dim, n, p):
    """One prefix sum per weight and per dual weight serves every side below N:
    constant, witness side and witness start are the per-side route's, on the
    weight suite and, in 1-D, the power-weight family."""
    g = Grid(dim, n, 1.0)
    family = verify.weight_suite(g, 107)
    if dim == 1:
        family += verify.power_weight_family(g, p)
    for k, w in enumerate(family):
        rep = ap_constant(w, p)
        constant, side, start = _per_side_ap(w.values, p)
        assert rep.constant == constant, k
        assert (rep.witness_side, rep.witness_start) == (side * g.spacing, start), k


def test_local_sharp_maximal_works_in_cache_sized_chunks(monkeypatch):
    """At 2-D N=64 the call's traced peak stays under 2 MB (an 8 MiB chunk
    peaks near 24 MB), and the chunk size changes no bit."""
    g = Grid(2, 64, 1.0)
    f = GridFunction(g, np.random.default_rng(3).standard_normal(g.shape))
    tracemalloc.start()
    try:
        chunked = local_sharp_maximal(f, 0.25).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    monkeypatch.setattr(weights, "_SORT_CHUNK", 1 << 20)
    assert np.array_equal(chunked, local_sharp_maximal(f, 0.25).values)


def _float_sort_sharp(vals, lam):
    """M#_lam by the float route: the samples of each chunk of windows
    sorted as float64 and the spread taken between the sorted floats."""
    g = Grid(vals.ndim, vals.shape[0], 1.0)
    best = np.zeros(g.shape)
    for m in weights._dyadic_sides(g)[:0:-1]:
        count = m**g.dim
        q = count - int(np.floor(lam * count))
        if q > 1:
            windows = sliding_window_view(np.pad(vals, (0, m - 1), mode="wrap"), (m,) * g.dim)
            starts = 1 if m == g.points_per_axis else g.size
            rows = max(1, weights._SORT_CHUNK // count)
            per_start = np.empty(starts)
            for lo in range(0, starts, rows):
                idx = np.unravel_index(np.arange(lo, min(lo + rows, starts)), g.shape)
                s = np.sort(windows[idx].reshape(-1, count), axis=1)
                per_start[lo : lo + rows] = 0.5 * np.min(s[:, q - 1 :] - s[:, : count - q + 1], axis=1)
            best = np.maximum(per_start.reshape(g.shape) if starts > 1 else per_start[0], best)
        best = weights._doubled(best, m // 2, g.dim, np.maximum)
    return best


def _sharp_inputs(shape, rng):
    """Ties, two levels, a constant, negatives, signed zeros and a spike."""
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    zeros[rng.random(shape) < 0.2] = 1.0
    spike = np.zeros(shape)
    spike.flat[int(rng.integers(spike.size))] = 3.0
    return {"ties": np.round(2.0 * rng.standard_normal(shape)) / 2.0,
            "two-level": np.where(rng.random(shape) < 0.3, 1.5, -0.25),
            "constant": np.full(shape, 7.0),
            "negative": -np.exp(rng.standard_normal(shape)),
            "signed-zeros": zeros,
            "spike": spike}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 128), (1, 256), (2, 8), (2, 32), (2, 64)])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.5, 0.7, 0.99])
def test_local_sharp_maximal_rank_keys_keep_the_float_sorts_bits(dim, n, lam):
    """Sorting 16-bit rank keys and reading the levels back gives every value
    the bits of sorting the floats, signed zeros included."""
    g = Grid(dim, n, 1.0)
    for kind, vals in _sharp_inputs(g.shape, np.random.default_rng(n + dim)).items():
        fast = local_sharp_maximal(GridFunction(g, vals), lam).values.real
        assert _same_bits(fast, _float_sort_sharp(vals, lam)), kind


def test_rank_keys_widen_past_16_bits_only():
    """2**16 distinct values fit uint16 keys, one more needs uint32; either way
    levels are the sorted distinct values and levels[keys] has the input's bits."""
    rng = np.random.default_rng(5)
    for size, dtype in ((2**16, np.uint16), (2**16 + 1, np.uint32)):
        vals = rng.permutation(np.arange(size) - 0.5 * size) / 7.0
        vals = vals.reshape(1, -1) if size % 2 else vals.reshape(4, -1)
        levels, keys = weights._rank_keys(vals)
        assert keys.dtype == dtype and keys.shape == vals.shape
        assert np.all(np.diff(levels) > 0) and len(levels) == size
        assert _same_bits(levels[keys], vals)


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_local_sharp_maximal_keeps_its_bits_with_32_bit_keys(dim, n, monkeypatch):
    """The uint32 keys of a grid with more than 2**16 distinct values, forced
    here on small grids, give the float route's bits too."""
    g = Grid(dim, n, 1.0)
    inputs = _sharp_inputs(g.shape, np.random.default_rng(9))
    narrow = weights._rank_keys

    def wide(vals):
        levels, keys = narrow(vals)
        return levels, keys.astype(np.uint32)

    monkeypatch.setattr(weights, "_rank_keys", wide)
    for kind, vals in inputs.items():
        for lam in (0.25, 0.7):
            fast = local_sharp_maximal(GridFunction(g, vals), lam).values.real
            assert _same_bits(fast, _float_sort_sharp(vals, lam)), (kind, lam)


def test_local_sharp_kills_constants():
    g = Grid(1, 32, 1.0)
    f = GridFunction(g, np.full(32, 7.0))
    out = local_sharp_maximal(f, 0.25).values.real
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_rubio_de_francia_certificate():
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(7)
    phi = GridFunction(g, np.abs(rng.standard_normal(64)))
    (cert,) = rubio_de_francia([phi], 2.0)
    assert np.all(cert.weight.values >= np.abs(phi.values) - 1e-12)
    assert cert.norm_ratio <= 2.0
    assert cert.a1_ratio <= 2.0 * cert.maximal_norm
    assert cert.tail <= 1e-8


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
    msum = maximal(GridFunction(g, f.values + h.values)).values.real
    assert np.all(msum <= mf + mh + 1e-12)


@given(st.integers(0, 20), st.floats(1.1, 4.0))
@settings(max_examples=15, deadline=None)
def test_ap_constant_at_least_one(seed, p):
    g = Grid(1, 32, 1.0)
    rng = np.random.default_rng(seed)
    w = Weight(GridFunction(g, np.exp(rng.standard_normal(32))))
    assert ap_constant(w, p).constant >= 1.0 - 1e-12
