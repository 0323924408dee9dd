"""The dyadic (martingale) square function as an exact control.

On the grid S_d f = (sum_k |E_{k+1} f - E_k f|^2)^{1/2} needs only block
means: E_k f is the mean of f over each of the 2^k aligned dyadic blocks.
The differences are orthogonal projections, so ||S_d f||_2 = ||f - mean f||_2
exactly, and ||S_d||_{L^2(w)}^2 is the top eigenvalue of the form
sum_k D_k W D_k against W.  Its growth in [w]_{A_2} (sharp power 1 on the
line) then tells what the grid and the weight family cap, apart from any
heat or Poisson square function.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh

from sqfn import verify
from sqfn.grid import Grid
from sqfn.weights import ap_constant


def _block_means(f, k):
    """E_k f: each cell holds the mean of f over its aligned block of N / 2^k cells."""
    n = f.shape[-1]
    return np.repeat(f.reshape(2**k, n >> k).mean(axis=-1), n >> k)


def _difference(f, k):
    """D_k f = E_{k+1} f - E_k f."""
    return _block_means(f, k + 1) - _block_means(f, k)


def _square_function(f):
    """S_d f: the root of the summed squared differences, k = 0 .. log2 N - 1."""
    return np.sqrt(sum(np.abs(_difference(f, k)) ** 2 for k in range(int(np.log2(f.size)))))


def _weighted_norm(w, rng):
    """||S_d||_{L^2(w)}: the root of the top eigenvalue of W^{-1/2} A W^{-1/2},
    A = sum_k D_k W D_k, by eigsh."""
    root = 1.0 / np.sqrt(w)
    levels = range(int(np.log2(w.size)))

    def form(x):
        y = root * x.ravel()
        return root * sum(_difference(w * _difference(y, k), k) for k in levels)

    op = LinearOperator((w.size, w.size), matvec=form, dtype=float)
    top = eigsh(op, k=1, which="LA", v0=rng.standard_normal(w.size), return_eigenvectors=False)
    return float(np.sqrt(top[0]))


def _dense_weighted_norm(w):
    """The same norm from dense projection matrices and scipy.linalg.eigh(A, W)."""
    n = len(w)
    means = [np.kron(np.eye(2**k), np.full((n >> k, n >> k), 1.0 / (n >> k)))
             for k in range(int(np.log2(n)) + 1)]
    form = sum(d @ np.diag(w) @ d for d in (b - a for a, b in zip(means, means[1:])))
    return float(np.sqrt(scipy.linalg.eigh(form, np.diag(w), eigvals_only=True)[-1]))


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_dyadic_square_function_is_an_isometry_off_the_mean(n, kind):
    """||S_d f||_2 = ||f - mean f||_2 to 1e-14 relative."""
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "complex" else 0.0)
    expected = np.linalg.norm(f - f.mean())
    assert np.linalg.norm(_square_function(f)) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_eigsh_norm_equals_the_dense_generalized_eigenproblem():
    """At N=64 the matrix-free eigsh norm is the dense eigh(A, W) norm to 1e-10, on
    the power-weight family and the flat weight, where it is 1; a Haar function
    reaches ratio 1 under every weight, so no norm lies below 1."""
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(2)
    family = [w.values for w in verify.power_weight_family(g, 2.0)] + [np.ones(g.shape)]
    for w in family:
        norm = _weighted_norm(w, rng)
        assert norm == pytest.approx(_dense_weighted_norm(w), rel=1e-10, abs=0.0)
        assert norm >= 1.0 - 1e-10
    assert norm == pytest.approx(1.0, rel=1e-10, abs=0.0)


def test_weighted_norm_grows_slower_than_the_sharp_power_on_the_family():
    """On power_weight_family(grid, 2), ||S_d||_{L^2(w)} against the lab's
    [w]_{A_2} fits an exponent that rises from N=256 to N=1024 and stays
    between 0.5 and the sharp 1: the family and the grid, not the square
    function, cap the growth records."""
    rng = np.random.default_rng(3)
    exponents = []
    for n in (256, 1024):
        g = Grid(1, n, 1.0)
        family = verify.power_weight_family(g, 2.0)
        ap = [ap_constant(w, 2.0).constant for w in family]
        norms = [_weighted_norm(w.values, rng) for w in family]
        assert min(norms) >= 1.0 - 1e-10
        exponents.append(float(np.polyfit(np.log(ap), np.log(norms), 1)[0]))
    coarse, fine = exponents
    assert 0.5 < coarse < fine < 1.0, exponents
