import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ftvn.linalg import eigh_desc, is_symmetric, jacobi_eigh, offdiag_norm, svd_jacobi

from conftest import random_symmetric


def test_jacobi_against_numpy_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(8):
            a = random_symmetric(rng, n)
            w, v = eigh_desc(a)
            w_np = np.sort(np.linalg.eigvalsh(a))[::-1]
            np.testing.assert_allclose(w, w_np, atol=1e-10 * (1 + np.abs(a).max()))
            np.testing.assert_allclose(a @ v, v * w, atol=1e-10 * (1 + np.abs(a).max()))
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-12)


def test_jacobi_deterministic():
    rng = np.random.default_rng(1)
    a = random_symmetric(rng, 6)
    w1, v1 = eigh_desc(a)
    w2, v2 = eigh_desc(a.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigh(np.array([[1.0, np.nan], [np.nan, 2.0]]))


def test_symmetry_predicate_matches_allclose():
    # the reference is the predicate jacobi_eigh used before: np.allclose with
    # an absolute tolerance scaled by the largest entry
    rng = np.random.default_rng(3)
    values = [0.0, 1.0, -1.0, 2.0, 1e-12, 5e-11, 1.0 + 1e-6, 1.0 + 1e-4,
              np.nan, np.inf, -np.inf]
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        a = rng.choice(values, size=(n, n))
        if rng.random() < 0.5:
            a = np.triu(a) + np.triu(a, 1).T
        if rng.random() < 0.5:
            a = a + rng.choice([0.0, 1e-11, 1e-9, 1e-5], size=(n, n))
        with np.errstate(invalid="ignore"):
            want = np.allclose(a, a.T, atol=1e-10 * (1.0 + np.abs(a).max(initial=0.0)))
        assert is_symmetric(a) == want, a


def test_jacobi_degenerate_spectrum():
    a = np.eye(4) * 3.0
    w, v = eigh_desc(a)
    np.testing.assert_allclose(w, 3.0)
    np.testing.assert_allclose(v @ v.T, np.eye(4), atol=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
def test_jacobi_reconstructs(m):
    a = 0.5 * (m + m.T)
    w, v = eigh_desc(a)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-9 * (1 + np.abs(a).max()))
    assert np.all(np.diff(w) <= 1e-12)
    assert offdiag_norm(np.diag(w)) == 0.0


def test_svd_against_numpy_oracle():
    rng = np.random.default_rng(2)
    for (m, n) in [(1, 1), (2, 2), (3, 2), (2, 3), (5, 4), (6, 6)]:
        for _ in range(6):
            x = rng.standard_normal((m, n))
            u, s, v = svd_jacobi(x)
            s_np = np.linalg.svd(x, compute_uv=False)
            np.testing.assert_allclose(s, s_np, atol=1e-10 * (1 + s_np[0]))
            np.testing.assert_allclose(u @ np.diag(s) @ v.T, x, atol=1e-10 * (1 + s_np[0]))
            k = min(m, n)
            np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-10)
            np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-10)


def test_svd_rank_deficient():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
    u, s, v = svd_jacobi(x)
    assert s[1] == 0.0
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, x, atol=1e-10)
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-10)


def test_svd_zero_matrix():
    u, s, v = svd_jacobi(np.zeros((3, 2)))
    np.testing.assert_allclose(s, 0.0)
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
