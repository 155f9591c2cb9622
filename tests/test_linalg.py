import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ftvn import get_instance
from ftvn.linalg import eigh_desc, eigvalsh_desc, is_symmetric, svd_desc

from conftest import haar_batch, offdiag_norm, random_symmetric, svd_jacobi


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
        eigh_desc(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        eigh_desc(np.array([[1.0, np.nan], [np.nan, 2.0]]))


@pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 np.array([[1.0, np.nan], [np.nan, 2.0]]),
                                 np.array([[np.nan, 0.0], [0.0, 1.0]])])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_stack_rejects_nonsymmetric_at_any_position(bad, position):
    # the stack's one exact-symmetry test sends a failing matrix to the
    # per-matrix predicate, wherever it sits; a NaN fails both
    rng = np.random.default_rng(4)
    stack = np.array([random_symmetric(rng, 2) for _ in range(5)])
    stack[position] = bad
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        eigh_desc(stack)
    # inside the predicate's tolerance the stack is decomposed, as one matrix is
    stack[position] = random_symmetric(rng, 2) + np.array([[0.0, 1e-12], [0.0, 0.0]])
    w, v = eigh_desc(stack)
    w1, v1 = eigh_desc(stack[position])
    assert w[position].tobytes() == w1.tobytes() and v[position].tobytes() == v1.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_empty_stack(n):
    w, v = eigh_desc(np.zeros((0, n, n)))
    assert w.shape == (0, n) and v.shape == (0, n, n)
    assert w.dtype == v.dtype == np.float64


def test_stack_of_one_by_one_matrices():
    # no rotation and no rounding: the entries themselves, with unit vectors,
    # also at the top of the float range
    a = np.array([3.5, -2.0, 0.0, 1e308, -np.inf]).reshape(5, 1, 1)
    w, v = eigh_desc(a)
    assert w.shape == (5, 1) and v.shape == (5, 1, 1)
    assert w.tobytes() == a[:, 0].tobytes()
    assert np.array_equal(v, np.ones((5, 1, 1)))
    w1, v1 = eigh_desc(a[3])
    assert w1.tolist() == [1e308] and v1.tolist() == [[1.0]]


def test_symmetry_predicate_matches_allclose():
    # the reference is the predicate the eigensolver used before: np.allclose with
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


def _stack_of(kind, rng, k, n, scale):
    # k symmetric n x n matrices of one kind, at one scale
    if kind == "diagonal":
        return np.array([np.diag(rng.standard_normal(n)) for _ in range(k)]).reshape(k, n, n) * scale
    if kind == "degenerate":
        # repeated eigenvalues on a random frame
        q = haar_batch(rng, k, n)
        d = rng.choice([-1.0, 0.0, 2.0], size=(k, n))
        return np.einsum("kij,kj,klj->kil", q, d, q) * scale
    a = np.array([random_symmetric(rng, n) for _ in range(k)]).reshape(k, n, n) * scale
    if kind == "nearly symmetric" and n > 1:
        # off symmetry by less than the symmetry tolerance
        peak = np.abs(a).max(axis=(1, 2), initial=0.0)
        a[:, 0, 1] += 1e-12 * (1.0 + peak)
    return a


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 24), k=st.integers(0, 30), exponent=st.integers(-300, 150),
       kind=st.sampled_from(["general", "diagonal", "degenerate", "nearly symmetric"]),
       seed=st.integers(0, 2**32 - 1))
def test_eigvalsh_matches_eigh_bit_for_bit(n, k, exponent, kind, seed):
    # the sweeps without the eigenvector rotations leave the same diagonal
    a = _stack_of(kind, np.random.default_rng(seed), k, n, 10.0 ** exponent)
    w = eigvalsh_desc(a)
    assert w.shape == (k, n)
    assert w.tobytes() == eigh_desc(a)[0].tobytes()
    if k:
        assert eigvalsh_desc(a[0]).tobytes() == eigh_desc(a[0])[0].tobytes()


def _near_1e200(rng):
    g = random_symmetric(rng, 3)
    return g * 1e200


@pytest.mark.parametrize("a", [np.array([[0.0, 1e200], [1e200, 0.0]]),
                               _near_1e200(np.random.default_rng(8))])
def test_eigenvalues_past_norm_overflow(a):
    # ||a|| overflows to inf from x.dot(x) here; the stopping threshold
    # still comes out finite, so the sweeps run and no warning is raised
    want = np.sort(np.linalg.eigvalsh(a))[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = eigh_desc(a)
        w_only = eigvalsh_desc(a)
    np.testing.assert_allclose(w, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert w_only.tobytes() == w.tobytes()
    np.testing.assert_allclose(a @ v, v * w, atol=1e-12 * np.abs(want).max())
    # a row that overflows leaves the rest of its stack unchanged
    small = random_symmetric(np.random.default_rng(9), len(a))
    stacked = eigh_desc(np.array([a, small]))
    assert stacked[0][1].tobytes() == eigh_desc(small)[0].tobytes()
    assert stacked[0][0].tobytes() == w.tobytes()


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


# ---------------------------------------------------------------------------
# the production SVD kernel (LAPACK), checked against the Jacobi oracle

SHAPES = [(1, 1), (2, 2), (3, 2), (2, 3), (5, 4), (4, 6), (6, 6), (12, 8)]


def test_svd_kernel_keeps_tiny_singular_values():
    # the Gram-matrix oracle returns 0 for the last value here; LAPACK works
    # on x itself, and so does the svd instance's decomposition
    rng = np.random.default_rng(0)
    s_true = np.array([1.0, 1e-3, 1e-6, 1e-9])
    x = haar_batch(rng, 1, 6)[0][:, :4] @ np.diag(s_true) @ haar_batch(rng, 1, 4)[0].T
    assert svd_jacobi(x)[1][-1] == 0.0
    _, s, _ = svd_desc(x)
    assert abs(s[-1] - 1e-9) <= 1e-15
    lam = get_instance("svd:6x4").lam(x.ravel())
    assert abs(lam[-1] - 1e-9) <= 1e-15
    np.testing.assert_allclose(lam, s_true, rtol=1e-6)


def _assert_sign_rule(u, s, v, x):
    k = min(x.shape)
    assert u.shape == (x.shape[0], k) and v.shape == (x.shape[1], k) and s.shape == (k,)
    j = np.argmax(np.abs(v), axis=0)
    assert np.all(v[j, np.arange(k)] > 0.0)
    # u follows v: x v_i = s_i u_i, with the same sign
    np.testing.assert_allclose(x @ v, u * s, atol=1e-12 * (1.0 + s[0]))


def test_svd_kernel_agrees_with_jacobi_oracle():
    rng = np.random.default_rng(5)
    for m, n in SHAPES:
        for _ in range(6):
            x = rng.standard_normal((m, n))
            u, s, v = svd_desc(x)
            u_o, s_o, v_o = svd_jacobi(x)
            np.testing.assert_allclose(s, s_o, atol=1e-12 * (1.0 + s_o[0]))
            # distinct singular values: each column pair agrees up to one sign
            signs = np.sign(np.sum(v * v_o, axis=0))
            np.testing.assert_allclose(v * signs, v_o, atol=1e-9)
            np.testing.assert_allclose(u * signs, u_o, atol=1e-9)


def test_svd_kernel_sign_rule():
    rng = np.random.default_rng(6)
    for m, n in SHAPES:
        for _ in range(6):
            x = rng.standard_normal((m, n))
            u, s, v = svd_desc(x)
            _assert_sign_rule(u, s, v, x)
            assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
            # flipping x's sign keeps v and flips u
            u2, s2, v2 = svd_desc(-x)
            np.testing.assert_allclose(v2, v, atol=1e-12)
            np.testing.assert_allclose(u2, -u, atol=1e-12)


@pytest.mark.parametrize("x", [
    np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]),
    np.outer([1.0, -2.0, 0.5, 3.0], [2.0, 1.0, -1.0]),
    np.zeros((3, 2)),
    np.zeros((2, 3)),
    np.zeros((4, 4)),
])
def test_svd_kernel_rank_deficient(x):
    u, s, v = svd_desc(x)
    k = min(x.shape)
    rank = np.linalg.matrix_rank(x)
    np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, x, atol=1e-12 * (1.0 + np.abs(x).max()))
    assert np.all(s[rank:] <= 1e-12 * (1.0 + np.abs(x).max()))
    _assert_sign_rule(u, s, v, x)
