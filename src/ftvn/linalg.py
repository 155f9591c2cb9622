"""Dense symmetric eigensolver (cyclic Jacobi), and the SVD by LAPACK.

The eigensolver is kept dependency-light on purpose: numpy's eigensolvers
stay free to serve as independent test oracles.  Adequate for n <= 64.  The
SVD is numpy's LAPACK driver with a fixed sign convention; the tests check it
against a Jacobi SVD of the Gram matrix.

``eigh_desc`` and ``svd_desc`` take one matrix or a stack of them, shape
``(k, m, n)``, and each row of a stacked result equals the result for that
matrix alone, bit for bit.  The SVD of a stack is one LAPACK call; the
eigensolver runs Jacobi on each matrix in turn, and that loop in
``eigh_desc`` is the only loop over a stack in the spectral kernels.
"""

from __future__ import annotations

import math

import numpy as np

JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 40
_EPS = np.finfo(float).eps


def offdiag_norm(a: np.ndarray) -> float:
    # summed directly over off-diagonal entries: the subtraction form
    # ||A||^2 - ||diag||^2 cancels catastrophically near convergence
    off = a[~np.eye(a.shape[0], dtype=bool)]
    return float(np.sqrt(np.sum(off * off)))


def is_symmetric(a: np.ndarray) -> bool:
    """Symmetry of a square float array up to 1e-10 * (1 + max |a_ij|).

    The predicate of ``np.allclose(a, a.T, atol=...)`` checked entry by entry
    on Python floats, without allclose's per-call overhead: |x - y| <= atol +
    1e-5 |y| with y finite, or x == y.  A NaN entry fails.
    """
    if (a == a.T).all():  # exact symmetry passes at once; a NaN never does
        return True
    atol = 1e-10 * (1.0 + float(np.abs(a).max(initial=0.0)))
    rows = a.tolist()
    isfinite = math.isfinite
    return all((abs(x - y) <= atol + 1e-5 * abs(y) and isfinite(y)) or x == y
               for r, c in zip(rows, zip(*rows)) for x, y in zip(r, c))


def jacobi_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a real symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with ``a @ v[:, i] == w[i] * v[:, i]``.  Sweeps run in a
    fixed row-major (p, q) order, so results are deterministic.  Iteration
    stops once the off-diagonal Frobenius norm drops below 1e-13 (with a
    roundoff floor proportional to ||a||).

    The inner loop works on plain Python floats: at the target sizes
    (n <= 64, typically <= 8) per-element array dispatch costs more than the
    arithmetic itself.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("expected a square matrix")
    if not is_symmetric(a):
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return np.diag(a).copy(), np.eye(n)
    stop = max(JACOBI_OFF_TOL, 32.0 * _EPS * (1.0 + float(np.linalg.norm(a))))
    rows = (0.5 * (a + a.T)).tolist()
    vt = np.eye(n).tolist()  # rows of vt are the eigenvector columns
    copysign, hypot, sqrt = math.copysign, math.hypot, math.sqrt
    span = range(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            ri = rows[i]
            for j in range(i + 1, n):
                off += ri[j] * ri[j]
        if sqrt(2.0 * off) <= stop:
            break
        for p in range(n - 1):
            rp = rows[p]
            for q in range(p + 1, n):
                rq = rows[q]
                apq = rp[q]
                if abs(apq) <= _EPS * (abs(rp[p]) + abs(rq[q])):
                    rp[q] = rq[p] = 0.0
                    continue
                theta = (rq[q] - rp[p]) / (2.0 * apq)
                t = copysign(1.0, theta) / (abs(theta) + hypot(theta, 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                h = t * apq
                rp[p] -= h
                rq[q] += h
                rp[q] = rq[p] = 0.0
                for r in span:
                    if r == p or r == q:
                        continue
                    rr = rows[r]
                    arp = rr[p]
                    arq = rr[q]
                    x1 = c * arp - s * arq
                    x2 = s * arp + c * arq
                    rr[p] = rp[r] = x1
                    rr[q] = rq[r] = x2
                vp = vt[p]
                vq = vt[q]
                for r in span:
                    wp = vp[r]
                    wq = vq[r]
                    vp[r] = c * wp - s * wq
                    vq[r] = s * wp + c * wq
    w = np.array([rows[i][i] for i in range(n)])
    return w, np.array(vt).T


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    # deterministic convention: largest-magnitude entry of each column
    # positive, on a matrix or on each matrix of a stack.  Flips v in place
    # and returns the signs, shaped (..., 1, ncols) to broadcast over rows
    stack = v.reshape(-1, *v.shape[-2:])
    k, _, ncols = stack.shape
    j = np.argmax(np.abs(stack), axis=1)
    signs = np.sign(stack[np.arange(k)[:, None], j, np.arange(ncols)])
    signs[signs == 0] = 1.0
    signs = signs.reshape(*v.shape[:-2], 1, ncols)
    v *= signs
    return signs


def eigh_desc(a) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi eigendecomposition with eigenvalues sorted nonincreasing and a
    deterministic sign convention on the eigenvectors.

    ``a`` is one symmetric matrix, shape (n, n), or a stack, shape (k, n, n);
    w has shape (n,) or (k, n) and v the shape of ``a``."""
    a = np.asarray(a, dtype=float)
    pairs = [jacobi_eigh(m) for m in a.reshape(-1, *a.shape[-2:])]
    w = np.array([p[0] for p in pairs]).reshape(a.shape[:-1])
    v = np.array([p[1] for p in pairs]).reshape(a.shape)
    order = np.argsort(-w, axis=-1, kind="stable")
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    _fix_column_signs(v)
    return np.take_along_axis(w, order, axis=-1), v


def svd_desc(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``x = u @ diag(s) @ v.T`` by LAPACK, with s nonincreasing and
    nonnegative, u of shape (m, k) and v of shape (n, k), k = min(m, n).  A
    stack x of shape (h, m, n) gives u, s and v with the leading axis h.

    Column signs follow the largest-entry-positive rule on the right vectors
    v, and u is flipped to match.  LAPACK works on x itself, not on its Gram
    matrix, so each singular value carries an absolute error of a few
    eps * s_1: 1e-9 next to 1 keeps about seven digits.
    """
    u, s, vt = np.linalg.svd(np.asarray(x, dtype=float), full_matrices=False)
    v = np.swapaxes(vt, -1, -2)
    signs = _fix_column_signs(v)
    u *= signs
    return u, s, v
