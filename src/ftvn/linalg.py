"""Dense symmetric eigensolver (cyclic Jacobi), and the SVD by LAPACK.

The eigensolver is kept dependency-light on purpose: numpy's eigensolvers
stay free to serve as independent test oracles.  Adequate for n <= 64.  The
SVD is numpy's LAPACK driver with a fixed sign convention; the tests check it
against a Jacobi SVD of the Gram matrix.

``eigh_desc``, ``eigvalsh_desc`` and ``svd_desc`` take one matrix or a
stack of them, shape ``(k, m, n)``, and each row of a stacked result equals
the result for that matrix alone, bit for bit.  The SVD of a stack is one
LAPACK call.  The eigensolver sets up a whole stack at once (the symmetry
test, the norms that set each stopping threshold, the symmetrize and the
conversion to Python lists), then runs the one Jacobi rotation loop,
``jacobi_sweeps``, on each matrix in turn, from a rotation schedule cached
per size.  ``eigvalsh_desc``, named as numpy's ``eigvalsh``, runs the same
sweeps without accumulating the eigenvectors: the matrix sees the same
operations in the same order, so its eigenvalues are those of ``eigh_desc``
bit for bit, and each rotation skips its n-row eigenvector update.  A matrix whose norm overflows in ``x.dot(x)``
(finite entries past about 1e154) takes its stopping threshold from a
rescaled norm, so it is still rotated to its eigenvalues.

``dot_rows``, ``vecmat_rows`` and ``diag_rows`` are the row-wise products the
instances' hooks use on stacks, with the same bit-for-bit rule: each row is
one matmul of that row's own operands, the call numpy makes for one element.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 40
_EPS = np.finfo(float).eps


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


@functools.cache
def _rotation_schedule(n: int) -> tuple:
    # the cyclic row-major order of the rotations of one sweep on an n x n
    # matrix: (p, q, the rows other than p and q) for each p < q
    return tuple((p, q, tuple(r for r in range(n) if r != p and r != q))
                 for p in range(n - 1) for q in range(p + 1, n))


def jacobi_sweeps(rows: list, vt: Optional[list], stop: float, schedule: tuple) -> None:
    """Cyclic Jacobi sweeps on one symmetric matrix, in place.

    ``rows`` is the matrix as a list of row lists and ``vt`` the identity in
    the same form, or None; each rotation is applied to ``rows`` and
    accumulated into the rows of ``vt`` when there is one.  ``rows`` sees the
    same operations in the same order either way, so its diagonal does not
    depend on ``vt``.  Sweeps run in ``schedule``'s fixed row-major (p, q)
    order, so results are deterministic, and stop once the off-diagonal
    Frobenius norm is at most ``stop`` or after JACOBI_MAX_SWEEPS.

    The loop works on plain Python floats: at the target sizes (n <= 64,
    typically <= 8) per-element array dispatch costs more than the arithmetic
    itself.
    """
    copysign, hypot, sqrt = math.copysign, math.hypot, math.sqrt
    span = range(len(rows))
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p, q, _ in schedule:
            apq = rows[p][q]
            off += apq * apq
        if sqrt(2.0 * off) <= stop:
            return
        for p, q, others in schedule:
            rp = rows[p]
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
            for r in others:
                rr = rows[r]
                arp = rr[p]
                arq = rr[q]
                x1 = c * arp - s * arq
                x2 = s * arp + c * arq
                rr[p] = rp[r] = x1
                rr[q] = rq[r] = x2
            if vt is None:
                continue
            vp = vt[p]
            vq = vt[q]
            for r in span:
                wp = vp[r]
                wq = vq[r]
                vp[r] = c * wp - s * wq
                vq[r] = s * wp + c * wq


def _stop_thresholds(a: np.ndarray) -> list:
    # each matrix's stopping threshold: 1e-13, with a roundoff floor
    # proportional to ||a||, the x.dot(x) of np.linalg.norm.  Where x.dot(x)
    # overflows on finite entries (past about 1e154) the norm is taken as
    # max|a| * ||a / max|a|||, which stays finite; every other row keeps
    # the plain form's bits
    k, n, _ = a.shape
    flat = a.reshape(k, n * n)
    with np.errstate(over="ignore"):
        norms = np.sqrt(dot_rows(flat, flat))
    big = np.flatnonzero(np.isinf(norms))
    if big.size:
        peak = np.abs(flat[big]).max(axis=1)
        fine = np.isfinite(peak)  # an infinite entry keeps its infinite norm
        big, peak = big[fine], peak[fine]
        unit = flat[big] / peak[:, None]
        norms[big] = peak * np.sqrt(dot_rows(unit, unit))
    return np.maximum(JACOBI_OFF_TOL, 32.0 * _EPS * (1.0 + norms)).tolist()


def _jacobi_stack(a: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, Optional[np.ndarray]]:
    # (w, v) of each matrix of a (k, n, n) float stack, unsorted, with
    # a @ v[:, i] == w[i] * v[:, i]; v is None when ``vectors`` is False,
    # and w is the same either way.  The numpy work is done once for the
    # whole stack; only the rotations run matrix by matrix
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a square matrix")
    k, n, _ = a.shape
    exact = (a == a.transpose(0, 2, 1)).all(axis=(1, 2))  # a NaN never passes
    for i in np.flatnonzero(~exact):
        if not is_symmetric(a[i]):
            raise ValueError("matrix is not symmetric")
    if n == 1:
        return a[:, 0].copy(), (np.ones((k, 1, 1)) if vectors else None)
    stops = _stop_thresholds(a)
    mats = (0.5 * (a + a.transpose(0, 2, 1))).tolist()
    # rows: eigenvector columns
    vts = np.broadcast_to(np.eye(n), (k, n, n)).tolist() if vectors else [None] * k
    schedule = _rotation_schedule(n)
    for rows, vt, stop in zip(mats, vts, stops):
        jacobi_sweeps(rows, vt, stop, schedule)
    w = np.array([[rows[i][i] for i in range(n)] for rows in mats]).reshape(k, n)
    if not vectors:
        return w, None
    return w, np.array(vts).reshape(k, n, n).transpose(0, 2, 1)


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
    w, v = _jacobi_stack(a.reshape(-1, *a.shape[-2:]))
    w = w.reshape(a.shape[:-1])
    v = v.reshape(a.shape)
    order = np.argsort(-w, axis=-1, kind="stable")
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    _fix_column_signs(v)
    return np.take_along_axis(w, order, axis=-1), v


def eigvalsh_desc(a) -> np.ndarray:
    """The eigenvalues of ``eigh_desc(a)``, bit for bit, without its
    eigenvectors: the same sweeps with no rotation accumulated into a frame.

    ``a`` is one symmetric matrix, shape (n, n), or a stack, shape (k, n, n);
    the result has shape (n,) or (k, n)."""
    a = np.asarray(a, dtype=float)
    w = _jacobi_stack(a.reshape(-1, *a.shape[-2:]), vectors=False)[0].reshape(a.shape[:-1])
    return np.take_along_axis(w, np.argsort(-w, axis=-1, kind="stable"), axis=-1)


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


def dot_rows(x: np.ndarray, y: np.ndarray):
    """np.dot of two vectors, or of each pair of rows of (k, n) stacks (either
    may be one vector, broadcast): a (k, 1, n) @ (k, n, 1) matmul, whose row
    products are bit for bit those of the rows alone, which a sum along the
    rows' axis is not.  A float for two vectors."""
    out = (x[..., None, :] @ y[..., :, None])[..., 0, 0]
    return out if out.ndim else float(out)


def vecmat_rows(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """q @ m for a vector and a matrix, or row by row of a (k, r) stack of
    vectors and a (k, r, n) stack of matrices (either may be unstacked)."""
    return (q[..., None, :] @ m)[..., 0, :]


def diag_rows(q: np.ndarray) -> np.ndarray:
    """np.diag of a vector, or of each row of a (k, n) stack: (..., n) to
    (..., n, n), zero off the diagonal."""
    n = q.shape[-1]
    out = np.zeros((*q.shape, n))
    out.reshape(*q.shape[:-1], n * n)[..., :: n + 1] = q
    return out
