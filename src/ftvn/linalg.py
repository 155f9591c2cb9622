"""Dense symmetric eigensolver (cyclic Jacobi) and a small-matrix SVD built on it.

Kept dependency-light on purpose: numpy's eigensolvers stay free to serve as
independent test oracles.  Adequate for n <= 64.
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
    # deterministic convention: largest-magnitude entry of each column positive
    j = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[j, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs


def eigh_desc(a) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi eigendecomposition with eigenvalues sorted nonincreasing and a
    deterministic sign convention on the eigenvectors."""
    w, v = jacobi_eigh(a)
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_column_signs(v[:, order])


def _complete_orthonormal(u_cols: list[np.ndarray], m: int, count: int) -> list[np.ndarray]:
    # extend a partial orthonormal set by Gram-Schmidt over coordinate axes
    out = []
    basis = list(u_cols)
    for k in range(m):
        if len(out) == count:
            break
        cand = np.zeros(m)
        cand[k] = 1.0
        for b in basis:
            cand -= np.dot(b, cand) * b
        for b in basis:  # second pass for numerical orthogonality
            cand -= np.dot(b, cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            cand /= nrm
            basis.append(cand)
            out.append(cand)
    if len(out) < count:
        raise RuntimeError("failed to complete orthonormal basis")
    return out


def svd_jacobi(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``x = u @ diag(s) @ v.T`` with s nonincreasing and nonnegative.

    Computed from the Jacobi eigendecomposition of the smaller Gram matrix;
    left vectors for (near) zero singular values are completed from
    coordinate axes.  Column signs follow the largest-entry-positive rule on
    the right vectors.

    Accuracy: the Gram matrix squares the condition number.  Its eigenvalues
    carry an absolute error of about eps * s_1^2, so a singular value below
    about sqrt(eps) * s_1 (1.5e-8 s_1) keeps no reliable digits: with
    singular values (1, 1e-3, 1e-6, 1e-9) the last comes back as 0, and
    1e-12 next to 1 comes back as 2e-10.  Larger singular values are
    re-measured as ||x v_i||; in such examples they came back within
    1e-13 s_1.  Tolerances on singular values from here must allow for this.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if m < n:
        u, s, v = svd_jacobi(x.T)
        return v, s, u
    w, v = eigh_desc(x.T @ x)
    s = np.sqrt(np.clip(w, 0.0, None))
    cutoff = 1e-12 * (1.0 + (s[0] if n else 0.0))
    u_cols = []
    null_at = []
    for i in range(n):
        if s[i] > cutoff:
            col = x @ v[:, i]
            nrm = np.linalg.norm(col)
            s[i] = nrm  # re-measured singular value is slightly more accurate
            u_cols.append(col / nrm)
        else:
            s[i] = 0.0
            u_cols.append(None)
            null_at.append(i)
    if null_at:
        fills = _complete_orthonormal([c for c in u_cols if c is not None], m, len(null_at))
        for i, col in zip(null_at, fills):
            u_cols[i] = col
    u = np.column_stack(u_cols) if n else np.zeros((m, 0))
    return u, s, v
