"""Normal-decomposition-system instances on matrices, plus two edge systems.

* ``svd:MxN``          -- m x n real matrices under <X,Y> = tr(XY^T) with the
                          singular-value map (nonincreasing, nonnegative);
                          witnesses come from simultaneous ordered SVDs.
* ``rot90``            -- R^2 with lam = rotation through 90 degrees: a linear
                          isometry, so every pair of elements commutes.
* ``z-counterexample`` -- sort-descending restricted to the plane spanned by
                          (3,2,1) and (-1,0,0) inside R^3.  Norm preservation
                          and the trace-type inequality survive restriction
                          but the witness axiom does not; its witness is
                          the best of the finitely many feasible points,
                          found by enumerating the permutations of the
                          target, so the A3 gap it reports is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import FtvnInstance, WitnessError, as_vec, on_rows, register_instance
from .eja import dedup_points, is_sorted_desc, sort_desc
from .linalg import svd_desc

# unused: perfbench/spans.py wraps this name for its linalg.svd span.  The
# decomposition calls svd_desc (LAPACK), so that span counts no calls; the
# Jacobi SVD itself is only a test oracle now
svd_jacobi = svd_desc


class RectMatrixSpace:
    """m x n real matrices with the Frobenius inner product and sigma-map."""

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("matrix dimensions must be positive")
        self.m = m
        self.n = n
        self.k = min(m, n)
        self.name = f"svd:{m}x{n}"
        self.instance = self._build_instance()

    def coords(self, matrix) -> np.ndarray:
        a = np.asarray(matrix, dtype=float)
        if a.shape != (self.m, self.n):
            raise ValueError(f"expected a {self.m}x{self.n} matrix, got {a.shape}")
        return a.ravel()

    def gamma(self, x) -> np.ndarray:
        """The m x n matrix carrying sigma(x) on its leading diagonal."""
        out = np.zeros((self.m, self.n))
        out[np.arange(self.k), np.arange(self.k)] = self.decompose(x)[0]
        return out

    def decompose(self, x) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Singular values and the frame (u, v) of x = u diag(s) v^T; on a
        stack, the singular value rows and one frame per row, from one
        LAPACK call."""
        return on_rows(self._decompose, x)

    def _decompose(self, xs: np.ndarray):
        u, s, v = svd_desc(xs.reshape(len(xs), self.m, self.n))
        return s, list(zip(u, v))

    def rebuild(self, q, frame) -> np.ndarray:
        """u diag(q) v^T, with q clipped at zero: the target's roundoff below
        zero is not a singular value."""
        u, v = frame
        return (u @ np.diag(np.clip(q, 0.0, None)) @ v.T).ravel()

    def _build_instance(self) -> FtvnInstance:
        return FtvnInstance(
            name=self.name,
            dim_v=self.m * self.n,
            dim_w=self.k,
            image_contains=lambda q, tol: (q.size == self.k and is_sorted_desc(q, tol)
                                           and q[-1] >= -tol * (1.0 + abs(q[0]))),
            backend=self,
            decompose=self.decompose,
            rebuild=self.rebuild,
        )


# ---------------------------------------------------------------------------
# rotation isometry on R^2

_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_instance() -> FtvnInstance:
    """lam = rotation through 90 degrees about the origin: (V, V, S) with S a
    linear isometry.  Any two elements commute; lam is not idempotent, which
    separates this system from the sorted-map families.  The rotation R is
    the frame of every element: decompose x to (R x, R), rebuild q as R^T q."""
    return FtvnInstance(
        name="rot90",
        dim_v=2,
        dim_w=2,
        image_contains=lambda q, tol: q.size == 2,
        decompose=lambda x: on_rows(lambda xs: (xs @ _ROT.T, [_ROT] * len(xs)), x),
        rebuild=lambda q, frame: frame.T @ q,
    )


# ---------------------------------------------------------------------------
# restricted-subspace pseudo-instance (A1/A2 hold, A3 fails)

@dataclass(frozen=True)
class ZWitnessSearch:
    """Outcome of the witness search for one (c, q) target."""

    x: np.ndarray          # feasible point maximizing <c, x> (exact eigenvalues)
    gap: float             # <lam c, q> - <c, x>; positive = A3 shortfall


class SubspacePseudoInstance:
    """Sort-descending restricted to a 2-d subspace of R^3.

    The feasible set {x in Z : lam(x) = q} is finite (the permutations of q
    lying in the plane), so the witness enumerates it and returns the exact
    argmax of <c, x>; the reported gap is exact.
    """

    def __init__(self, spanning=((3.0, 2.0, 1.0), (-1.0, 0.0, 0.0))):
        p = np.asarray(spanning[0], dtype=float)
        q = np.asarray(spanning[1], dtype=float)
        b1 = p / np.linalg.norm(p)
        b2 = q - np.dot(q, b1) * b1
        b2 /= np.linalg.norm(b2)
        self.basis = np.vstack([b1, b2])
        self.normal = np.cross(b1, b2)
        self.name = "z-counterexample"
        self.instance = self._build_instance()

    def embed(self, coeffs) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.basis

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_vec(x)
        return abs(float(np.dot(x, self.normal))) <= tol * (1.0 + np.linalg.norm(x))

    def feasible_points(self, q, tol: float = 1e-9) -> np.ndarray:
        """All permutations of q lying in the subspace (exact enumeration)."""
        q = np.asarray(q, dtype=float)
        cands = []
        for perm in itertools.permutations(range(3)):
            v = q[list(perm)]
            if self.contains(v, tol):
                cands.append(v)
        return dedup_points(cands) if cands else np.zeros((0, 3))

    def witness_search(self, c, q) -> ZWitnessSearch:
        c = as_vec(c)
        q = np.asarray(q, dtype=float)
        if q.size != 3 or not is_sorted_desc(q):
            raise WitnessError("z-counterexample: target is not a sorted vector")
        pts = self.feasible_points(q)
        if pts.shape[0] == 0:
            raise WitnessError("z-counterexample: target not in the restricted image")
        vals = pts @ c
        i = int(np.argmax(vals))
        gap = float(np.dot(sort_desc(c), q)) - float(vals[i])
        return ZWitnessSearch(x=pts[i], gap=gap)

    def _a3_witness(self, c: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.witness_search(c, q).x

    def _build_instance(self) -> FtvnInstance:
        def image_contains(q, tol):
            return (q.size == 3 and is_sorted_desc(q, tol)
                    and self.feasible_points(q, max(tol, 1e-9)).shape[0] > 0)

        # draw() projects a standard normal of R^3 onto the plane: a standard
        # normal of the plane, as embed() of a standard normal of R^2
        def project(x):
            return x - float(np.dot(x, self.normal)) * self.normal

        return FtvnInstance(
            name=self.name,
            dim_v=3,
            dim_w=3,
            lam=lambda x: sort_desc(x),
            a3_witness=self._a3_witness,
            image_contains=image_contains,
            project_element=project,
            riesz=project,
            backend=self,
        )


def z_counterexample_instance() -> SubspacePseudoInstance:
    return SubspacePseudoInstance()


def _svd_factory(args: str) -> FtvnInstance:
    m_str, _, n_str = args.partition("x")
    return RectMatrixSpace(int(m_str), int(n_str)).instance


register_instance("svd", _svd_factory)
register_instance("rot90", lambda args: rotation_instance())
register_instance("z-counterexample", lambda args: z_counterexample_instance().instance)
