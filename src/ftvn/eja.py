"""Euclidean Jordan algebra instances and their spectral machinery.

Four families are provided, all carrying the trace inner product:

* ``rn:N``    -- R^N with componentwise product; eigenvalue map = sort descending.
* ``sym:N``   -- real symmetric N x N matrices (stored as row-major flattenings)
                 with X o Y = (XY + YX)/2; eigenvalue map = spectrum descending.
* ``spin:N``  -- the spin factor on R^(1+N): elements (x0, xbar), rank 2,
                 eigenvalues x0 +/- ||xbar||.
* ``product:` -- finite direct products of the above; eigenvalues merge-sorted.

Every algebra also exposes itself as a :class:`~ftvn.core.FtvnInstance` whose
A3 witness is the constructive one: decompose c, then rebuild the target
eigenvalues on c's own frame.  Each family's decomposition works on a stack
of elements, one row each: (k, dim_v) to eigenvalues (k, rank) and a frame
of idempotent rows (k, rank, dim_v), or to the eigenvalues alone when no
frame is asked for, and the instance's rebuild, inner product, image test and
projection work on stacks too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DEDUP_TOL, DEFAULT_TOL, FtvnInstance, as_rows, as_vec, register_instance
from .linalg import dot_rows, eigh_desc, eigvalsh_desc, is_symmetric, vecmat_rows


def sort_desc(q) -> np.ndarray:
    """Nonincreasing rearrangement q-down."""
    return -np.sort(-np.asarray(q, dtype=float))


def is_sorted_desc(q, tol: float = 1e-9):
    """Is q nonincreasing up to tol * (1 + max |q_i|)?  On a (k, n) stack,
    one flag per row."""
    q = np.asarray(q, dtype=float)
    slack = tol * (1.0 + np.abs(q).max(axis=-1, keepdims=True, initial=0.0))
    ok = (q[..., 1:] - q[..., :-1] <= slack).all(axis=-1)
    return ok if ok.ndim else bool(ok)


def dedup_points(points, tol: float = DEDUP_TOL) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out: list[np.ndarray] = []
    for p in pts:
        if all(np.linalg.norm(p - o) > tol for o in out):
            out.append(p)
    return np.array(out) if out else np.zeros((0, pts.shape[1]))


def q_cap_qdown(points, tol: float = DEDUP_TOL) -> np.ndarray:
    """Members of a finite Q that are their own decreasing rearrangement.

    This equals the intersection of Q with Q-down, hence the eigenvalue image
    of the spectral set Q induces.  May legitimately be empty.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keep = [p for p in pts if is_sorted_desc(p, tol)]
    if not keep:
        return np.zeros((0, pts.shape[1]))
    return dedup_points(keep, tol)


def sigma_orbit(points, tol: float = DEDUP_TOL) -> np.ndarray:
    """Full permutation expansion of a finite set (dimension capped at 8)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if n > 8:
        raise ValueError(f"permutation expansion capped at dimension 8, got {n}")
    seen: set[tuple] = set()
    for p in pts:
        seen.update(itertools.permutations(p.tolist()))
    return dedup_points(np.array(sorted(seen)), tol)


class JordanAlgebra:
    """One algebra in coordinates: product, unit and inner product; its
    instance carries the decomposition kernel.

    Instances are immutable by convention; every method is a pure function
    of its arguments.
    """

    def __init__(self, kind: str, name: str, rank: int, dim_v: int,
                 jordan_product: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 unit: np.ndarray,
                 inner_weights: np.ndarray,
                 decompose: Callable[[np.ndarray, bool], tuple[np.ndarray, Optional[np.ndarray]]],
                 simple: bool = False,
                 project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 parts: tuple = ()):
        self.kind = kind
        self.name = name
        self.rank = rank
        self.simple = simple  # no nontrivial ideal: rn:1, sym:N, spin:N with N >= 2
        self.dim_v = dim_v
        self.jordan_product = jordan_product
        self.unit = np.asarray(unit, dtype=float)
        self._w = np.asarray(inner_weights, dtype=float)
        self._project = project if project is not None else (lambda x: x)
        self.parts = parts  # the factor algebras of a product, in order; () otherwise
        self.instance = self._build_instance(decompose)

    # -- algebra structure -------------------------------------------------

    def inner(self, x, y):
        """The trace inner product; row by row on stacks."""
        return dot_rows(self._w * as_rows(x), as_rows(y))

    def norm(self, x) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))

    # -- FTvN instance wrapper ----------------------------------------------

    def _build_instance(self, decompose) -> FtvnInstance:
        # lam and a3_witness derive from the decompose/rebuild hooks, and
        # commute_check takes its shared frame from them; a frame is the
        # idempotents as rows, so a rebuild is q @ frame
        return FtvnInstance(
            name=self.name,
            dim_v=self.dim_v,
            dim_w=self.rank,
            inner_v=self.inner,
            image_contains=is_sorted_desc,
            project_element=self._project,
            backend=self,
            decompose=decompose,
            rebuild=vecmat_rows,
        )


# ---------------------------------------------------------------------------
# concrete families

def sort_decompose(xs: np.ndarray, frames: bool = True) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The spectral decomposition of R^N, row by row of a (k, N) stack: each
    row sorted nonincreasing, and the rows of the identity in that order
    (None with ``frames=False``)."""
    order = np.argsort(-xs, axis=1, kind="stable")
    eigs = xs[np.arange(len(xs))[:, None], order]
    return eigs, (np.eye(xs.shape[1])[order] if frames else None)


def rn_algebra(n: int) -> JordanAlgebra:
    if n < 1:
        raise ValueError("rank must be positive")

    return JordanAlgebra(
        kind="rn", name=f"rn:{n}", rank=n, dim_v=n,
        jordan_product=lambda x, y: x * y,
        unit=np.ones(n),
        inner_weights=np.ones(n),
        decompose=sort_decompose,
        simple=n == 1,
    )


def mat_of(x, n: int) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(n, n)


def sym_coords(matrix) -> np.ndarray:
    """Flatten a symmetric matrix into element coordinates (validates symmetry)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has a non-finite entry")
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    return (0.5 * (m + m.T)).ravel()


def sym_algebra(n: int) -> JordanAlgebra:
    if n < 1:
        raise ValueError("rank must be positive")

    def jp(x, y):
        a = mat_of(x, n)
        b = mat_of(y, n)
        return (0.5 * (a @ b + b @ a)).ravel()

    def project(x):
        m = x.reshape(*x.shape[:-1], n, n)
        return (0.5 * (m + np.swapaxes(m, -1, -2))).reshape(x.shape)

    def decompose(xs, frames=True):
        # total on the flattening: the symmetric part is the element
        m = xs.reshape(len(xs), n, n)
        m = 0.5 * (m + m.transpose(0, 2, 1))
        if not frames:
            return eigvalsh_desc(m), None
        w, v = eigh_desc(m)
        # outer products, no sums: each entry is one product, as for one
        # matrix.  In C order: rebuild multiplies by these rows, and its
        # roundoff follows the memory layout
        frame = np.einsum("hji,hki->hijk", v, v, order="C").reshape(len(xs), n, n * n)
        return w, frame

    return JordanAlgebra(
        kind="sym", name=f"sym:{n}", rank=n, dim_v=n * n,
        jordan_product=jp,
        unit=np.eye(n).ravel(),
        inner_weights=np.ones(n * n),
        decompose=decompose,
        simple=True,
        project=project,
    )


def spin_algebra(n: int) -> JordanAlgebra:
    """Spin factor on R^(1+n); rank 2.  Trace inner product = 2 * dot."""
    if n < 1:
        raise ValueError("need at least one spatial coordinate")
    default_axis = np.zeros(n)
    default_axis[0] = 1.0

    def jp(x, y):
        out = np.empty(n + 1)
        out[0] = np.dot(x, y)
        out[1:] = x[0] * y[1:] + y[0] * x[1:]
        return out

    def decompose(xs, frames=True):
        x0 = xs[:, 0]
        xbar = xs[:, 1:]
        # bit for bit np.linalg.norm of each row alone
        r = np.sqrt(dot_rows(xbar, xbar))
        axis = xbar / np.where(r > 0, r, 1.0)[:, None]
        axis[r == 0] = default_axis
        eigs = np.empty((len(xs), 2))
        eigs[:, 0] = x0 + r
        eigs[:, 1] = x0 - r
        if not frames:
            return eigs, None
        frame = np.empty((len(xs), 2, n + 1))
        frame[:, :, 0] = 0.5
        frame[:, 0, 1:] = 0.5 * axis
        frame[:, 1, 1:] = -frame[:, 0, 1:]
        return eigs, frame

    return JordanAlgebra(
        kind="spin", name=f"spin:{n}", rank=2, dim_v=n + 1,
        jordan_product=jp,
        unit=np.concatenate(([1.0], np.zeros(n))),
        inner_weights=np.full(n + 1, 2.0),
        decompose=decompose,
        simple=n >= 2,
    )


def product_algebra(parts: list[JordanAlgebra]) -> JordanAlgebra:
    if not parts:
        raise ValueError("product needs at least one part")
    rank = sum(p.rank for p in parts)
    dim_v = sum(p.dim_v for p in parts)
    v_off = np.cumsum([0] + [p.dim_v for p in parts])
    w_off = np.cumsum([0] + [p.rank for p in parts])
    name = "product:" + "+".join(p.name for p in parts)

    def slices_v(x):
        return [x[..., v_off[i]:v_off[i + 1]] for i in range(len(parts))]

    def jp(x, y):
        return np.concatenate([p.jordan_product(a, b)
                               for p, a, b in zip(parts, slices_v(x), slices_v(y))])

    def decompose(xs, frames=True):
        # each part's rows in their own block; a stable sort of the merged
        # eigenvalues breaks ties by part, then by index within the part
        eigs = np.empty((len(xs), rank))
        frame = np.zeros((len(xs), rank, dim_v)) if frames else None
        for i, p in enumerate(parts):
            part_eigs, part_rows = p.instance.decompose(xs[:, v_off[i]:v_off[i + 1]], frames)
            eigs[:, w_off[i]:w_off[i + 1]] = part_eigs
            if frames:
                frame[:, w_off[i]:w_off[i + 1], v_off[i]:v_off[i + 1]] = part_rows
        order = np.argsort(-eigs, axis=1, kind="stable")
        rows = np.arange(len(xs))[:, None]
        return eigs[rows, order], (frame[rows, order] if frames else None)

    def project(x):
        return np.concatenate([p._project(xi) for p, xi in zip(parts, slices_v(x))], axis=-1)

    return JordanAlgebra(
        kind="product", name=name, rank=rank, dim_v=dim_v,
        jordan_product=jp,
        unit=np.concatenate([p.unit for p in parts]),
        inner_weights=np.concatenate([p._w for p in parts]),
        decompose=decompose,
        project=project,
        parts=tuple(parts),
        simple=len(parts) == 1 and parts[0].simple,
    )


# ---------------------------------------------------------------------------
# operations

def operator_commute_check(alg: JordanAlgebra, x, y, tol: float = DEFAULT_TOL) -> bool:
    """Do the multiplication operators L_x and L_y commute?

    Tested as a linear-operator identity over the coordinate basis.  Weaker
    than strong commutativity: it ignores eigenvalue ordering.
    """
    xv = as_vec(x)
    yv = as_vec(y)
    basis = np.eye(alg.dim_v)
    lx = np.column_stack([alg.jordan_product(xv, b) for b in basis])
    ly = np.column_stack([alg.jordan_product(yv, b) for b in basis])
    resid = np.linalg.norm(lx @ ly - ly @ lx)
    scale = 1.0 + np.linalg.norm(lx) * np.linalg.norm(ly)
    return bool(resid <= tol * scale)


@dataclass(frozen=True)
class MajorizationReport:
    prefix_gaps: np.ndarray  # length rank-1; each must be >= -tol
    trace_gap: float         # must be ~0
    ok: bool


def majorization_check(alg: JordanAlgebra, x, y, tol: float = DEFAULT_TOL) -> MajorizationReport:
    """lam(x+y) against lam(x) + lam(y): prefix sums dominated, totals equal."""
    xv = alg.instance.check_element(x)
    yv = alg.instance.check_element(y)
    lam = alg.instance.lam
    s = np.cumsum(lam(xv) + lam(yv))
    t = np.cumsum(lam(xv + yv))
    prefix = (s - t)[:-1]
    trace_gap = float(s[-1] - t[-1])
    scale = 1.0 + alg.norm(xv) + alg.norm(yv)
    ok = bool(np.all(prefix >= -tol * scale) and abs(trace_gap) <= tol * scale)
    return MajorizationReport(prefix_gaps=prefix, trace_gap=trace_gap, ok=ok)


def idempotent_orbit_max(alg: JordanAlgebra, c, k: int) -> tuple[float, np.ndarray]:
    """Largest <c, x> over rank-k idempotents: the top-k eigenvalue sum,
    attained at the sum of the first k idempotents of c's own frame."""
    if not 1 <= k <= alg.rank:
        raise ValueError(f"k must lie in 1..{alg.rank}")
    eigs, frame = alg.instance.spectral(alg.instance.check_element(c))
    return float(np.sum(eigs[:k])), np.sum(frame[:k], axis=0)


# ---------------------------------------------------------------------------
# registry

def algebra_from_name(name: str) -> JordanAlgebra:
    head, _, args = name.partition(":")
    if head == "rn":
        return rn_algebra(int(args))
    if head == "sym":
        return sym_algebra(int(args))
    if head == "spin":
        return spin_algebra(int(args))
    if head == "product":
        return product_algebra([algebra_from_name(p) for p in args.split("+")])
    raise KeyError(f"unknown algebra {name!r}")


register_instance("rn", lambda args: algebra_from_name(f"rn:{args}").instance)
register_instance("sym", lambda args: algebra_from_name(f"sym:{args}").instance)
register_instance("spin", lambda args: algebra_from_name(f"spin:{args}").instance)
register_instance("product", lambda args: algebra_from_name(f"product:{args}").instance)
