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
of elements, one row each: (k, dim_v) to eigenvalues (k, rank) and idempotent
rows (k, rank, dim_v).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DEDUP_TOL, DEFAULT_TOL, FtvnInstance, as_vec, on_rows, register_instance
from .linalg import eigh_desc, is_symmetric


@dataclass(frozen=True)
class JordanFrame:
    """Ordered complete system of orthogonal primitive idempotents (rows)."""

    idempotents: np.ndarray

    def __post_init__(self):
        # C order whatever the source layout: rebuild multiplies by these rows,
        # and its roundoff follows the memory layout
        arr = np.array(self.idempotents, dtype=float, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "idempotents", arr)


def sort_desc(q) -> np.ndarray:
    """Nonincreasing rearrangement q-down."""
    return -np.sort(-np.asarray(q, dtype=float))


def is_sorted_desc(q, tol: float = 1e-9) -> bool:
    q = np.asarray(q, dtype=float)
    if q.size <= 1:
        return True
    return bool(np.all(np.diff(q) <= tol * (1.0 + np.abs(q).max())))


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
    """One algebra in coordinates: product, unit, inner product, decomposition.

    Instances are immutable by convention; every method is a pure function
    of its arguments.
    """

    def __init__(self, kind: str, name: str, rank: int, dim_v: int,
                 jordan_product: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 unit: np.ndarray,
                 inner_weights: np.ndarray,
                 decompose: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
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
        self._decompose = decompose  # (k, dim_v) -> eigenvalues, idempotent rows
        self._project = project if project is not None else (lambda x: x)
        self.parts = parts  # the factor algebras of a product, in order; () otherwise
        self.instance = self._build_instance()

    # -- algebra structure -------------------------------------------------

    def inner(self, x, y) -> float:
        x = as_vec(x)
        y = as_vec(y)
        return float(np.dot(self._w * x, y))

    def norm(self, x) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))

    def decompose(self, x) -> tuple[np.ndarray, JordanFrame]:
        """The instance's ``decompose`` hook: eigenvalues (nonincreasing) and
        the Jordan frame whose idempotents rebuild x; on a stack, the
        eigenvalue rows and one frame per row."""
        return on_rows(self._frames, x)

    def _frames(self, xs: np.ndarray) -> tuple[np.ndarray, list[JordanFrame]]:
        eigs, rows = self._decompose(xs)
        return eigs, [JordanFrame(r) for r in rows]

    # -- FTvN instance wrapper ----------------------------------------------

    def _build_instance(self) -> FtvnInstance:
        # lam and a3_witness derive from the decompose/rebuild hooks, and
        # commute_check takes its shared frame from them
        return FtvnInstance(
            name=self.name,
            dim_v=self.dim_v,
            dim_w=self.rank,
            inner_v=self.inner,
            image_contains=lambda q, tol: q.size == self.rank and is_sorted_desc(q, tol),
            riesz=lambda g: self._project(g) / self._w,
            project_element=self._project,
            backend=self,
            decompose=self.decompose,
            rebuild=lambda q, frame: q @ frame.idempotents,
        )


# ---------------------------------------------------------------------------
# concrete families

def sort_decompose(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spectral decomposition of R^N, row by row of a (k, N) stack: each
    row sorted nonincreasing, and the rows of the identity in that order."""
    order = np.argsort(-xs, axis=1, kind="stable")
    return xs[np.arange(len(xs))[:, None], order], np.eye(xs.shape[1])[order]


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
        m = mat_of(x, n)
        return (0.5 * (m + m.T)).ravel()

    def decompose(xs):
        # total on the flattening: the symmetric part is the element
        m = xs.reshape(len(xs), n, n)
        w, v = eigh_desc(0.5 * (m + m.transpose(0, 2, 1)))
        # outer products, no sums: each entry is one product, as for one matrix
        frame = np.einsum("hji,hki->hijk", v, v).reshape(len(xs), n, n * n)
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

    def decompose(xs):
        x0 = xs[:, 0]
        xbar = xs[:, 1:]
        # each row's dot product by matmul: bit for bit np.linalg.norm of the
        # row alone, which a reduction along axis 1 is not
        r = np.sqrt((xbar[:, None, :] @ xbar[:, :, None])[:, 0, 0])
        axis = xbar / np.where(r > 0, r, 1.0)[:, None]
        axis[r == 0] = default_axis
        eigs = np.empty((len(xs), 2))
        eigs[:, 0] = x0 + r
        eigs[:, 1] = x0 - r
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
        return [x[v_off[i]:v_off[i + 1]] for i in range(len(parts))]

    def jp(x, y):
        return np.concatenate([p.jordan_product(a, b)
                               for p, a, b in zip(parts, slices_v(x), slices_v(y))])

    def decompose(xs):
        # each part's rows in their own block; a stable sort of the merged
        # eigenvalues breaks ties by part, then by index within the part
        eigs = np.empty((len(xs), rank))
        frame = np.zeros((len(xs), rank, dim_v))
        for i, p in enumerate(parts):
            part_eigs, part_rows = p._decompose(xs[:, v_off[i]:v_off[i + 1]])
            eigs[:, w_off[i]:w_off[i + 1]] = part_eigs
            frame[:, w_off[i]:w_off[i + 1], v_off[i]:v_off[i + 1]] = part_rows
        order = np.argsort(-eigs, axis=1, kind="stable")
        rows = np.arange(len(xs))[:, None]
        return eigs[rows, order], frame[rows, order]

    def project(x):
        return np.concatenate([p._project(xi) for p, xi in zip(parts, slices_v(x))])

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
    xv = as_vec(x)
    yv = as_vec(y)
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
    eigs, frame = alg._decompose(as_vec(c)[None])
    value = float(np.sum(eigs[0, :k]))
    idem = np.sum(frame[0, :k], axis=0)
    return value, idem


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
