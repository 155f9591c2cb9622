"""Symbolic descriptions of spectral sets E = lam^-1(Q) and the scalar pieces
(combiners, spectral functions) the reduction engine consumes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import DEDUP_TOL, DimensionMismatch, FtvnInstance, MonotonicityError
from .eja import dedup_points, sort_desc
from .solvers import NORMAL_ENTRY_LIMIT, OFFSET_LIMIT


@dataclass(frozen=True)
class FiniteSet:
    """Q given as an explicit list of points of W.  The empty set is a
    (0, dim_w) array: an empty list carries no width."""

    points: np.ndarray
    permutation_invariant: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0 and (pts.ndim != 2 or pts.shape[1] == 0):
            raise ValueError("an empty finite set needs its width: give a (0, dim_w) array")
        pts = dedup_points(np.atleast_2d(pts))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class OrderedPolyhedron:
    """{q : normals @ q <= offsets} intersected with the nonincreasing cone:
    one halfspace per row of the (m, n) array ``normals``.

    Emptiness is not assumed; infeasibility is a legal solve outcome.  Each
    offset must be below OFFSET_LIMIT and each normal entry below
    NORMAL_ENTRY_LIMIT in size, or the LP over the set would be decided
    wrongly or not at all.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        if normals.ndim != 2 or normals.shape[0] == 0:
            raise ValueError("a polyhedron needs at least one halfspace; "
                             "its dimension is read from the normals")
        if offsets.shape != normals.shape[:1]:
            raise ValueError(f"a polyhedron needs one offset per normal: {normals.shape[0]} "
                             f"normals, offsets of shape {offsets.shape}")
        # one test for the whole set; NaN fails it too
        inside = ((np.abs(offsets) < OFFSET_LIMIT)
                  & np.all(np.abs(normals) < NORMAL_ENTRY_LIMIT, axis=1))
        if not inside.all():
            raise ValueError(f"polyhedron set: halfspace {np.argmin(inside)} is past the LP "
                             f"solver's limits: each offset must be below {OFFSET_LIMIT:g} "
                             f"and each normal entry below {NORMAL_ENTRY_LIMIT:g} in size")
        normals.flags.writeable = offsets.flags.writeable = False
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_halfspaces(cls, halfspaces) -> "OrderedPolyhedron":
        """The set of (normal, offset) pairs."""
        halfspaces = list(halfspaces)
        return cls(np.array([a for a, _ in halfspaces], dtype=float),
                   np.array([b for _, b in halfspaces], dtype=float))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(a_ub, b_ub) with the set = {q : a_ub @ q <= b_ub}: the halfspaces,
        then the rows q_{i+1} - q_i <= 0 of the nonincreasing cone."""
        n = self.dim
        i = np.arange(n - 1)
        cone = np.zeros((n - 1, n))
        cone[i, i] = -1.0
        cone[i, i + 1] = 1.0
        return np.vstack([self.normals, cone]), np.concatenate([self.offsets, np.zeros(n - 1)])

    def generator_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(a_d, b_d) with the set = {T d : a_d @ d <= b_d, d_1..d_{n-1} >= 0},
        where T is upper triangular of ones, so that q = T d has q_i = d_i +
        ... + d_n and d_i = q_i - q_{i+1}: the generators of the nonincreasing
        cone, with the ordering rows turned into bounds on d.

        a_d = normals @ T holds the prefix sums of each normal, which can
        reach NORMAL_ENTRY_LIMIT though no entry of the normal does;
        ``solve_lp`` fits such rows to HiGHS.
        """
        return np.cumsum(self.normals, axis=1), self.offsets


def generator_point(d: np.ndarray) -> np.ndarray:
    """q = T d (see :meth:`OrderedPolyhedron.generator_rows`), with d_1 ..
    d_{n-1} clipped at 0: the reverse cumulative sum adds a nonnegative term
    at each step, so q is exactly nonincreasing."""
    d = np.asarray(d, dtype=float)
    steps = np.append(np.maximum(d[:-1], 0.0), d[-1])
    return np.cumsum(steps[::-1])[::-1]


@dataclass(frozen=True)
class OrbitOf:
    """E = the lam-orbit of u; the image is the singleton {lam(u)}."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


@dataclass(frozen=True)
class GridOracle:
    """Q known only through a membership oracle, scanned on a bounding box."""

    membership: Callable[[np.ndarray], bool]
    box: np.ndarray          # (dim, 2) rows of [lo, hi]
    resolution: int          # points per axis

    def __post_init__(self):
        object.__setattr__(self, "box", np.asarray(self.box, dtype=float))
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")

    def grid_points(self) -> np.ndarray:
        # the size is checked before any axis is built, which may be huge
        if self.resolution ** len(self.box) > 2_000_000:
            raise ValueError("grid too large to scan")
        axes = [np.linspace(lo, hi, self.resolution) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


SpectralSetSpec = Union[FiniteSet, OrderedPolyhedron, OrbitOf, GridOracle]


def check_set_width(inst: FtvnInstance, spec: SpectralSetSpec) -> None:
    """:class:`DimensionMismatch` unless Q's points have dim_w coordinates
    (an orbit's element: V's); TypeError for a spec that is no set kind."""
    if isinstance(spec, OrbitOf):
        inst.check_element(spec.u)
        return
    if isinstance(spec, FiniteSet):
        width = spec.points.shape[1]
    elif isinstance(spec, OrderedPolyhedron):
        width = spec.dim
    elif isinstance(spec, GridOracle):
        width = spec.box.shape[0]
    else:
        raise TypeError(f"unsupported spectral set spec {type(spec).__name__}")
    if width != inst.dim_w:
        raise DimensionMismatch(f"{inst.name}: {type(spec).__name__} has width {width}, "
                                f"expected {inst.dim_w}")


def image_candidates(spec: SpectralSetSpec, inst: FtvnInstance,
                     tol: float = 1e-9) -> np.ndarray:
    """The image lam(E) for specs with enumerable images (finite / orbit / grid).

    For a finite Q this is the set of members that already live in the image
    cone of the instance, which is Q intersected with its own decreasing
    rearrangements; possibly empty.  The caller checks the width first.
    """
    if isinstance(spec, OrbitOf):
        return np.atleast_2d(inst.lam(spec.u))
    if isinstance(spec, FiniteSet):
        pts = spec.points
        if spec.permutation_invariant:
            pts = dedup_points([sort_desc(p) for p in pts], DEDUP_TOL)
        return pts[inst.image_contains(pts, tol)]
    if isinstance(spec, GridOracle):
        pts = spec.grid_points()
        pts = pts[inst.image_contains(pts, tol)]
        keep = [p for p in pts if spec.membership(p)]
        return np.array(keep) if keep else np.zeros((0, pts.shape[1]))
    raise TypeError(f"no enumerable image for {type(spec).__name__}")


def membership_w(spec: SpectralSetSpec, inst: FtvnInstance, q: np.ndarray,
                 tol: float = 1e-8) -> bool:
    """Is q a member of Q (up to tolerance)?  Used for 'a in E' checks via lam(a)."""
    q = np.asarray(q, dtype=float)
    if isinstance(spec, FiniteSet):
        pts = spec.points
        if spec.permutation_invariant:
            return any(np.linalg.norm(sort_desc(p) - sort_desc(q)) <= tol * (1.0 + np.linalg.norm(p))
                       for p in pts)
        return any(np.linalg.norm(p - q) <= tol * (1.0 + np.linalg.norm(p)) for p in pts)
    if isinstance(spec, OrderedPolyhedron):
        a_ub, b_ub = spec.rows()
        return bool(np.all(a_ub @ q <= b_ub + tol * (1.0 + float(np.linalg.norm(q)))))
    if isinstance(spec, OrbitOf):
        return bool(np.linalg.norm(inst.lam(spec.u) - q) <= tol * (1.0 + np.linalg.norm(q)))
    if isinstance(spec, GridOracle):
        return bool(spec.membership(q))
    raise TypeError(f"unsupported spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# combiners L(t, s)

@dataclass(frozen=True)
class Combiner:
    """A scalar combination L(t, s); ``kind`` names its order in t: "sum" is
    increasing, "product" (t * s) increasing where s >= 0 and decreasing
    where s < 0.  ``reduce_solve`` refuses any other kind."""

    kind: str
    fn: Callable[[float, float], float]


SUM = Combiner("sum", lambda t, s: t + s)
PRODUCT = Combiner("product", lambda t, s: t * s)


MONOTONE_PROBES = 17


def probe_monotone(L: Combiner, t_lo: float, t_hi: float, s_values) -> None:
    """Verify strict monotonicity of t -> L(t, s) on a 17-point grid; abort
    with a contract error on violation rather than returning a wrong reduction."""
    if not math.isfinite(t_lo) or not math.isfinite(t_hi):
        return
    span = max(t_hi - t_lo, 1e-6 * (1.0 + abs(t_lo) + abs(t_hi)))
    ts = np.linspace(t_lo - 0.05 * span, t_hi + 0.05 * span, MONOTONE_PROBES)
    for s in s_values:
        if not math.isfinite(s):
            continue
        vals = [L.fn(float(t), float(s)) for t in ts]
        diffs = np.diff(vals)
        if np.any(diffs <= 0.0):
            raise MonotonicityError(
                f"combiner {L.kind!r} is not strictly increasing in its first "
                f"argument near s = {s:.6g}")


# ---------------------------------------------------------------------------
# spectral functions Phi = phi o lam

@dataclass(frozen=True)
class SpectralFunctionSpec:
    """phi on W, with caller-asserted structure flags.

    ``affine`` carries (coeffs, const) when phi is affine, unlocking the exact
    LP route; coeffs None means identically zero.  ``convex`` makes a summed
    minimization of a linear or distance objective convex, so its projected
    descent stops after the first start that converges to a finite value.

    ``grad`` and ``hess_diag`` are optional derivatives of phi: its gradient,
    and the diagonal of its Hessian, which is all of it for a separable phi.
    Both must be non-finite where phi is.  The descent uses the gradient in
    place of finite differences, and with the Hessian it takes projected
    Newton steps on a convex problem with a linear objective.
    """

    phi: Callable[[np.ndarray], float]
    convex: bool = False
    affine: Optional[tuple] = None
    kind: str = "custom"
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, q) -> float:
        return float(self.phi(np.asarray(q, dtype=float)))

    def affine_parts(self, dim: int) -> Optional[tuple[np.ndarray, float]]:
        if self.affine is None:
            return None
        coeffs, const = self.affine
        if coeffs is None:
            coeffs = np.zeros(dim)
        return np.asarray(coeffs, dtype=float), float(const)


ZERO_FN = SpectralFunctionSpec(phi=lambda q: 0.0, convex=True, affine=(None, 0.0),
                               kind="zero", grad=lambda q: np.zeros(q.size))


def neg_logdet_fn() -> SpectralFunctionSpec:
    """phi(q) = -sum log q_i, +inf unless q > 0; gradient -1/q, Hessian 1/q^2."""
    def phi(q):
        if np.any(q <= 0.0):
            return math.inf
        return float(-np.sum(np.log(q)))

    def grad(q):
        with np.errstate(divide="ignore"):
            return np.where(q > 0.0, -1.0 / q, -math.inf)

    def hess_diag(q):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(q > 0.0, 1.0 / q ** 2, math.inf)

    return SpectralFunctionSpec(phi=phi, convex=True, kind="neg_logdet", grad=grad,
                                hess_diag=hess_diag)


def table_fn(points, values, tol: float = 1e-9) -> SpectralFunctionSpec:
    """phi tabulated on finitely many points; lookup is nearest-within-tol."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)

    def phi(q):
        d = np.linalg.norm(pts - q, axis=1)
        i = int(np.argmin(d))
        if d[i] > tol * (1.0 + np.linalg.norm(q)):
            raise KeyError(f"point {q} not tabulated")
        return float(vals[i])

    return SpectralFunctionSpec(phi=phi, kind="custom_table")
