"""Fan-Theobald-von Neumann (FTvN) systems: shared interface and verification engine.

An FTvN system is a triple (V, W, lam) of real inner product spaces together
with a norm preserving map ``lam: V -> W`` such that

* A1:  ||lam(x)|| = ||x|| for every x,
* A2:  <x, y> <= <lam(x), lam(y)> for every pair,
* A3:  for every c in V and q in lam(V) some x attains lam(x) = q and
       <c, x> = <lam(c), q>.

Concrete systems (Jordan algebras, singular-value maps, hyperbolic
polynomials, linear isometries) plug in through :class:`FtvnInstance`.  This
module holds everything instance-independent: the commutativity test with its
four equivalent residuals, the sampled axiom/property verification engine,
and the name registry the CLI uses to construct instances from strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .linalg import dot_rows

DEFAULT_TOL = 1e-8
DEDUP_TOL = 1e-12


class FtvnError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(FtvnError):
    pass


class WitnessError(FtvnError):
    """A3 witness construction failed (target outside the image, or the
    instance's search could not produce a feasible point)."""


class MonotonicityError(FtvnError):
    """A product at sense max needs t's orbit minimum where phi < 0, and that
    minimum is a heuristic search (a max-affine objective off rn)."""


def as_vec(x) -> np.ndarray:
    """Accept an ElementV or a bare array-like; return a 1-d float array."""
    coords = getattr(x, "coords", x)
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d coordinate vector, got shape {v.shape}")
    return v


def as_rows(x) -> np.ndarray:
    """Accept an ElementV, a bare array-like or a (k, n) stack of coordinate
    rows; return a float array."""
    return np.asarray(getattr(x, "coords", x), dtype=float)


def frame_row(frame, i: int):
    """Row i of a stacked frame: the frame of the stack's row i, with the
    same bits as a decomposition of that row alone.  The frame is an array
    or a tuple of arrays, each with the leading axis of the stack; None
    stays None."""
    if frame is None:
        return None
    return tuple(a[i] for a in frame) if isinstance(frame, tuple) else frame[i]


def _frozen_vec(coords) -> np.ndarray:
    v = np.array(as_vec(coords), dtype=float, copy=True)
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ElementV:
    """An element of the ambient space V, as dense real coordinates.

    ``tag`` binds the element to the instance it belongs to; empty means
    unbound (accepted by any instance of the right dimension).
    """

    coords: np.ndarray
    tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_vec(self.coords))


@dataclass(frozen=True)
class CommutationCert:
    """Evidence about whether two elements commute.

    The four residuals correspond to the four equivalent characterizations
    of commutativity:

    * ``residual_inner``   |<x,y> - <lam x, lam y>|
    * ``residual_dist``    | ||lam x - lam y|| - ||x - y|| |
    * ``residual_addnorm`` | ||lam(x+y)|| - ||lam x + lam y|| |
    * ``residual_addvec``  ||lam(x+y) - (lam x + lam y)||

    ``verdict`` is decided on the inner-product residual at relative
    tolerance tol*(1 + ||x|| ||y||); the others are recorded so tests can
    confirm they rise and fall together.  ``witness`` optionally carries a
    shared frame (a Jordan frame, an orthogonal pair, ...) when the verdict
    is positive: the frame of y when the caller gave it, else that of x + y,
    kept only when it rebuilds both elements.  ``lam_x`` is lam of the first
    element as the check computed it.
    """

    residual_inner: float
    residual_dist: float
    residual_addnorm: float
    residual_addvec: float
    verdict: bool
    witness: Any = None
    lam_x: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FtvnInstance:
    """A concrete realization of (V, W, lam).

    ``lam`` is positively homogeneous and satisfies A1/A2; ``a3_witness(c,
    q)`` returns x with lam(x) = q maximizing <c, x>, or raises
    :class:`WitnessError`.  An instance with a spectral decomposition gives
    two hooks instead, the paper's construction, and lam and the witness
    are derived from them.  ``decompose(xs, frames=True)`` maps a (k,
    dim_v) stack to its eigenvalues, shape (k, dim_w), and its frame, the
    row frames stacked on a leading axis (None with ``frames=False``, the
    same eigenvalues bit for bit); ``rebuild(qs, frame)`` puts (k, dim_w)
    targets, or one target for every row, on such a frame.  The witness for
    (c, q) is then q rebuilt on c's frame (:attr:`witness_is_exact`).
    :meth:`spectral` is the one entry point for (lam(x), frame), for one
    element or a stack.

    ``inner_v``, ``image_contains`` and ``project_element`` take stacks too;
    row i of any stacked result equals the call on row i alone, bit for bit.
    """

    name: str
    dim_v: int
    dim_w: int
    lam: Optional[Callable[[np.ndarray], np.ndarray]] = None
    a3_witness: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    inner_v: Callable[[np.ndarray, np.ndarray], Any] = dot_rows
    image_contains: Callable[[np.ndarray, float], Any] = lambda q, tol: np.ones(q.shape[:-1], bool)
    # projection onto the manifold of valid elements (symmetrization for
    # matrix instances); free-coordinate searches compose through this
    project_element: Callable[[np.ndarray], np.ndarray] = lambda x: x
    backend: Any = None
    decompose: Optional[Callable[..., tuple[np.ndarray, Any]]] = None
    rebuild: Optional[Callable[[np.ndarray, Any], np.ndarray]] = None

    def __post_init__(self):
        if (self.decompose is None) != (self.rebuild is None):
            raise TypeError(f"{self.name}: decompose and rebuild come together")
        if self.decompose is not None:
            if self.lam is None:
                object.__setattr__(self, "lam", lambda x: self.spectral(x, frames=False)[0])
            if self.a3_witness is None:
                object.__setattr__(self, "a3_witness",
                                   lambda c, q: self.witness_on(c, q, self.spectral(c)[1]))
        if self.lam is None or self.a3_witness is None:
            raise TypeError(f"{self.name}: give lam and a3_witness, or decompose and rebuild")

    @property
    def witness_is_exact(self) -> bool:
        """True when the witness is rebuilt on c's frame, False when it is a
        numerical search (restricted subspace, custom hyperbolic polynomial)."""
        return self.rebuild is not None

    def spectral(self, x, frames: bool = True) -> tuple[np.ndarray, Any]:
        """(lam(x), frame of x); the frame is None without the hooks or with
        ``frames=False``.  On a (k, dim_v) stack, (the k eigenvalue rows, the
        stack's frame), in one ``decompose`` call, or one ``lam`` call per row
        without the hooks.  One element is decomposed as the one-row stack."""
        xs = as_rows(x)
        if xs.ndim not in (1, 2):
            raise DimensionMismatch(f"expected an element or a stack of elements, "
                                    f"got shape {xs.shape}")
        if self.decompose is None:
            if xs.ndim == 2:
                return np.array([self.lam(r) for r in xs]).reshape(len(xs), self.dim_w), None
            return self.lam(xs), None
        if xs.ndim == 1:
            eigs, frame = self.decompose(xs[None], frames=frames)
            return eigs[0], frame_row(frame, 0)
        return self.decompose(xs, frames=frames)

    def riesz(self, g) -> np.ndarray:
        """The inner_v representer of a coordinate gradient g: G^-1 g on the
        element space, with G the Gram matrix of inner_v on the coordinate
        basis."""
        basis = np.eye(self.dim_v)
        gram = np.array([self.inner_v(e, basis) for e in basis])
        return self.project_element(np.linalg.solve(gram, g))

    def witness_on(self, c: np.ndarray, q, frame) -> np.ndarray:
        """The A3 witness for (c, q) when c's frame from :meth:`spectral` is
        already at hand: q rebuilt on that frame, or ``a3_witness(c, q)``
        when the frame is None."""
        if frame is None:
            return self.a3_witness(c, q)
        return self.rebuild(checked_target(self, q), frame)

    def element(self, coords) -> ElementV:
        v = as_vec(coords)
        if v.size != self.dim_v:
            raise DimensionMismatch(f"{self.name}: element has length {v.size}, expected {self.dim_v}")
        return ElementV(v, tag=self.name)

    def check_element(self, x) -> np.ndarray:
        tag = getattr(x, "tag", "")
        if tag and tag != self.name:
            raise DimensionMismatch(f"element tagged {tag!r} passed to instance {self.name!r}")
        v = as_vec(x)
        if v.size != self.dim_v:
            raise DimensionMismatch(f"{self.name}: element has length {v.size}, expected {self.dim_v}")
        return v

    def inner_w(self, p, q) -> float:
        """The inner product of W: always the dot product."""
        return float(np.dot(p, q))

    def norm_v(self, x) -> float:
        v = as_vec(x)
        return math.sqrt(max(self.inner_v(v, v), 0.0))

    def norm_w(self, q) -> float:
        v = as_vec(q)
        return math.sqrt(max(self.inner_w(v, v), 0.0))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.project_element(rng.standard_normal(self.dim_v))

    def sample_orbit(self, q, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` elements with eigenvalues q, stacked as rows: q rebuilt on
        the frames of ``count`` drawn elements, decomposed and rebuilt in one
        call each.  q is not checked against the image.  TypeError without
        the hooks."""
        if self.rebuild is None:
            raise TypeError(f"{self.name}: orbit sampling needs decompose and rebuild")
        frames = self.spectral(_draw_rows(self, rng, count))[1]
        return self.rebuild(np.asarray(q, dtype=float), frames)


def _draw_rows(inst: FtvnInstance, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws stacked as rows: one standard normal draw of shape
    (count, dim_v), the same stream as ``count`` calls of ``draw``, and one
    stacked projection."""
    return inst.project_element(rng.standard_normal((count, inst.dim_v)))


def lambda_tilde(inst: FtvnInstance, c) -> np.ndarray:
    """The increasing-rearrangement counterpart -lam(-c), computed, never stored."""
    v = inst.check_element(c)
    return -inst.lam(-v)


# A witness target may stray this far outside the image, relative to its size.
WITNESS_TARGET_TOL = 1e-9


def checked_target(inst: FtvnInstance, q) -> np.ndarray:
    """q as a float array, or :class:`WitnessError` when it is not an
    eigenvalue vector of the instance (wrong length, or outside the image)."""
    q = np.asarray(q, dtype=float)
    if q.size != inst.dim_w:
        raise WitnessError(f"{inst.name}: target has length {q.size}, expected {inst.dim_w}")
    if not inst.image_contains(q, WITNESS_TARGET_TOL):
        raise WitnessError(f"{inst.name}: target lies outside the image of lam")
    return q


# An element may sit this far off its projection, relative to its size.
ELEMENT_DRIFT_TOL = 1e-10


def check_element_space(inst: FtvnInstance, v: np.ndarray) -> None:
    """ValueError when v is off the instance's element space.

    Such an element (a flat sym:N list that is not symmetric, a z point off
    the plane) would solve as its projection while the certificate judged
    the element itself.  An identity projection (rn, svd) returns v itself
    and moves nothing.
    """
    projected = inst.project_element(v)
    if projected is not v:
        drift = float(np.abs(projected - v).max())
        if drift > ELEMENT_DRIFT_TOL * (1.0 + float(np.abs(v).max())):
            raise ValueError(f"{inst.name}: element is not in the instance's element "
                             f"space (its projection moves it by {drift:.3e})")


def _frame_witness(inst: FtvnInstance, x, y, lx, ly, frame, tol: float):
    """The candidate shared frame (that of y, or of x + y) when it rebuilds
    both x from lam(x) and y from lam(y) to sqrt(tol) of their size, else
    None."""
    bound = math.sqrt(tol)
    rx = inst.norm_v(x - inst.rebuild(lx, frame))
    ry = inst.norm_v(y - inst.rebuild(ly, frame))
    if rx <= bound * (1.0 + inst.norm_v(x)) and ry <= bound * (1.0 + inst.norm_v(y)):
        return frame
    return None


def commute_check(inst: FtvnInstance, x, y, tol: float = DEFAULT_TOL,
                  spectral_y: Optional[tuple[np.ndarray, Any]] = None) -> CommutationCert:
    """Test whether x and y commute; all four equivalent residuals are recorded.

    ``spectral_y`` is (lam(y), frame of y) from :meth:`FtvnInstance.spectral`
    when the caller already has them, as the reduction engine does for the
    direction its lift was rebuilt on.  Then x and x + y are decomposed in one
    frameless call, and y's frame is the candidate shared frame.  Without it,
    lam(x) and lam(y) come from one frameless call, and x + y is decomposed
    with its frame, the candidate.  lam(x) is always computed here, so the
    certificate never takes the caller's word for x, and a candidate frame is
    the witness only when it rebuilds both x and y from their eigenvalues.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xv = inst.check_element(x)
    yv = inst.check_element(y)
    if spectral_y is None:
        lx, ly = inst.spectral(np.stack([xv, yv]), frames=False)[0]
        lxy, frame = inst.spectral(xv + yv)
    else:
        ly, frame = spectral_y
        lx, lxy = inst.spectral(np.stack([xv, xv + yv]), frames=False)[0]
    ip_v = inst.inner_v(xv, yv)
    ip_w = inst.inner_w(lx, ly)
    residual_inner = abs(ip_v - ip_w)
    residual_dist = abs(inst.norm_w(lx - ly) - inst.norm_v(xv - yv))
    residual_addnorm = abs(inst.norm_w(lxy) - inst.norm_w(lx + ly))
    residual_addvec = inst.norm_w(lxy - (lx + ly))
    nx = inst.norm_v(xv)
    ny = inst.norm_v(yv)
    verdict = bool(residual_inner <= tol * (1.0 + nx * ny))
    witness = None
    if verdict and frame is not None:
        witness = _frame_witness(inst, xv, yv, lx, ly, frame, tol)
    return CommutationCert(residual_inner, residual_dist, residual_addnorm,
                           residual_addvec, verdict, witness, lam_x=lx)


def sublinearity_gap(inst: FtvnInstance, c, x, y) -> float:
    """<lam c, lam x> + <lam c, lam y> - <lam c, lam(x+y)>; nonnegative in an FTvN system."""
    cv = inst.check_element(c)
    xv = inst.check_element(x)
    yv = inst.check_element(y)
    lc = inst.lam(cv)
    return (inst.inner_w(lc, inst.lam(xv)) + inst.inner_w(lc, inst.lam(yv))
            - inst.inner_w(lc, inst.lam(xv + yv)))


def norm_sublinearity_gap(inst: FtvnInstance, x, y) -> float:
    """||lam x + lam y|| - ||lam(x+y)||: the norm form of sublinearity, also nonnegative."""
    xv = inst.check_element(x)
    yv = inst.check_element(y)
    return inst.norm_w(inst.lam(xv) + inst.lam(yv)) - inst.norm_w(inst.lam(xv + yv))


def cone_sum_witness(inst: FtvnInstance, u, v) -> np.ndarray:
    """A point z with lam(z) = lam(u) + lam(v), showing the image is a convex cone.

    Constructive route: x = a3_witness(v, lam(u)) commutes with v, so
    z = x + v has lam(z) = lam(x) + lam(v).
    """
    if not inst.witness_is_exact:
        raise WitnessError(f"{inst.name}: cone-sum construction needs an exact witness")
    uv = inst.check_element(u)
    vv = inst.check_element(v)
    x = inst.a3_witness(vv, inst.lam(uv))
    return x + vv


@dataclass(frozen=True)
class AxiomReport:
    """Maximum sampled violations of the defining axioms and basic properties.

    All residuals are normalized by the relevant scale (1 + product/sum of
    norms), so ``tol`` is directly comparable.  ``a3_worst_gap`` is the
    *absolute* shortfall <lam c, q> - <c, x_witness>; on instances with exact
    witnesses it is ~0, while the restricted-subspace pseudo-instance shows
    genuinely positive gaps there.
    """

    instance: str
    seed: int
    n_samples: int
    tol: float
    a1_max: float
    a2_violation: float
    a2_min_gap: float
    homogeneity_max: float
    sandwich_inner_violation: float
    sandwich_dist_violation: float
    a3_max_lambda_residual: float
    a3_max_inner_residual: float
    a3_worst_gap: float
    a3_worst_pair: Optional[tuple] = None
    a3_failures: int = 0
    commute_fraction: float = 0.0
    passed: bool = False
    notes: tuple = ()


def _witness_rows(inst: FtvnInstance, cs: np.ndarray, qs: np.ndarray, frames):
    """The A3 witnesses of the rows of cs for the targets qs, stacked, and a
    mask of the rows that have one.  On the hooks, one image check and one
    rebuild of the stack on its frame; without them, one ``a3_witness`` call
    per row, whose :class:`WitnessError` leaves the row out."""
    if frames is not None:
        ok = inst.image_contains(qs, WITNESS_TARGET_TOL)
        return inst.rebuild(qs, frames)[ok], ok
    ok = np.ones(len(cs), dtype=bool)
    rows = []
    for i, (c, q) in enumerate(zip(cs, qs)):
        try:
            rows.append(inst.a3_witness(c, q))
        except WitnessError:
            ok[i] = False
    return np.array(rows).reshape(-1, inst.dim_v), ok


def _worst(values: np.ndarray, start: float) -> tuple[float, Optional[int]]:
    """The loop ``acc = max(acc, v)`` from start over the finite values, bit
    for bit, and the index of the value it ends on (None when it ends on
    start)."""
    idx = np.flatnonzero(np.isfinite(values))
    if idx.size:
        i = int(idx[np.argmax(values[idx])])
        if values[i] > start:
            return float(values[i]), i
    return start, None


def axiom_suite(inst: FtvnInstance, seed: int, n_samples: int,
                tol: float = DEFAULT_TOL) -> AxiomReport:
    """Sampled verification of A1/A2/A3, positive homogeneity, and the
    sandwich inequalities.  Failures are reported, never thrown.

    Sample i is paired with sample i + 1 (cyclically) for A2, the sandwiches
    and the A3 target.  Every check is one array expression over the sample
    stack; a residual that is not finite is counted in the notes and fails
    the suite, and the reported maxima are over the finite residuals.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs = _draw_rows(inst, rng, n_samples)
    alphas = np.abs(rng.standard_normal(n_samples))
    # one decomposition call per batch: the samples (their lam, and their
    # frame for the A3 witnesses), alpha x, -x, and below the witnesses;
    # only the samples' call builds a frame
    lams, frames = inst.spectral(xs)
    lams_scaled = inst.spectral(alphas[:, None] * xs, frames=False)[0]
    lams_neg = inst.spectral(-xs, frames=False)[0]

    # inst.norm_v and inst.norm_w of each row
    def norm_v(a):
        return np.sqrt(np.maximum(inst.inner_v(a, a), 0.0))

    def norm_w(a):
        return np.sqrt(np.maximum(dot_rows(a, a), 0.0))

    nx = norm_v(xs)
    ys, lys, ny = (np.roll(a, -1, axis=0) for a in (xs, lams, nx))
    lts = -lams_neg  # tilde-lam x = -lam(-x)

    scale = 1.0 + nx * ny
    ip_v = inst.inner_v(xs, ys)
    ip_w = dot_rows(lams, lys)
    a2_gaps = (ip_w - ip_v) / scale
    dscale = 1.0 + nx + ny
    d_v = norm_v(xs - ys)
    # sandwich: <tilde-lam x, lam y> <= <x,y> <= <lam x, lam y>, and its
    # distance form
    residuals = {
        "A1": np.abs(norm_w(lams) - nx) / (1.0 + nx),
        "A2": -a2_gaps,
        "homogeneity": norm_w(lams_scaled - alphas[:, None] * lams) / (1.0 + alphas * nx),
        "sandwich-inner": (dot_rows(lts, lys) - ip_v) / scale,
        "sandwich-dist": np.concatenate([(norm_w(lams - lys) - d_v) / dscale,
                                         (d_v - norm_w(lts - lys)) / dscale]),
    }

    # A3: q = lam(y) rebuilt on x's frame, against <lam x, q>
    witnesses, ok = _witness_rows(inst, xs, lys, frames)
    lams_w = inst.spectral(witnesses, frames=False)[0]
    cs, qs = xs[ok], lys[ok]
    nq = norm_w(qs)
    target = dot_rows(lams[ok], qs)
    got = inst.inner_v(cs, witnesses)
    residuals["A3-lambda"] = norm_w(lams_w - qs) / (1.0 + nq)
    residuals["A3-inner"] = np.abs(got - target) / (1.0 + nx[ok] * nq)
    a3_gap, worst = _worst(target - got, -math.inf)

    notes = []
    ok_all = True
    worst_of = {}
    for label, values in residuals.items():
        value = worst_of[label] = _worst(values, 0.0)[0]
        if value > tol:
            ok_all = False
            notes.append(f"{label} violation {value:.3e} exceeds tol {tol:.1e}")
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            ok_all = False
            notes.append(f"{label}: {bad} non-finite residuals")
    a3_failures = n_samples - int(np.count_nonzero(ok))
    if a3_failures:
        ok_all = False
        notes.append(f"A3 witness failed on {a3_failures} samples")
    if not inst.witness_is_exact:
        notes.append("witness is a numerical search; A3 residuals may be genuine violations")

    a2_min = -_worst(-a2_gaps, -math.inf)[0]
    return AxiomReport(
        instance=inst.name, seed=seed, n_samples=n_samples, tol=tol,
        a1_max=worst_of["A1"], a2_violation=worst_of["A2"], a2_min_gap=a2_min,
        homogeneity_max=worst_of["homogeneity"],
        sandwich_inner_violation=worst_of["sandwich-inner"],
        sandwich_dist_violation=worst_of["sandwich-dist"],
        a3_max_lambda_residual=worst_of["A3-lambda"],
        a3_max_inner_residual=worst_of["A3-inner"],
        a3_worst_gap=a3_gap if worst is not None else 0.0,
        a3_worst_pair=None if worst is None else (tuple(cs[worst].tolist()),
                                                  tuple(qs[worst].tolist())),
        a3_failures=a3_failures,
        commute_fraction=int(np.count_nonzero(np.abs(ip_w - ip_v) <= tol * scale)) / n_samples,
        passed=ok_all, notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# instance registry

_REGISTRY: dict[str, Callable[[str], FtvnInstance]] = {}


def register_instance(head: str, factory: Callable[[str], FtvnInstance]) -> None:
    """Register a factory under a name head.  ``get_instance("head:args")``
    calls ``factory("args")``; a bare ``head`` calls ``factory("")``."""
    _REGISTRY[head] = factory


def get_instance(name: str) -> FtvnInstance:
    if not isinstance(name, str):
        raise ValueError(f"an instance name is a string, not {type(name).__name__}")
    head, _, args = name.partition(":")
    if head not in _REGISTRY:
        raise KeyError(f"unknown instance {name!r}; known: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[head](args)


def registered_instances() -> list[str]:
    return sorted(_REGISTRY)
