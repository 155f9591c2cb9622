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
    """A combiner failed its strict-monotonicity probe."""


def as_vec(x) -> np.ndarray:
    """Accept an ElementV or a bare array-like; return a 1-d float array."""
    coords = getattr(x, "coords", x)
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d coordinate vector, got shape {v.shape}")
    return v


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
    confirm they rise and fall together.  ``witness`` optionally carries
    instance-specific shared-decomposition data (a Jordan frame, an
    orthogonal pair, ...) when the verdict is positive.  ``lam_x`` is lam of
    the first element as the check computed it.
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

    All callables operate on bare 1-d numpy coordinate vectors.  ``lam`` must
    be positively homogeneous and satisfy A1/A2; ``a3_witness(c, q)`` returns
    x with lam(x) = q maximizing <c, x>, raising :class:`WitnessError` on
    failure.

    An instance with a spectral decomposition gives it as two hooks, the
    paper's construction: ``decompose(x) -> (eigs, frame)`` with eigs = lam(x)
    and ``rebuild(q, frame) -> x`` with lam(x) = q, which puts the target
    eigenvalues on the frame's own basis.  ``lam`` and ``a3_witness``, when
    left out, are derived from the hooks at construction: the witness for
    (c, q) is q rebuilt on c's frame, which makes it exact
    (:attr:`witness_is_exact`).  An instance without the hooks gives ``lam``
    and ``a3_witness`` itself, and its witness is taken for a numerical
    search.  :meth:`spectral` is the one entry point for (lam(x), frame);
    :func:`commute_check` takes the frame of x + y as the shared-frame
    witness of a commuting pair.

    ``draw`` samples an element: a standard normal coordinate vector through
    ``project_element``.  :meth:`sample_orbit` samples the orbit of q through
    the hooks.
    """

    name: str
    dim_v: int
    dim_w: int
    lam: Optional[Callable[[np.ndarray], np.ndarray]] = None
    a3_witness: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    inner_v: Callable[[np.ndarray, np.ndarray], float] = lambda x, y: float(np.dot(x, y))
    image_contains: Callable[[np.ndarray, float], bool] = lambda q, tol: True
    # maps a coordinate gradient to its inner_v representer (identity for dot)
    riesz: Callable[[np.ndarray], np.ndarray] = lambda g: g
    # projection onto the manifold of valid elements (symmetrization for
    # matrix instances); free-coordinate searches compose through this
    project_element: Callable[[np.ndarray], np.ndarray] = lambda x: x
    backend: Any = None
    decompose: Optional[Callable[[np.ndarray], tuple[np.ndarray, Any]]] = None
    rebuild: Optional[Callable[[np.ndarray, Any], np.ndarray]] = None

    def __post_init__(self):
        if (self.decompose is None) != (self.rebuild is None):
            raise TypeError(f"{self.name}: decompose and rebuild come together")
        if self.decompose is not None:
            decompose = self.decompose
            if self.lam is None:
                object.__setattr__(self, "lam", lambda x: decompose(x)[0])
            if self.a3_witness is None:
                object.__setattr__(self, "a3_witness",
                                   lambda c, q: self.witness_on(c, q, decompose(c)[1]))
        if self.lam is None or self.a3_witness is None:
            raise TypeError(f"{self.name}: give lam and a3_witness, or decompose and rebuild")

    @property
    def witness_is_exact(self) -> bool:
        """True when the witness is rebuilt on c's frame, False when it is a
        numerical search (restricted subspace, custom hyperbolic polynomial)."""
        return self.rebuild is not None

    def spectral(self, x: np.ndarray) -> tuple[np.ndarray, Any]:
        """(lam(x), frame of x); the frame is None without the hooks."""
        if self.decompose is not None:
            return self.decompose(x)
        return self.lam(x), None

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
        the frames of ``count`` drawn elements.  q is not checked against the
        image.  TypeError without the hooks."""
        if self.rebuild is None:
            raise TypeError(f"{self.name}: orbit sampling needs decompose and rebuild")
        q = np.asarray(q, dtype=float)
        return np.array([self.rebuild(q, self.decompose(self.draw(rng))[1])
                         for _ in range(count)]).reshape(count, self.dim_v)


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
    """The frame of x + y when it rebuilds both x from lam(x) and y from
    lam(y) to sqrt(tol) of their size, else None."""
    bound = math.sqrt(tol)
    rx = inst.norm_v(x - inst.rebuild(lx, frame))
    ry = inst.norm_v(y - inst.rebuild(ly, frame))
    if rx <= bound * (1.0 + inst.norm_v(x)) and ry <= bound * (1.0 + inst.norm_v(y)):
        return frame
    return None


def commute_check(inst: FtvnInstance, x, y, tol: float = DEFAULT_TOL,
                  lam_y: Optional[np.ndarray] = None) -> CommutationCert:
    """Test whether x and y commute; all four equivalent residuals are recorded.

    ``lam_y`` is lam(y) when the caller already has it.  lam(x) is always
    computed here, so the certificate never takes the caller's word for x.
    x + y is decomposed once; on an instance with the hooks its frame is the
    shared-frame witness.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xv = inst.check_element(x)
    yv = inst.check_element(y)
    lx = inst.lam(xv)
    ly = inst.lam(yv) if lam_y is None else lam_y
    lxy, frame = inst.spectral(xv + yv)
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


def axiom_suite(inst: FtvnInstance, seed: int, n_samples: int,
                tol: float = DEFAULT_TOL) -> AxiomReport:
    """Sampled verification of A1/A2/A3, positive homogeneity, and the
    sandwich inequalities.  Failures are reported, never thrown."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs = [inst.draw(rng) for _ in range(n_samples)]
    # each sample is decomposed once: its lam, and its frame for the A3 witness
    lams, frames = zip(*[inst.spectral(x) for x in xs])
    norms = [inst.norm_v(x) for x in xs]

    a1 = 0.0
    homog = 0.0
    a2_min = math.inf
    sand_inner = 0.0
    sand_dist = 0.0
    n_commute = 0
    for i, (x, lx, nx) in enumerate(zip(xs, lams, norms)):
        a1 = max(a1, abs(inst.norm_w(lx) - nx) / (1.0 + nx))
        alpha = abs(rng.standard_normal())
        gap = np.linalg.norm(inst.lam(alpha * x) - alpha * lx)
        homog = max(homog, gap / (1.0 + alpha * nx))

        y = xs[(i + 1) % n_samples]
        ly = lams[(i + 1) % n_samples]
        ny = norms[(i + 1) % n_samples]
        scale = 1.0 + nx * ny
        ip_v = inst.inner_v(x, y)
        ip_w = inst.inner_w(lx, ly)
        a2_min = min(a2_min, (ip_w - ip_v) / scale)
        if abs(ip_w - ip_v) <= tol * scale:
            n_commute += 1
        # sandwich: <tilde-lam x, lam y> <= <x,y> <= <lam x, lam y>
        lt = -inst.lam(-x)
        sand_inner = max(sand_inner, (inst.inner_w(lt, ly) - ip_v) / scale)
        dscale = 1.0 + nx + ny
        d_v = inst.norm_v(x - y)
        sand_dist = max(sand_dist,
                        (inst.norm_w(lx - ly) - d_v) / dscale,
                        (d_v - inst.norm_w(lt - ly)) / dscale)

    a3_lam = 0.0
    a3_inner = 0.0
    a3_gap = -math.inf
    a3_pair = None
    a3_failures = 0
    for i in range(n_samples):
        c = xs[i]
        q = lams[(i + 1) % n_samples]
        try:
            w = inst.witness_on(c, q, frames[i])
        except WitnessError:
            a3_failures += 1
            continue
        lw = inst.lam(w)
        nq = inst.norm_w(q)
        nc = inst.norm_v(c)
        a3_lam = max(a3_lam, np.linalg.norm(lw - q) / (1.0 + nq))
        target = inst.inner_w(lams[i], q)
        got = inst.inner_v(c, w)
        a3_inner = max(a3_inner, abs(got - target) / (1.0 + nc * nq))
        gap = target - got
        if gap > a3_gap:
            a3_gap = gap
            a3_pair = (tuple(c.tolist()), tuple(q.tolist()))

    notes = []
    ok = True
    for label, value in [("A1", a1), ("A2", max(0.0, -a2_min)), ("homogeneity", homog),
                         ("sandwich-inner", sand_inner), ("sandwich-dist", sand_dist),
                         ("A3-lambda", a3_lam), ("A3-inner", a3_inner)]:
        if value > tol:
            ok = False
            notes.append(f"{label} violation {value:.3e} exceeds tol {tol:.1e}")
    if a3_failures:
        ok = False
        notes.append(f"A3 witness failed on {a3_failures} samples")
    if not inst.witness_is_exact:
        notes.append("witness is a numerical search; A3 residuals may be genuine violations")

    return AxiomReport(
        instance=inst.name, seed=seed, n_samples=n_samples, tol=tol,
        a1_max=a1, a2_violation=max(0.0, -a2_min), a2_min_gap=a2_min,
        homogeneity_max=homog,
        sandwich_inner_violation=max(0.0, sand_inner),
        sandwich_dist_violation=max(0.0, sand_dist),
        a3_max_lambda_residual=a3_lam, a3_max_inner_residual=a3_inner,
        a3_worst_gap=a3_gap if a3_gap > -math.inf else 0.0,
        a3_worst_pair=a3_pair, a3_failures=a3_failures,
        commute_fraction=n_commute / n_samples,
        passed=ok, notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# instance registry

_REGISTRY: dict[str, Callable[[str], FtvnInstance]] = {}


def register_instance(head: str, factory: Callable[[str], FtvnInstance]) -> None:
    """Register a factory under a name head.  ``get_instance("head:args")``
    calls ``factory("args")``; a bare ``head`` calls ``factory("")``."""
    _REGISTRY[head] = factory


def get_instance(name: str) -> FtvnInstance:
    head, _, args = name.partition(":")
    if head not in _REGISTRY:
        raise KeyError(f"unknown instance {name!r}; known: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[head](args)


def registered_instances() -> list[str]:
    return sorted(_REGISTRY)
