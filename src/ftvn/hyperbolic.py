"""Root maps induced by hyperbolic polynomials.

For a homogeneous degree-n polynomial p with p(e) != 0, the map sends x to
the roots of t -> p(te - x), sorted nonincreasing.  When every such root is
real, p is hyperbolic in direction e; when additionally the roots vanish only
at x = 0 ("complete"), ||lam(x)|| defines a norm on V, recovered here as a
quadratic form (Gram matrix) by polarization.

The stock polynomials carry their spectral decomposition as the instance's
decompose/rebuild hooks (coordinate product: a sort; det on symmetric
matrices: the eigendecomposition).  Their instances take lam from the
decomposition, and their A3 witnesses are exact: the complete isometric case
of Bauschke, Gueler, Lewis and Sendov (2001).  A custom polynomial's instance
takes lam by root extraction and gets a witness search.  The searches in this
module are falsifiers: absence of a counterexample after the search budget is
evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import FtvnError, FtvnInstance, WitnessError, as_rows, as_vec, register_instance
from .eja import is_sorted_desc, sort_decompose
from .linalg import diag_rows, dot_rows, eigh_desc, eigvalsh_desc, vecmat_rows

IMAG_TOL = 1e-7
LEADING_TOL = 1e-12


class NonHyperbolicError(FtvnError):
    """Complex roots beyond tolerance: not hyperbolic w.r.t. the given direction."""


class DegenerateLeadingCoefficient(FtvnError):
    pass


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of c[0] + c[1] t + ... + c[n] t^n via companion-matrix eigenvalues."""
    n = coeffs.size - 1
    monic = coeffs[:-1] / coeffs[-1]
    if n == 1:
        return np.array([-monic[0]], dtype=complex)
    comp = np.zeros((n, n))
    comp[np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, -1] = -monic
    return np.linalg.eigvals(comp)


class HyperbolicPolynomial:
    """A blackbox homogeneous polynomial with a hyperbolicity direction.

    ``lam`` is root extraction, the root map's definition.  ``decompose``
    and ``rebuild``, when given, are the spectral hooks of
    :class:`~ftvn.core.FtvnInstance` for the same map, and the instance then
    takes lam from ``decompose``; root extraction serves the falsifiers and
    the Gram check.
    """

    def __init__(self, dim: int, degree: int,
                 evaluator: Callable[[np.ndarray], float],
                 direction_e, name: str = "hyp",
                 decompose: Optional[Callable[..., tuple]] = None,
                 rebuild: Optional[Callable[[np.ndarray, object], np.ndarray]] = None):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.dim = dim
        self.degree = degree
        self.evaluator = evaluator
        self.direction_e = np.asarray(as_vec(direction_e), dtype=float)
        if self.direction_e.size != dim:
            raise ValueError("direction has wrong dimension")
        self.name = name
        self.decompose = decompose
        self.rebuild = rebuild
        if abs(self.evaluator(self.direction_e)) < LEADING_TOL:
            raise DegenerateLeadingCoefficient(f"{name}: p(e) vanishes")
        self._gram: Optional[np.ndarray] = None
        # Chebyshev abscissas on [-1, 1]; rescaled per call by 1 + ||x||
        j = np.arange(degree + 1)
        self._cheb = np.cos(np.pi * (2 * j + 1) / (2.0 * (degree + 1)))

    def lam(self, x) -> np.ndarray:
        """Roots of t -> p(te - x), nonincreasing.  Raises NonHyperbolicError
        when imaginary parts exceed tolerance.

        Positive homogeneity of the root vector lets us work on the unit
        sphere: roots are extracted for x/||x|| and rescaled, which keeps the
        Vandermonde system and the companion eigenproblem uniformly
        conditioned (and makes lam(0) = 0 exact).
        """
        x = as_vec(x)
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return np.zeros(self.degree)
        y = x / nrm
        nodes = 2.0 * self._cheb
        vals = np.array([self.evaluator(t * self.direction_e - y) for t in nodes])
        vander = np.vander(nodes, N=self.degree + 1, increasing=True)
        coeffs = np.linalg.solve(vander, vals)
        if abs(coeffs[-1]) < LEADING_TOL:
            raise DegenerateLeadingCoefficient(f"{self.name}: leading coefficient vanished")
        roots = _poly_roots(coeffs)
        imag = float(np.max(np.abs(roots.imag)))
        if imag > IMAG_TOL * 2.0:
            raise NonHyperbolicError(
                f"{self.name}: imaginary residue {imag:.3e} on the unit sphere")
        return nrm * -np.sort(-roots.real)

    def lam_norm(self, x) -> float:
        return float(np.linalg.norm(self.lam(x)))

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix of the polarization inner product over the coordinate basis.

        Built once; positive-definiteness and agreement of the quadratic form
        with ||lam(.)||^2 on samples are required, otherwise the instance is
        unusable and construction aborts.
        """
        if self._gram is None:
            self._gram = self._build_gram()
        return self._gram

    def _build_gram(self) -> np.ndarray:
        # ||lam||^2 of the basis points and of their pairwise sums, in one
        # spectral call: from the decomposition where there is one, since
        # these points have repeated roots, where root extraction loses half
        # its digits (hyp:prod:4 reads them as complex)
        n = self.dim
        basis = np.eye(n)
        i, j = np.triu_indices(n, k=1)
        eigs = self.as_instance().spectral(np.concatenate([basis, basis[i] + basis[j]]),
                                           frames=False)[0]
        sq = dot_rows(eigs, eigs)
        g = np.diag(sq[:n])
        g[i, j] = g[j, i] = 0.5 * (sq[n:] - sq[i] - sq[j])
        w = eigvalsh_desc(g)
        if w[-1] <= 1e-10 * max(1.0, w[0]):
            raise FtvnError(f"{self.name}: polarization form is not positive definite")
        rng = np.random.default_rng(0)
        for _ in range(16):
            x = rng.standard_normal(self.dim)
            y = rng.standard_normal(self.dim)
            nx2 = self.lam_norm(x) ** 2
            ny2 = self.lam_norm(y) ** 2
            quad_gap = abs(float(x @ g @ x) - nx2)
            para_gap = abs(self.lam_norm(x + y) ** 2 + self.lam_norm(x - y) ** 2
                           - 2.0 * nx2 - 2.0 * ny2)
            scale = 1.0 + nx2 + ny2
            if quad_gap > 1e-6 * scale or para_gap > 1e-6 * scale:
                raise FtvnError(
                    f"{self.name}: ||lam(.)|| fails to be a quadratic form "
                    f"(residuals {quad_gap:.2e}, {para_gap:.2e})")
        return g

    def inner(self, x, y):
        """x^T G y with the Gram matrix G; row by row on stacks.  Each row's
        x^T G is its own vector-matrix product: a (k, n) @ G GEMM of the
        stack rounds differently."""
        return dot_rows(vecmat_rows(as_rows(x), self.gram), as_rows(y))

    # -- FTvN wrapper -------------------------------------------------------

    def as_instance(self) -> FtvnInstance:
        # with the hooks lam and the witness derive from them; without, lam is
        # root extraction and the witness a search
        search = self.decompose is None
        return FtvnInstance(
            name=f"hyp:{self.name}",
            dim_v=self.dim,
            dim_w=self.degree,
            lam=self.lam if search else None,
            a3_witness=self._search_witness if search else None,
            inner_v=self.inner,
            image_contains=is_sorted_desc,
            backend=self,
            decompose=self.decompose,
            rebuild=self.rebuild,
        )

    def _search_witness(self, c: np.ndarray, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.size != self.degree or not is_sorted_desc(q):
            raise WitnessError(f"{self.name}: target is not a sorted root vector")
        best, residual = orbit_additivity_search(
            self, y=c, target=q, rng=np.random.default_rng(1234), n_starts=12)
        if residual > 1e-5 * (1.0 + float(np.linalg.norm(q))):
            raise WitnessError(f"{self.name}: search could not reach the target orbit "
                               f"(residual {residual:.2e})")
        return best


def orbit_additivity_search(hp: HyperbolicPolynomial, y, target, rng,
                            n_starts: int = 12, maxiter: int = 1200,
                            seeds: Optional[list] = None) -> tuple[np.ndarray, float]:
    """Search {x : lam(x) = target} for a point with lam(x+y) = lam(x) + lam(y).

    Minimizes the sum of the squared additivity gap and the squared orbit
    residual; a zero of this objective is simultaneously feasible and
    additive, so any positive floor after multistart descent is a
    falsification candidate.  Returns (best x, objective value at best).
    """
    from scipy.optimize import minimize  # deferred: see solvers._scipy_extension

    y = as_vec(y)
    target = np.asarray(target, dtype=float)
    lam_y = hp.lam(y)

    def objective(x):
        try:
            feas = hp.lam(x) - target
            add = hp.lam(x + y) - target - lam_y
        except FtvnError:
            return 1e6
        return float(np.dot(add, add) + np.dot(feas, feas))

    r = float(np.linalg.norm(target))
    starts = list(seeds) if seeds else []
    while len(starts) < n_starts:
        s = rng.standard_normal(hp.dim)
        starts.append(s * (1.0 + r) / (1.0 + np.linalg.norm(s)))
    best_x = None
    best_f = math.inf
    for s in starts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-24,
                                "maxiter": maxiter, "maxfev": 4 * maxiter})
        res = minimize(objective, res.x, method="Powell",
                       options={"xtol": 1e-12, "ftol": 1e-24, "maxiter": 60})
        if res.fun < best_f:
            best_f = float(res.fun)
            best_x = np.asarray(res.x, dtype=float)
        if best_f < 1e-22:
            break
    return best_x, math.sqrt(max(best_f, 0.0))


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool                    # no null direction found within budget
    min_ratio: float                  # smallest ||lam(x)|| / ||x|| observed
    candidate: Optional[np.ndarray]   # unit vector with lam ~ 0 when found
    n_restarts: int
    seed: int


def completeness_check(hp: HyperbolicPolynomial, seed: int = 0,
                       n_restarts: int = 24) -> CompletenessReport:
    """Hunt for x != 0 with lam(x) = 0 by multistart descent on the sphere."""
    from scipy.optimize import minimize  # deferred: see solvers._scipy_extension

    rng = np.random.default_rng(seed)

    def ratio(s):
        nrm = np.linalg.norm(s)
        if nrm < 1e-12:
            return 1e6
        try:
            return hp.lam_norm(s / nrm)
        except FtvnError:
            return 1e6

    best = math.inf
    best_x = None
    for _ in range(n_restarts):
        s0 = rng.standard_normal(hp.dim)
        res = minimize(ratio, s0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 800})
        if res.fun < best:
            best = float(res.fun)
            best_x = np.asarray(res.x, dtype=float)
            best_x = best_x / np.linalg.norm(best_x)
        if best <= 1e-10:
            break
    found_null = best <= 1e-9
    return CompletenessReport(complete=not found_null, min_ratio=best,
                              candidate=best_x if found_null else None,
                              n_restarts=n_restarts, seed=seed)


@dataclass(frozen=True)
class IsometricSample:
    additivity_gap: float   # ||lam(x+y) - lam(x) - lam(y)|| at the best x
    orbit_residual: float   # ||lam(x) - lam(z)|| at the best x


@dataclass(frozen=True)
class IsometricReport:
    samples: tuple
    max_gap: float
    tol: float
    counterexample_candidate: bool
    seed: int


def isometric_falsify(hp: HyperbolicPolynomial, seed: int = 0, n_samples: int = 4,
                      tol: float = 1e-6, n_starts: int = 10) -> IsometricReport:
    """For sampled (y, z), search the orbit of z for an x making the root map
    additive against y.  A gap bounded away from zero after the budget is a
    falsification candidate, never a proof."""
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for _ in range(n_samples):
        y = rng.standard_normal(hp.dim)
        z = rng.standard_normal(hp.dim)
        target = hp.lam(z)
        x, _ = orbit_additivity_search(hp, y, target, rng, n_starts=n_starts,
                                       seeds=[z.copy()])
        feas = float(np.linalg.norm(hp.lam(x) - target))
        gap = float(np.linalg.norm(hp.lam(x + y) - hp.lam(x) - hp.lam(y)))
        rows.append(IsometricSample(additivity_gap=gap, orbit_residual=feas))
        worst = max(worst, gap)
    return IsometricReport(samples=tuple(rows), max_gap=worst, tol=tol,
                           counterexample_candidate=worst > tol, seed=seed)


# ---------------------------------------------------------------------------
# stock polynomials

def coordinate_product_polynomial(n: int) -> HyperbolicPolynomial:
    """p(x) = x_1 * ... * x_n on R^n: the root map is plain sorting."""
    return HyperbolicPolynomial(
        dim=n, degree=n,
        evaluator=lambda v: float(np.prod(v)),
        direction_e=np.ones(n),
        name=f"prod:{n}",
        decompose=sort_decompose,
        rebuild=vecmat_rows)


def _svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def svec_to_mat(coords: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`mat_to_svec`; scaled so the flat dot product equals
    tr(XY).  A stack of coordinate rows gives a stack of matrices."""
    m = np.zeros((*coords.shape[:-1], n, n))
    i = np.arange(n)
    m[..., i, i] = coords[..., :n]
    iu = np.triu_indices(n, k=1)
    m[(..., *iu)] = coords[..., n:] / math.sqrt(2.0)
    m[..., iu[1], iu[0]] = m[(..., *iu)]
    return m


def mat_to_svec(m: np.ndarray) -> np.ndarray:
    """The coordinates of a symmetric matrix, or of each matrix of a stack."""
    n = m.shape[-1]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1), math.sqrt(2.0) * m[(..., *iu)]],
                          axis=-1)


def det_sym_polynomial(n: int) -> HyperbolicPolynomial:
    """p = det on symmetric n x n matrices in scaled-symmetric coordinates;
    the root map recovers the spectrum, and the eigenvectors V of the matrix
    are the frame: q is rebuilt as V diag(q) V^T."""
    dim = _svec_dim(n)

    def decompose(xs, frames=True):
        m = svec_to_mat(xs, n)
        return eigh_desc(m) if frames else (eigvalsh_desc(m), None)

    return HyperbolicPolynomial(
        dim=dim, degree=n,
        evaluator=lambda v: float(np.linalg.det(svec_to_mat(np.asarray(v, float), n))),
        direction_e=mat_to_svec(np.eye(n)),
        name=f"detsym:{n}",
        decompose=decompose,
        rebuild=lambda q, v: mat_to_svec(v @ diag_rows(q) @ np.swapaxes(v, -1, -2)))


def monomial_polynomial(n: int, e, monomials: list[dict]) -> HyperbolicPolynomial:
    """p(x) = sum_k coef_k * prod_i x_i^powers_k[i]; homogeneity is the caller's
    responsibility and is probed by the invariant tests."""
    terms = [(float(m["coef"]), np.asarray(m["powers"], dtype=int)) for m in monomials]
    degree = int(sum(terms[0][1]))

    def evaluator(v):
        return float(sum(c * np.prod(np.power(v, p)) for c, p in terms))

    return HyperbolicPolynomial(dim=n, degree=degree, evaluator=evaluator,
                                direction_e=e, name=f"monomials:{n}")


def hyperbolic_from_json(obj: dict) -> HyperbolicPolynomial:
    kind = obj["kind"]
    if kind == "coordinate_product":
        return coordinate_product_polynomial(int(obj["n"]))
    if kind == "det_sym":
        return det_sym_polynomial(int(obj["n"]))
    if kind == "custom_monomials":
        return monomial_polynomial(int(obj["n"]), np.asarray(obj["e"], dtype=float),
                                   obj["monomials"])
    raise KeyError(f"unknown polynomial kind {kind!r}")


def _hyp_factory(args: str) -> FtvnInstance:
    head, _, rest = args.partition(":")
    if head == "prod":
        return coordinate_product_polynomial(int(rest)).as_instance()
    if head == "detsym":
        return det_sym_polynomial(int(rest)).as_instance()
    raise KeyError(f"unknown hyperbolic instance hyp:{args}")


register_instance("hyp", _hyp_factory)
