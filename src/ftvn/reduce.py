"""The reduction engine.

Optimizing L(f, Phi) over a spectral set E = lam^-1(Q) in V is equivalent to
optimizing L(f-image, phi) over lam(E) in W, provided L is strictly increasing
in its first argument.  This module builds the W-side problem, solves it by
the first route of ``_ROUTES`` that applies (scan, HiGHS LP, exact projection
or projected multistart descent), lifts the W-side optimizer back to V through
the instance's A3 witness, and certifies the lift by a commutation check:

* linear objective:   sup attains commuting with c, inf with -c;
* distance objective: the directions swap (inf with c, sup with -c);
* max-affine sup:     the optimizer commutes with an active piece.

Suprema that a heuristic or grid solver cannot certify as attained are marked
``attained=False`` rather than silently collapsed to maxima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from .core import (DEFAULT_TOL, CommutationCert, FtvnError, FtvnInstance,
                   WitnessError, as_vec, check_element_space, commute_check,
                   lambda_tilde)
from .eja import JordanAlgebra
from .solvers import (fd_gradient, project_polyhedron, projected_descent,
                      simplex_weight_grid, solve_lp, unit_rows)
from .solvers import dykstra_project  # noqa: F401  unused; perfbench/spans.py wraps it here
from .spectral_sets import (COST_LIMIT, Combiner, FiniteSet, GridOracle, OrbitOf,
                            OrderedPolyhedron, SpectralFunctionSpec,
                            SpectralSetSpec, SUM, ZERO_FN, image_candidates,
                            membership_w, probe_monotone)


@dataclass(frozen=True)
class LinearObjective:
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(as_vec(self.c), dtype=float))

    def value_v(self, inst: FtvnInstance, x: np.ndarray) -> float:
        return inst.inner_v(self.c, x)


@dataclass(frozen=True)
class DistanceObjective:
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(as_vec(self.c), dtype=float))

    def value_v(self, inst: FtvnInstance, x: np.ndarray) -> float:
        return inst.norm_v(self.c - x)


@dataclass(frozen=True)
class MaxAffineObjective:
    """h(x) = max_i <c_i, x> + alpha_i (finitely many affine pieces)."""

    pieces: tuple  # of (c ndarray, alpha float)

    def __post_init__(self):
        ps = tuple((np.asarray(as_vec(c), dtype=float), float(a)) for c, a in self.pieces)
        if not ps:
            raise ValueError("a max_affine objective needs at least one piece")
        object.__setattr__(self, "pieces", ps)

    def value_v(self, inst: FtvnInstance, x: np.ndarray) -> float:
        return max(inst.inner_v(c, x) + a for c, a in self.pieces)


Objective = Union[LinearObjective, DistanceObjective, MaxAffineObjective]


@dataclass(frozen=True)
class SolveReport:
    sense: str
    optimal_value: float
    optimizer_w: Optional[np.ndarray]
    optimizer_v: Optional[np.ndarray]
    commutation: Optional[CommutationCert]
    commutes_with: Optional[str]      # "c", "-c", or "active piece"
    attained: bool
    infeasible: bool
    reduction_gap: float
    solver_trace: dict


class _Piece(NamedTuple):
    """One affine piece t(q) = <w, q> + alpha on the W side, and its lift:
    the direction d, lam(d) and d's frame, decomposed once per solve."""

    w: np.ndarray
    alpha: float
    d: np.ndarray
    lam_d: np.ndarray
    frame: Any


class _WSide:
    """One solve on the W side: the problem, the scalar t(q), its lift rule,
    the commutation direction and the report.  ``sign`` is 1 at sense max and
    -1 at sense min.

    A linear sup over E is the sup of <lam(c), q> over lam(E), and a
    max-affine sup is the largest of such linear sups, one per piece; so
    both are lists of pieces, and a linear or distance objective is one
    piece with alpha = 0.  A max-affine inf has no pieces: its t and its
    lift are the orbit minimum.
    """

    def __init__(self, inst: FtvnInstance, objective: Objective, spec: SpectralSetSpec,
                 phi: SpectralFunctionSpec, combiner: Combiner, sense: str, tol: float,
                 seed: int):
        self.inst, self.objective, self.spec = inst, objective, spec
        self.phi, self.combiner, self.sense = phi, combiner, sense
        self.sign = 1.0 if sense == "max" else -1.0
        self.tol, self.seed = tol, seed
        self.pieces: list[_Piece] = []
        self.t_grad = None
        self.commutes_with = None
        if isinstance(objective, MaxAffineObjective) and sense == "min":
            h = partial(objective.value_v, inst)
            self._orbit_min = lambda q: orbit_min(inst, h, q, seed=seed)
            self.t = lambda q: self._orbit_min(q)[0]
            return
        # (d, alpha, w = lam(d) rather than -lam(d)) per piece.  A linear sup
        # and a distance inf commute with c; the other two with -c, whose
        # W-side vector is lam~(c) = -lam(-c)
        if isinstance(objective, MaxAffineObjective):
            lifts = [(c, a, True) for c, a in objective.pieces]
            self.commutes_with = "active piece"
        else:
            toward_c = (self.sign > 0) == isinstance(objective, LinearObjective)
            lifts = [(objective.c if toward_c else -objective.c, 0.0, toward_c)]
            self.commutes_with = "c" if toward_c else "-c"
        for d, alpha, toward in lifts:
            lam_d, frame = inst.spectral(d)
            self.pieces.append(_Piece(lam_d if toward else -lam_d, alpha, d, lam_d, frame))
        # inner_w is the dot product, so t's gradient is w or (q - w) / ||q - w||
        w = self.pieces[0].w
        if isinstance(objective, LinearObjective):
            self.t = lambda q: inst.inner_w(w, q)
            self.t_grad = lambda q: w
        elif isinstance(objective, DistanceObjective):
            self.t = lambda q: inst.norm_w(w - q)
            self.t_grad = self._distance_grad
        else:
            self.t = lambda q: max(self._piece_values(q))

    def _distance_grad(self, q: np.ndarray) -> np.ndarray:
        # at q = w, 0 is a subgradient of the norm
        r = q - self.pieces[0].w
        norm = float(np.linalg.norm(r))
        return r / norm if norm > 0.0 else np.zeros_like(r)

    def _piece_values(self, q: np.ndarray) -> list[float]:
        return [self.inst.inner_w(p.w, q) + p.alpha for p in self.pieces]

    def lift(self, q: np.ndarray) -> tuple[Optional[np.ndarray], Optional[CommutationCert]]:
        """The witness x over q, rebuilt on the kept frame of the active
        piece's direction d, and its certificate: x and x + d are decomposed
        there, lam(d) is reused.  Without pieces (a max-affine inf) the orbit
        argmin is itself the lifted point, and has no certificate."""
        inst = self.inst
        if not self.pieces:
            return self._orbit_min(q)[1], None
        p = self.pieces[int(np.argmax(self._piece_values(q)))]
        x = inst.witness_on(p.d, q, p.frame)
        return x, commute_check(inst, x, p.d, self.tol, lam_y=p.lam_d)

    def probe(self, q: np.ndarray) -> None:
        # the combiner's monotonicity contract, checked on the t-range near q
        t0, s0 = self.t(q), self.phi(q)
        span = 1.0 + abs(t0)
        probe_monotone(self.combiner, t0 - 0.5 * span, t0 + 0.5 * span,
                       [s0] if math.isfinite(s0) else [0.0])

    def report(self, trace: dict, value: float, q: Optional[np.ndarray] = None,
               attained: bool = False, infeasible: bool = False) -> SolveReport:
        # value at q, lifted and certified; without q there is no optimizer
        optimizer_v = cert = None
        gap = math.nan
        if q is not None:
            try:
                optimizer_v, cert = self.lift(q)
            except WitnessError:
                if self.inst.witness_is_exact:
                    raise
        if optimizer_v is not None:
            t_v = self.objective.value_v(self.inst, optimizer_v)
            s_v = self.phi(self.inst.lam(optimizer_v) if cert is None else cert.lam_x)
            if math.isfinite(t_v) and math.isfinite(s_v) and math.isfinite(value):
                gap = abs(self.combiner.fn(t_v, s_v) - value)
        return SolveReport(sense=self.sense, optimal_value=float(value),
                           optimizer_w=None if q is None else np.asarray(q, dtype=float),
                           optimizer_v=optimizer_v, commutation=cert,
                           commutes_with=self.commutes_with if cert is not None else None,
                           attained=attained, infeasible=infeasible,
                           reduction_gap=gap, solver_trace=trace)


# orbit_min's heuristic search: Nelder-Mead starts, and iterations per start
ORBIT_MIN_STARTS = 8
ORBIT_MIN_BUDGET = 400


def orbit_min(inst: FtvnInstance, h: Callable[[np.ndarray], float], q,
              seed: int = 0) -> tuple[float, np.ndarray, bool]:
    """min h over the orbit {x : lam(x) = q}.

    Exact by permutation enumeration on the rn algebra (dimension <= 8);
    elsewhere a penalized multistart descent from orbit samples, whose result
    is flagged heuristic.  Returns (value, argmin, exact_flag).
    """
    q = np.asarray(q, dtype=float)
    backend = inst.backend
    if isinstance(backend, JordanAlgebra) and backend.kind == "rn" and inst.dim_v <= 8:
        best_v = math.inf
        best_x = None
        for perm in set(itertools.permutations(q.tolist())):
            x = np.array(perm)
            v = h(x)
            if v < best_v:
                best_v = v
                best_x = x
        return best_v, best_x, True
    from scipy.optimize import minimize  # deferred: see solvers._scipy_extension

    rng = np.random.default_rng(seed)
    if inst.rebuild is not None:
        starts = list(inst.sample_orbit(q, rng, ORBIT_MIN_STARTS))
    else:
        starts = [rng.standard_normal(inst.dim_v) for _ in range(ORBIT_MIN_STARTS)]
    scale = 1.0 + float(np.linalg.norm(q))
    proj = inst.project_element

    def objective(x):
        x = proj(x)
        feas = np.linalg.norm(inst.lam(x) - q)
        return h(x) + 1e6 * scale * feas ** 2

    best_v = math.inf
    best_x = None
    for s in starts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": ORBIT_MIN_BUDGET})
        if res.fun < best_v:
            best_v = float(res.fun)
            best_x = proj(np.asarray(res.x, dtype=float))
    return h(best_x), best_x, False


def reduce_solve(inst: FtvnInstance, objective: Objective, set_spec: SpectralSetSpec,
                 phi: SpectralFunctionSpec = ZERO_FN, combiner: Combiner = SUM,
                 sense: str = "max", tol: float = DEFAULT_TOL,
                 seed: int = 0) -> SolveReport:
    """Solve sup/inf of L(f, phi o lam) over E = lam^-1(Q), certify by commutation.

    ValueError when sense is neither "max" nor "min", or when c (every
    piece's c, for a max-affine objective) is off the instance's element
    space: the value would be that of c's projection, and the certificate
    would find no shared frame.  ValueError too when an LP's cost has an
    entry of COST_LIMIT or more in size, which the LP solver reads as
    infinite.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    directions = ([c for c, _ in objective.pieces] if isinstance(objective, MaxAffineObjective)
                  else [objective.c])
    for c in directions:
        check_element_space(inst, c)
    ws = _WSide(inst, objective, set_spec, phi, combiner, sense, tol, seed)
    for label, applies, solve in _ROUTES:
        if applies(ws):
            return solve(ws, label)
    raise TypeError(f"unsupported spectral set spec {type(set_spec).__name__}")


def _scan(ws: _WSide, label: str) -> SolveReport:
    # every candidate of an enumerable image; a grid scan is a heuristic
    cands = image_candidates(ws.spec, ws.inst, tol=max(ws.tol, 1e-9))
    trace = {"method": label, "candidates": int(cands.shape[0])}
    if cands.shape[0] == 0:
        return ws.report(trace, -ws.sign * math.inf, infeasible=True)
    t_vals = [ws.t(qq) for qq in cands]
    s_vals = [ws.phi(qq) for qq in cands]
    f_vals = [ws.combiner.fn(t, s) if math.isfinite(t) and math.isfinite(s)
              else -ws.sign * math.inf for t, s in zip(t_vals, s_vals)]
    probe_monotone(ws.combiner, min(t_vals), max(t_vals),
                   sorted(set(round(s, 12) for s in s_vals if math.isfinite(s)))[:5])
    i = int(np.argmax(ws.sign * np.array(f_vals)))
    return ws.report(trace, f_vals[i], cands[i], not isinstance(ws.spec, GridOracle))


def _lp(ws: _WSide, label: str) -> SolveReport:
    # one LP per piece, the best kept; infeasibility belongs to the set, so
    # the first LP settles it
    a_ub, b_ub = ws.spec.rows()
    coeffs, const = ws.phi.affine_parts(ws.spec.dim)
    costs = [p.w + coeffs for p in ws.pieces]
    if not all(np.all(np.abs(cost) < COST_LIMIT) for cost in costs):
        raise ValueError(f"the LP cost lam(c) is past the LP solver's limit: each "
                         f"entry must be below {COST_LIMIT:g} in size")
    trace = {"method": label, "iterations": 0}
    best = None
    for p, cost in zip(ws.pieces, costs):
        lp = solve_lp(cost, a_ub, b_ub, maximize=ws.sign > 0)
        trace["iterations"] += lp.iterations
        if lp.status == "infeasible":
            return ws.report(trace, -ws.sign * math.inf, infeasible=True)
        if lp.status == "unbounded":
            return ws.report(trace, ws.sign * math.inf)
        cand = lp.value + p.alpha + const
        if best is None or ws.sign * cand > ws.sign * best[0]:
            best = (cand, lp.x)
    ws.probe(best[1])
    return ws.report(trace, best[0], best[1], attained=True)


def _project(ws: _WSide, target: np.ndarray, a_ub, b_ub):
    """The projection q0 of target onto {q : a_ub q <= b_ub}, whether it is
    certified, and the trace of a phase-1 LP that finds the set empty, or None.

    Only an uncertified projection leaves emptiness to the LP: min s over
    a q - s <= b, s >= 0, with the rows scaled to unit normals, is feasible
    and bounded for every input, so its optimum s*, the least uniform
    violation, always exists.  The set is empty when s* > tol (1 + max|b|).
    If HiGHS decides the LP by neither method, the violation at q0 bounds s*
    from above, and the trace says the verdict is undecided.
    """
    q0, certified = project_polyhedron(target, a_ub, b_ub)
    if certified:
        return q0, True, None
    a, b = unit_rows(a_ub, b_ub)
    m, n = a.shape
    a1 = np.block([[a, -np.ones((m, 1))], [np.zeros((1, n)), -np.ones((1, 1))]])
    lp = solve_lp(np.append(np.zeros(n), 1.0), a1, np.append(b, 0.0), bounded=True)
    trace = {"method": "lp_phase1", "iterations": lp.iterations}
    if lp.status == "optimal":
        s_star = lp.value
    else:
        trace["decided"] = False
        s_star = math.inf if q0 is None else float(np.max(a @ q0 - b, initial=0.0))
    if s_star > ws.tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        return q0, False, trace
    if q0 is None:
        raise FtvnError("no projection onto a nonempty polyhedron")
    return q0, False, None


def _nearest(ws: _WSide, label: str) -> SolveReport:
    # the distance to c is least at the projection of w = lam(c): exact once certified
    q0, certified, empty = _project(ws, ws.pieces[0].w, *ws.spec.rows())
    if empty:
        return ws.report(empty, -ws.sign * math.inf, infeasible=True)
    ws.probe(q0)
    return ws.report({"method": label}, ws.t(q0), q0, certified)


def _descend(ws: _WSide, label: str) -> SolveReport:
    """Projected multistart descent from the projection of 0, a heuristic, so
    never attained.  Minimizing t + phi with t linear or a distance and phi
    convex is a convex problem over the convex set lam(E): every local
    minimum is global, so the first start that converges to a finite value
    settles it."""
    a_ub, b_ub = ws.spec.rows()
    n = ws.spec.dim
    q0, _, empty = _project(ws, np.zeros(n), a_ub, b_ub)
    if empty:
        return ws.report(empty, -ws.sign * math.inf, infeasible=True)
    convex = (ws.combiner.kind == "sum" and ws.phi.convex and ws.sign < 0
              and isinstance(ws.objective, (LinearObjective, DistanceObjective)))
    rng = np.random.default_rng(ws.seed)
    spread = 1.0 + float(np.linalg.norm(q0))
    starts = [q0] + [q0 + spread * rng.standard_normal(n) for _ in range(31)]

    def F_down(q):
        # phi = +inf at sense max is a supremum of +inf, the best value there
        v = ws.combiner.fn(ws.t(q), ws.phi(q))
        return math.inf if math.isnan(v) else -ws.sign * v

    grad = hess = None
    if ws.combiner.kind == "sum" and ws.t_grad is not None and ws.phi.grad is not None:
        def grad(q):
            return -ws.sign * (ws.t_grad(q) + ws.phi.grad(q))
        # a linear t adds nothing to phi's Hessian
        if convex and isinstance(ws.objective, LinearObjective):
            hess = ws.phi.hess_diag

    def project(q, h=None):
        if h is None:
            return project_polyhedron(q, a_ub, b_ub)[0]
        # the projection in the metric diag(h) is the Euclidean one of
        # sqrt(h) q onto the rows a / sqrt(h); only a certified one is used
        r = np.sqrt(h)
        y, certified = project_polyhedron(r * q, a_ub / r, b_ub)
        return y / r if certified else None

    pending = iter(starts)
    result = projected_descent(F_down, project, pending, first_finite=convex,
                               grad=grad, hess_diag=hess)
    q_star, v_down, iters = result
    trace = {"method": label, "iterations": iters,
             "starts": len(starts) - sum(1 for _ in pending), "convex": convex,
             "step": "newton" if hess else "gradient" if grad else "fd",
             "converged": result.converged}
    value = -ws.sign * v_down
    if not math.isfinite(value):
        # unbounded, or no start ended finite: no optimizer, as for an unbounded LP
        return ws.report(trace, value)
    ws.probe(q_star)
    return ws.report(trace, value, q_star)


def _summed(ws: _WSide) -> bool:
    return isinstance(ws.spec, OrderedPolyhedron) and ws.combiner.kind == "sum"


# (label, applies, solve): a solve takes the first route that applies, and
# its label is the report's solver_trace method
_ROUTES = (
    ("exhaustive", lambda ws: isinstance(ws.spec, FiniteSet), _scan),
    ("orbit_closed_form", lambda ws: isinstance(ws.spec, OrbitOf), _scan),
    ("grid_scan", lambda ws: isinstance(ws.spec, GridOracle), _scan),
    ("lp_per_piece", lambda ws: (_summed(ws) and ws.phi.affine is not None and ws.sign > 0
                                 and isinstance(ws.objective, MaxAffineObjective)), _lp),
    ("lp_simplex", lambda ws: (_summed(ws) and ws.phi.affine is not None
                               and isinstance(ws.objective, LinearObjective)), _lp),
    ("dykstra_projection", lambda ws: (_summed(ws) and ws.phi.kind == "zero" and ws.sign < 0
                                       and isinstance(ws.objective, DistanceObjective)),
     _nearest),
    ("projected_descent", lambda ws: isinstance(ws.spec, OrderedPolyhedron), _descend),
)


# ---------------------------------------------------------------------------
# named entry points

def orbit_linear(inst: FtvnInstance, c, u, sense: str = "max",
                 tol: float = DEFAULT_TOL) -> SolveReport:
    """max/min of <c, x> over the orbit of u: the trace-inequality value, with
    the witness built on c's own decomposition."""
    cv = inst.check_element(c)
    uv = inst.check_element(u)
    return reduce_solve(inst, LinearObjective(cv), OrbitOf(uv), sense=sense, tol=tol)


def orbit_distance(inst: FtvnInstance, c, u, sense: str = "min",
                   tol: float = DEFAULT_TOL) -> SolveReport:
    cv = inst.check_element(c)
    uv = inst.check_element(u)
    return reduce_solve(inst, DistanceObjective(cv), OrbitOf(uv), sense=sense, tol=tol)


def reduce_solve_linear(inst, c, set_spec, phi=ZERO_FN, combiner=SUM,
                        sense="max", tol=DEFAULT_TOL, seed=0) -> SolveReport:
    return reduce_solve(inst, LinearObjective(as_vec(c)), set_spec, phi, combiner,
                        sense, tol, seed)


def reduce_solve_distance(inst, c, set_spec, phi=ZERO_FN, combiner=SUM,
                          sense="min", tol=DEFAULT_TOL, seed=0) -> SolveReport:
    return reduce_solve(inst, DistanceObjective(as_vec(c)), set_spec, phi, combiner,
                        sense, tol, seed)


# ---------------------------------------------------------------------------
# convex envelopes

def envelope_upper(inst: FtvnInstance, pieces, q) -> float:
    """h*(q) = max over the orbit of q of the max-affine h; exact by the
    trace inequality, independent of the representation of h."""
    q = as_vec(q)
    return max(inst.inner_w(inst.lam(as_vec(c)), q) + float(a) for c, a in pieces)


def envelope_lower_affine(inst: FtvnInstance, pieces, q) -> float:
    """h_*(q): the same supremum with each lam(c_i) replaced by its increasing
    counterpart.  Only a lower bound on the orbit minimum; can be strict."""
    q = as_vec(q)
    return max(inst.inner_w(lambda_tilde(inst, as_vec(c)), q) + float(a) for c, a in pieces)


def envelope_lower_exact(inst: FtvnInstance, h: Callable[[np.ndarray], float], q,
                         seed: int = 0) -> tuple[float, bool]:
    """h**(q) = min of h over the orbit of q; (value, exact flag)."""
    value, _, exact = orbit_min(inst, h, as_vec(q), seed=seed)
    return value, exact


# ---------------------------------------------------------------------------
# commutation principles

@dataclass(frozen=True)
class VIReport:
    membership_ok: bool
    vi_residual: float                 # min <G(a), x - a> over x in E, by the reduction
    worst_point: Optional[np.ndarray]  # the lifted minimizer
    cert: CommutationCert
    exact: bool                        # the minimum is attained at worst_point
    consistent: bool                   # residual >= -tol on exact set => verdict


def vi_commutation_check(inst: FtvnInstance, G: Callable[[np.ndarray], np.ndarray],
                         set_spec: SpectralSetSpec, a, tol: float = DEFAULT_TOL,
                         seed: int = 0) -> VIReport:
    """Is a a variational-inequality point of G over E, and does a commute
    with -G(a)?

    The residual min over x in E of <G(a), x - a> is a linear minimization
    over E, so it is one reduction solve.  It is exact when that solve is
    attained and its lift reaches the W-side value to within tol; a grid set,
    or a witness search that falls short, leaves it inexact.  On an exact
    residual the two answers must agree.
    """
    av = inst.check_element(a)
    la = inst.lam(av)
    member = membership_w(set_spec, inst, la, tol)
    if not member:
        raise ValueError("a does not belong to the spectral set (lam(a) not in Q)")
    # the representer of G(a) on the element space
    g = inst.project_element(np.asarray(G(av), dtype=float))
    rep = reduce_solve_linear(inst, g, set_spec, sense="min", tol=tol, seed=seed)
    residual = rep.optimal_value - inst.inner_v(g, av)
    exact = rep.attained and rep.reduction_gap <= tol * (1.0 + abs(rep.optimal_value))
    cert = commute_check(inst, av, -g, tol)
    scale = 1.0 + inst.norm_v(g) * (1.0 + inst.norm_v(av))
    consistent = (not exact) or residual < -tol * scale or cert.verdict
    return VIReport(membership_ok=True, vi_residual=float(residual),
                    worst_point=rep.optimizer_v, cert=cert, exact=exact,
                    consistent=consistent)


@dataclass(frozen=True)
class LocalMinReport:
    gradient: np.ndarray
    cert: CommutationCert            # a against -h'(a)
    probe_min_delta: float           # min h((1-t)a + tx) - h(a) over probes
    n_probes: int


# the central-difference step relative to 1 + ||a||, and the orbit points probed
LOCAL_MIN_FD_STEP = 1e-6
LOCAL_MIN_PROBES = 16


def local_min_commutation_check(inst: FtvnInstance, h: Callable[[np.ndarray], float],
                                set_spec: SpectralSetSpec, a, seed: int = 0,
                                tol: float = DEFAULT_TOL) -> LocalMinReport:
    """Check the differentiable commutation principle at a candidate local
    minimizer: a must commute with minus its gradient.  Local minimality is
    probed along segments toward orbit points (evidence only)."""
    av = inst.check_element(a)
    grad = inst.riesz(fd_gradient(h, av, LOCAL_MIN_FD_STEP * (1.0 + inst.norm_v(av))))
    cert = commute_check(inst, av, -grad, tol)
    probe_min = math.inf
    count = 0
    if inst.rebuild is not None:
        rng = np.random.default_rng(seed)
        pts = inst.sample_orbit(inst.lam(av), rng, LOCAL_MIN_PROBES)
        base = h(av)
        for x in pts:
            for t in (1e-3, 1e-2, 5e-2):
                probe_min = min(probe_min, h((1.0 - t) * av + t * x) - base)
                count += 1
    return LocalMinReport(gradient=grad, cert=cert,
                          probe_min_delta=probe_min if count else math.nan,
                          n_probes=count)


@dataclass(frozen=True)
class SubdiffReport:
    active_indices: tuple
    c_found: Optional[np.ndarray]
    cert: Optional[CommutationCert]
    n_tested: int


def subdiff_min_commutation_check(inst: FtvnInstance, pieces, set_spec, a,
                                  tol: float = DEFAULT_TOL,
                                  resolution: int = 32) -> SubdiffReport:
    """At a minimizer of a max-affine h over a convex spectral set, some
    subgradient c must have a commuting with -c.  Searches the simplex of
    active-piece combinations on a 1/resolution grid."""
    av = inst.check_element(a)
    ps = [(np.asarray(as_vec(c), dtype=float), float(alpha)) for c, alpha in pieces]
    vals = [inst.inner_v(c, av) + alpha for c, alpha in ps]
    h_a = max(vals)
    scale = 1.0 + abs(h_a)
    active = [i for i, v in enumerate(vals) if v >= h_a - tol * scale]
    if len(active) > 5:
        raise ValueError("too many active pieces for the grid search")
    tested = 0
    for w in simplex_weight_grid(len(active), resolution):
        c = np.sum([wi * ps[i][0] for wi, i in zip(w, active)], axis=0)
        cert = commute_check(inst, av, -c, tol)
        tested += 1
        if cert.verdict:
            return SubdiffReport(active_indices=tuple(active), c_found=c,
                                 cert=cert, n_tested=tested)
    return SubdiffReport(active_indices=tuple(active), c_found=None,
                         cert=None, n_tested=tested)


# ---------------------------------------------------------------------------
# Hausdorff distance and interval image

def hausdorff_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    pa = np.atleast_2d(points_a)
    pb = np.atleast_2d(points_b)
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def hausdorff_spectral(inst: FtvnInstance, spec_e: FiniteSet, spec_f: FiniteSet,
                       tol: float = 1e-9) -> float:
    """Hausdorff distance between two finite spectral sets, computed entirely
    on the W side; equals the V-side distance for FTvN systems."""
    pe = image_candidates(spec_e, inst, tol)
    pf = image_candidates(spec_f, inst, tol)
    if pe.shape[0] == 0 or pf.shape[0] == 0:
        raise ValueError("empty spectral set has no Hausdorff distance")
    return hausdorff_distance(pe, pf)


@dataclass(frozen=True)
class IntervalImage:
    lo: float
    hi: float
    report_lo: SolveReport
    report_hi: SolveReport


def interval_image(inst: FtvnInstance, c, q_spec: SpectralSetSpec,
                   tol: float = DEFAULT_TOL, seed: int = 0) -> IntervalImage:
    """The set {<c, x> : x in lam^-1(Q)} for compact permutation-invariant Q
    over a simple algebra: a closed interval with commuting endpoint witnesses."""
    if not (isinstance(inst.backend, JordanAlgebra) and inst.backend.simple):
        raise ValueError("interval image requires a simple algebra instance")
    cv = inst.check_element(c)
    lo = reduce_solve(inst, LinearObjective(cv), q_spec, sense="min", tol=tol, seed=seed)
    hi = reduce_solve(inst, LinearObjective(cv), q_spec, sense="max", tol=tol, seed=seed)
    return IntervalImage(lo=lo.optimal_value, hi=hi.optimal_value,
                         report_lo=lo, report_hi=hi)
