"""Small dense solvers used by the reduction engine.

All of these operate on the W-side (low-dimensional sorted-eigenvalue
coordinates), so robustness matters more than scale: the LP is one HiGHS
dual-simplex run, driven through the HiGHS binding that scipy vendors (two
more when HiGHS cannot decide), and the Euclidean projection onto a
polyhedron is one NNLS solve of its least-distance program, whose KKT
conditions are checked before the point is called exact.
Pool-adjacent-violators and Dykstra alternation are kept as the reference
projector the tests compare against.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .core import FtvnError
from .spectral_sets import OFFSET_LIMIT

DYKSTRA_MAX_SWEEPS = 10_000
DYKSTRA_TOL = 1e-10
# projected descent: iterations per start, and the finite-difference step
# relative to 1 + ||q||
DESCENT_MAX_ITER = 200
DESCENT_FD_STEP = 1e-6
# projected Newton: Armijo's share of the model decrease a step must achieve,
# and the model decrease, relative to 1 + |f|, below which f cannot tell a
# step from rounding
ARMIJO_SHARE = 1e-4
NEWTON_TOL = 1e-14


def pav_decreasing(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the nonincreasing cone (isotonic regression).

    Pool-adjacent-violators: merge neighboring blocks whose means violate the
    ordering, then broadcast block means back.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    means = []   # block means
    counts = []  # block sizes
    for v in y:
        means.append(v)
        counts.append(1)
        # decreasing constraint: each block mean must be <= the previous one
        while len(means) > 1 and means[-2] < means[-1]:
            total = means[-2] * counts[-2] + means[-1] * counts[-1]
            cnt = counts[-2] + counts[-1]
            means[-2:] = [total / cnt]
            counts[-2:] = [cnt]
    out = np.empty(n)
    pos = 0
    for m, c in zip(means, counts):
        out[pos:pos + c] = m
        pos += c
    return out


def project_halfspace(q: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Projection onto {q : <normal, q> <= offset}."""
    viol = float(np.dot(normal, q)) - offset
    if viol <= 0.0:
        return q.copy()
    return q - (viol / float(np.dot(normal, normal))) * normal


def dykstra_project(q0: np.ndarray, projectors: list[Callable[[np.ndarray], np.ndarray]],
                    max_sweeps: int = DYKSTRA_MAX_SWEEPS,
                    tol: float = DYKSTRA_TOL) -> tuple[np.ndarray, int]:
    """Dykstra's alternating projection onto an intersection of convex sets.

    The reference projector that the tests compare ``project_polyhedron``
    against; the engine does not call it.  Returns (point, sweeps used).
    Convergence: total displacement of one full sweep below tol, which can
    take up to max_sweeps (and is then inexact) where the sets meet at a
    narrow angle.
    """
    x = np.asarray(q0, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in projectors]
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        delta = 0.0
        for i, proj in enumerate(projectors):
            prev = x
            x = proj(prev + corrections[i])
            corrections[i] = prev + corrections[i] - x
            delta += float(np.linalg.norm(x - prev))
        if delta <= tol:
            break
    return x, sweeps


def ordered_polyhedron_projectors(halfspaces, n: int):
    """Projector list for {halfspaces} intersected with the nonincreasing cone."""
    projs: list[Callable[[np.ndarray], np.ndarray]] = [pav_decreasing]
    for normal, offset in halfspaces:
        a = np.asarray(normal, dtype=float)
        b = float(offset)
        projs.append(lambda q, a=a, b=b: project_halfspace(q, a, b))
    return projs


# ---------------------------------------------------------------------------
# scipy's compiled kernels, loaded without scipy.optimize

# the kernels below are private to scipy; these are the versions whose
# results the tests compare with linprog's and nnls's (pyproject.toml pins
# the same)
_SCIPY_TESTED = ">=1.17.1,<1.18"


def _scipy_extension(name: str, need: str):
    """scipy's compiled module ``name``, loaded from its file on first use.

    Only the extension is loaded, not the packages above it: importing
    scipy.optimize loads over 300 modules and takes most of the start-up
    time and memory of a process that solves one problem, while the LP and
    the projection each call one compiled kernel.  The module is registered
    in sys.modules under its own name, so a later ``import scipy.optimize``
    (the derivative-free searches of ``reduce.orbit_min`` and
    ``hyperbolic``) uses the same module object.  A None in sys.modules for
    the module or a package above it stops the load, as it stops an import.
    Any failure to load raises :class:`FtvnError` with ``need`` and the
    tested scipy versions.
    """
    try:
        prefix = name
        while prefix:
            if prefix in sys.modules and sys.modules[prefix] is None:
                raise ImportError(f"import of {prefix} halted; None in sys.modules")
            prefix = prefix.rpartition(".")[0]
        module = sys.modules.get(name)
        if module is not None:
            return module
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("No module named 'scipy'")
        stem = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:])
        path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.isfile(stem + suffix)), None)
        if path is None:
            raise ImportError(f"no compiled module {name} under {os.path.dirname(stem)}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
        return module
    except ImportError as exc:
        raise FtvnError(f"{need} (scipy {_SCIPY_TESTED}): {exc}") from None


# ---------------------------------------------------------------------------
# exact projection: the least-distance program as one NNLS problem

# A projection is certified when its KKT conditions hold to this share of
# each row's scale.
PROJECTION_KKT_TOL = 1e-9


def unit_rows(a_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a_ub @ q <= b_ub scaled to unit normals; zero rows stay."""
    norms = np.linalg.norm(a_ub, axis=1)
    norms[norms == 0.0] = 1.0
    return a_ub / norms[:, None], b_ub / norms


def project_polyhedron(w: np.ndarray, a_ub: np.ndarray,
                       b_ub: np.ndarray) -> tuple[Optional[np.ndarray], bool]:
    """Euclidean projection of w onto {q : a_ub @ q <= b_ub}.

    The least-distance program min ||q - w|| over the polyhedron is one NNLS
    problem with finite termination (Lawson and Hanson 1974, ch. 23).  With
    the rows (a, b) scaled to unit normals and h = a @ w - b scaled by
    s = max|h|, the solution u >= 0 of min ||[-a^T; h^T / s] u - e_{n+1}||
    gives d = 1 - h.u / s = 1 / (1 + ||q - w||^2 / s^2), the multipliers
    mu = s u / d and the point q = w - a^T mu.  d vanishes only on an empty
    set, and no threshold on it can tell a far-away nonempty set from an
    empty one, so the point is judged by its KKT conditions instead: primal
    feasibility, nonnegative multipliers, complementarity and stationarity,
    each to PROJECTION_KKT_TOL of the row's scale.

    Returns (q, certified).  A point already in the set is returned itself,
    certified, with zero multipliers.  q is None when the NNLS gives no
    finite point; an uncertified q may lie outside the set, which is then
    possibly empty.
    """
    w = np.asarray(w, dtype=float)
    if np.all(a_ub @ w <= b_ub):
        return w, True
    nnls = _scipy_extension("scipy.optimize._slsqplib",
                            "projection needs scipy's NNLS kernel").nnls
    # unit normals make each h_i a distance: a row written with a tiny normal
    # would otherwise make ||q - w|| / s so large that d rounds to 0
    a, b = unit_rows(a_ub, b_ub)
    h = a @ w - b
    s = float(np.max(np.abs(h)))
    target = np.zeros(w.size + 1)
    target[-1] = 1.0
    # the checks of scipy.optimize.nnls: a NaN or infinity raises ValueError
    # here, never reaching the kernel, and the iteration cap is 3 per row
    m = np.asarray_chkfinite(np.vstack([-a.T, h / s]), dtype=np.float64, order="C")
    u, _, info = nnls(m, target, 3 * m.shape[1])
    if info == 3:  # the iteration cap
        return None, False
    d = 1.0 - float(h @ u) / s
    if not d > 0.0:
        return None, False
    mu = (s / d) * u
    q = w - a.T @ mu
    if not np.all(np.isfinite(q)):
        return None, False
    return q, _kkt_holds(w, q, mu, a, b)


def _kkt_holds(w, q, mu, a, b) -> bool:
    # rows with unit (or zero) normals: the terms of a @ q - b are of the
    # size of 1 + ||q|| and |b|, and those of a^T mu of the size of sum(mu)
    scale = 1.0 + float(np.linalg.norm(q)) + np.abs(b)
    slack = b - a @ q
    active = mu > 0.0
    return bool(np.all(slack >= -PROJECTION_KKT_TOL * scale)
                and np.all(mu >= 0.0)
                and np.all(np.abs(slack[active]) <= PROJECTION_KKT_TOL * scale[active])
                and np.linalg.norm(w - q - a.T @ mu)
                <= PROJECTION_KKT_TOL * (float(np.linalg.norm(w - q)) + float(mu.sum())))


# ---------------------------------------------------------------------------
# LP: HiGHS dual simplex

@dataclass(frozen=True)
class LpResult:
    status: str                 # "optimal" | "unbounded" | "infeasible" | "unknown"
    x: Optional[np.ndarray]
    value: float
    iterations: int


_LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
# presolve off: on some unbounded LPs over a nonempty ordered polyhedron
# HiGHS's presolve reports "infeasible" (one such case is in the tests).
# simplex_strategy 1 is the dual simplex; ipm ignores it
_HIGHS_OPTIONS = {"output_flag": False, "presolve": "off", "simplex_strategy": 1}


class _HighsResult(NamedTuple):
    """The part of a HiGHS solve that :func:`solve_lp` reads; ``status`` is
    scipy's code: 0 optimal, 2 infeasible, 3 unbounded, 4 anything else."""

    status: int
    x: Optional[np.ndarray]     # None unless optimal
    fun: Optional[float]        # None unless optimal
    nit: int
    message: str                # HiGHS's model status


def _highs(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, bounds=(None, None),
           method: str = "highs-ds") -> _HighsResult:
    """min c.q subject to a_ub @ q <= b_ub and bounds[0] <= q <= bounds[1]
    (None: no bound), one fresh HiGHS object per call.

    HiGHS runs through the binding scipy vendors, the one scipy's
    ``linprog`` calls, with the options ``linprog(method=method,
    options={"presolve": False})`` passes, so status, point, value and
    iteration count are the same, except on a model HiGHS refuses to load;
    the per-call option and input checks of ``linprog`` are left out.

    The binding, the compiled module ``scipy.optimize._highspy._core``, is
    loaded from its file on the first call by :func:`_scipy_extension`,
    without importing scipy.optimize.
    """
    highspy = _scipy_extension("scipy.optimize._highspy._core",
                               "LP solve needs scipy's HiGHS binding")
    m, n = a_ub.shape
    lo, hi = bounds
    inf = highspy.kHighsInf
    lp = highspy.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = c
    lp.col_lower_ = np.full(n, -inf if lo is None else lo)
    lp.col_upper_ = np.full(n, inf if hi is None else hi)
    lp.row_lower_ = np.full(m, -inf)
    lp.row_upper_ = b_ub
    # the nonzeros of a_ub column by column (compressed sparse columns)
    cols, rows = np.nonzero(a_ub.T)
    matrix = lp.a_matrix_
    matrix.format_ = highspy.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1))
    matrix.index_ = rows
    matrix.value_ = a_ub.T[cols, rows]
    # set on the fresh object one by one: building a HighsOptions object to
    # pass costs about a sixth of a small LP.  An option HiGHS rejects is an
    # error, not a warning: without presolve="off" the answers can be wrong
    solver = highspy._Highs()
    options = dict(_HIGHS_OPTIONS, solver="ipm" if method == "highs-ipm" else "simplex")
    for name, value in options.items():
        if solver.setOptionValue(name, value) != highspy.HighsStatus.kOk:
            raise FtvnError(f"LP solve failed: HiGHS rejects option {name}={value!r}")
    if solver.passModel(lp) == highspy.HighsStatus.kError:
        # HiGHS refuses the model, say for an entry of a_ub at or above
        # 1e15; linprog calls that "infeasible", which the set need not be
        model_status = highspy.HighsModelStatus.kModelError
    else:
        solver.run()
        model_status = solver.getModelStatus()
    info = solver.getInfo()
    status = {highspy.HighsModelStatus.kOptimal: 0, highspy.HighsModelStatus.kInfeasible: 2,
              highspy.HighsModelStatus.kUnbounded: 3}.get(model_status, 4)
    x = fun = None
    if status == 0:
        x = np.array(solver.getSolution().col_value)
        fun = info.objective_function_value
    return _HighsResult(status, x, fun,
                        info.simplex_iteration_count or info.ipm_iteration_count,
                        solver.modelStatusToString(model_status))


# HiGHS drops matrix entries of 1e-9 or less in size, so a row whose largest
# entry is below this is scaled by a power of two before the LP (see
# :func:`scale_tiny_rows`).  Rows at or above it reach HiGHS as given
TINY_ROW = 2.0 ** -10


def scale_tiny_rows(a_ub: np.ndarray, b_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a_ub @ q <= b_ub with each nonzero row whose largest entry is below
    TINY_ROW in size multiplied, with its offset, by the power of two that
    brings that entry into [1, 2).  Scaling by a power of two is exact, so
    the set is the same; other rows and zero rows are returned unchanged."""
    top = np.abs(a_ub).max(axis=1, initial=0.0)
    tiny = (top > 0.0) & (top < TINY_ROW)
    if not tiny.any():
        return a_ub, b_ub
    # top = f 2^e with f in [0.5, 1), so top 2^(1 - e) lies in [1, 2)
    shift = np.where(tiny, 1 - np.frexp(top)[1], 0)
    return np.ldexp(a_ub, shift[:, None]), np.ldexp(b_ub, shift)


def solve_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
             maximize: bool = False, bounded: bool = False) -> LpResult:
    """min (or max) c.q subject to a_ub @ q <= b_ub, q free.

    One HiGHS dual-simplex call: the optimum it returns is a basic solution
    (a vertex whenever the feasible set has one) and the same input always
    gives the same point.  When HiGHS ends with an outcome other than
    optimal, infeasible or unbounded, two LPs that are bounded by
    construction decide unboundedness: a zero-objective feasibility LP and
    the recession LP over directions d with a_ub @ d <= 0 in the unit box.
    If the set is nonempty and some such d improves the objective, the LP is
    unbounded; otherwise :class:`FtvnError` carries HiGHS's first message.

    ``bounded`` says the LP is feasible and bounded by construction.  Any
    dual-simplex outcome but optimal is then retried with HiGHS's
    interior-point method, and if that is not optimal either the status is
    "unknown"; no error is raised.

    Rows with tiny normals are scaled first (:func:`scale_tiny_rows`), so
    that HiGHS keeps their entries.  ValueError when the scaling carries an
    offset to OFFSET_LIMIT or past: HiGHS would read it as infinite and drop
    the row, and the LP could come out unbounded over a bounded set.
    """
    c = np.asarray(c, dtype=float)
    sign = -1.0 if maximize else 1.0
    a_in = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_in = np.asarray(b_ub, dtype=float)
    a_ub, b_ub = scale_tiny_rows(a_in, b_in)
    if b_ub is not b_in:
        past = np.flatnonzero((np.abs(b_ub) >= OFFSET_LIMIT) & (b_ub != b_in))
        if past.size:
            i = past[0]
            raise ValueError(f"LP row {i} is past the LP solver's limits: scaled so that its "
                             f"largest normal entry ({np.abs(a_in[i]).max():g}) lies in "
                             f"[1, 2), its offset {b_in[i]:g} reaches {OFFSET_LIMIT:g} in size")
    res = _highs(sign * c, a_ub, b_ub, method="highs-ds")
    status = _LP_STATUS.get(res.status)
    nit = res.nit
    if bounded and status != "optimal":
        res = _highs(sign * c, a_ub, b_ub, method="highs-ipm")
        nit += res.nit
        status = _LP_STATUS.get(res.status)
        if status != "optimal":
            return LpResult("unknown", None, math.nan, nit)
    if status is None:
        # HiGHS (scipy 1.17.1) ends some unbounded LPs with model status
        # "Unknown"; two such cases are in the tests
        feas = _highs(np.zeros_like(c), a_ub, b_ub, method="highs-ds")
        ray = _highs(sign * c, a_ub, np.zeros_like(b_ub), bounds=(-1.0, 1.0),
                     method="highs-ds")
        nit += feas.nit + ray.nit
        # the margin stays above HiGHS's 1e-7 feasibility tolerance on a_ub @ d
        if not (feas.status == 0 and ray.status == 0
                and -ray.fun > 1e-6 * (1.0 + float(np.abs(c).sum()))):
            raise FtvnError(f"LP solve failed: {res.message}")
        status = "unbounded"
    if status == "infeasible":
        return LpResult(status, None, math.nan, nit)
    if status == "unbounded":
        return LpResult(status, None, -sign * math.inf, nit)
    return LpResult(status, res.x, sign * float(res.fun), nit)


# ---------------------------------------------------------------------------
# projected descent (heuristic path; projected Newton on a separable convex f)

def fd_gradient(f: Callable[[np.ndarray], float], q: np.ndarray,
                step: float) -> np.ndarray:
    g = np.empty_like(q)
    for i in range(q.size):
        e = np.zeros_like(q)
        e[i] = step
        g[i] = (f(q + e) - f(q - e)) / (2.0 * step)
    return g


class DescentResult(tuple):
    """``(best point, best value, total iterations)``, the tuple callers
    unpack, with ``converged``: whether the start that gave the point
    converged."""

    converged: bool

    def __new__(cls, q, value, iterations, converged):
        out = super().__new__(cls, (q, value, iterations))
        out.converged = converged
        return out


def _newton_step(f, q, v, g, p) -> tuple[np.ndarray, float, bool]:
    """From q toward p, its projected Newton point: (point, value, converged).

    p minimizes the quadratic model of f at q over the set, so the model
    decreases by at least -g.(p - q) >= 0 along the segment; Armijo's test
    backtracks on it.
    """
    d = p - q
    decrease = -float(g @ d)
    noise = NEWTON_TOL * (1.0 + abs(v))
    if decrease <= noise:
        # near the minimum the model is exact and f can no longer see the
        # step: take it unless f rises beyond rounding, and stop there
        pv = f(p)
        return (p, pv, True) if pv <= v + noise else (q, v, True)
    t = 1.0
    for _ in range(30):
        cand = q + t * d
        cv = f(cand)
        if cv <= v - ARMIJO_SHARE * t * decrease:
            return cand, cv, False
        t *= 0.5
    return q, v, True


def projected_descent(f: Callable[[np.ndarray], float],
                      project: Callable[..., Optional[np.ndarray]],
                      starts: Iterable[np.ndarray],
                      first_finite: bool = False,
                      grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      hess_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      ) -> DescentResult:
    """Multistart projected descent with backtracking.

    The gradient is ``grad`` when given, else central finite differences.
    With ``hess_diag`` (the Hessian of f is that diagonal H) an iteration
    where H is positive is a projected Newton step (Bertsekas 1982):
    ``project(z, h)`` is the projection of z = q - g / h in the metric H, and
    the step backtracks from it by Armijo's test.  A start converges there
    once the step's model decrease is at the rounding level of f.  Where the
    metric projection returns None, or H is not positive, the iteration takes
    a gradient step instead.

    Deterministic: starts are consumed in order and ties resolve to the
    earliest start.  A start ends as soon as its value, its gradient or its
    Hessian is non-finite, so nothing non-finite is ever projected, and as
    soon as ``project(q)`` returns None (it found no point).
    With ``first_finite`` (a convex f, whose local minima are all global)
    the run stops after the first start that converges, i.e. ends at a
    finite value because the gradient vanished or backtracking found no
    descent, and takes no further item from ``starts``.  A start cut off by a
    non-finite value or derivative, a None projection or ``DESCENT_MAX_ITER``
    is not a minimum, so the run goes on to the next start.  Returns (best
    point, best value, total iterations) as a :class:`DescentResult`; the
    point is None if no start ended finite.
    """
    best_q = None
    best_v = math.inf
    best_converged = False
    total_it = 0
    for s in starts:
        q = project(np.asarray(s, dtype=float))
        v = math.inf if q is None else f(q)
        converged = False
        for _ in range(DESCENT_MAX_ITER):
            if not math.isfinite(v):
                break
            total_it += 1
            if grad is None:
                g = fd_gradient(f, q, DESCENT_FD_STEP * (1.0 + float(np.linalg.norm(q))))
            else:
                g = np.asarray(grad(q), dtype=float)
            if not np.all(np.isfinite(g)):
                break
            if hess_diag is not None:
                h = np.asarray(hess_diag(q), dtype=float)
                if not np.all(np.isfinite(h)):
                    break
                p = project(q - g / h, h) if np.all(h > 0.0) else None
                if p is not None:
                    q, v, converged = _newton_step(f, q, v, g, p)
                    if converged:
                        break
                    continue
            gn = float(np.linalg.norm(g))
            if gn < 1e-12:
                converged = True
                break
            improved = False
            beta = 1.0 / (1.0 + gn)
            for _ in range(30):
                cand = project(q - beta * g)
                if cand is None:
                    break
                cv = f(cand)
                if cv < v - 1e-14 * (1.0 + abs(v)):
                    q, v = cand, cv
                    improved = True
                    break
                beta *= 0.5
            if cand is None:
                break
            if not improved:
                converged = True
                break
        if v < best_v - 1e-15:
            best_v = v
            best_q = q
            best_converged = converged
        if first_finite and converged:
            break
    return DescentResult(best_q, best_v, total_it, best_converged)


def simplex_weight_grid(k: int, resolution: int = 32):
    """All convex-combination weights on the k-simplex with denominators
    `resolution`; yields arrays summing to one."""
    for comp in itertools.combinations(range(resolution + k - 1), k - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + k - 2 - prev)
        yield np.array(parts, dtype=float) / resolution
