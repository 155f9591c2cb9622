"""Independent checks of every op's report.

Nothing here calls into ``ftvn``: the W-side problems are rebuilt from the
problem documents and solved with numpy / scipy (HiGHS for the LPs, NNLS
multipliers for the projection KKT conditions, SLSQP for the descent
reference).  Each check returns None when the report is right, or a
one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog, minimize, nnls

# A report value must match its reference to within REL_TOL * (1 + |ref|).
REL_TOL = 1e-6
# The projected-descent route is a heuristic: its value may exceed the SLSQP
# reference by at most this share of (1 + |ref|).
DESCENT_TOL = 1e-5


def _num(obj) -> float:
    return float.fromhex(obj["hex"])


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def _element(obj) -> np.ndarray:
    """Element JSON (rn list, rn/sym/rect dict) to a dense array."""
    if isinstance(obj, list):
        return np.asarray(obj, dtype=float)
    return np.asarray(obj["data"], dtype=float)


def _lam(family: str, x: np.ndarray) -> np.ndarray:
    """Eigenvalue map by numpy: spectrum, singular values, or a sort."""
    if family == "sym":
        vals = np.linalg.eigvalsh(0.5 * (x + x.T))
    elif family == "svd":
        vals = np.linalg.svd(x, compute_uv=False)
    else:
        vals = x
    return -np.sort(-np.ravel(vals))


def _constraints(doc: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The W-side set: the document's halfspaces plus nonincreasing order."""
    hs = doc["set"]["halfspaces"]
    order = np.zeros((n - 1, n))
    for i in range(n - 1):
        order[i, i] = -1.0
        order[i, i + 1] = 1.0
    a = np.vstack([np.array([h["normal"] for h in hs], dtype=float), order])
    b = np.concatenate([[float(h["offset"]) for h in hs], np.zeros(n - 1)])
    return a, b


def _w_vector(family: str, c: np.ndarray, sense: str, distance: bool) -> np.ndarray:
    # lam(c) where the optimizer commutes with c, else -lam(-c)
    use_lam = (sense == "max") != distance
    return _lam(family, c) if use_lam else -_lam(family, -c)


def check_solve(op, text: str) -> str | None:
    doc = json.loads(op.text)
    rep = json.loads(text)["report"]
    family = doc["instance"].partition(":")[0]
    c = _element(doc["objective"]["c"])
    sense = doc["sense"]
    if rep["infeasible"] or rep["optimizer_w"] is None or rep["optimizer_v"] is None:
        return "no optimizer on a feasible bounded problem"
    value = _num(rep["optimal_value"])
    q = np.array([float.fromhex(h) for h in rep["optimizer_w"]["hex"]])
    x = _element(rep["optimizer_v"])
    n = q.size
    a, b = _constraints(doc, n)
    if np.any(a @ q > b + REL_TOL * (1.0 + np.abs(b))):
        return "optimizer_w violates the polyhedron"
    if not np.allclose(_lam(family, x), q, rtol=0.0, atol=REL_TOL * (1.0 + np.linalg.norm(q))):
        return "lam(optimizer_v) differs from optimizer_w"
    cert = rep["commutation"]
    if cert is None or not cert["verdict"]:
        return "the lift does not pass its commutation check"

    if op.oracle == "lp":
        w = _w_vector(family, c, sense, distance=False)
        res = linprog(-w if sense == "max" else w, A_ub=a, b_ub=b,
                      bounds=[(None, None)] * n, method="highs")
        if res.status != 0:
            return f"reference LP failed: {res.message}"
        ref = -res.fun if sense == "max" else res.fun
        if not _close(value, ref):
            return f"LP value {value!r} differs from HiGHS {ref!r}"
        if not _close(float(np.sum(c * x)), value):
            return "<c, optimizer_v> differs from the value"
        if not rep["attained"]:
            return "exact LP route not marked attained"
        return None

    if op.oracle == "distance":
        w = _w_vector(family, c, sense, distance=True)
        if not _close(float(np.linalg.norm(c - x)), value):
            return "||c - optimizer_v|| differs from the value"
        # KKT: w - q = sum of active constraint normals with nonnegative weights
        slack = b - a @ q
        active = slack <= 1e-7 * (1.0 + np.abs(b))
        r = w - q
        if np.any(active):
            _, resid = nnls(a[active].T, r)
        else:
            resid = float(np.linalg.norm(r))
        if resid > REL_TOL * (1.0 + np.linalg.norm(w)):
            return f"projection fails KKT: multiplier residual {resid:.3e}"
        if not rep["attained"]:
            return "exact projection route not marked attained"
        return None

    # descent: min <lam~(c), q> - sum log q over the polyhedron
    w = _w_vector(family, c, sense, distance=False)

    def f(qq):
        return float(w @ qq - np.sum(np.log(qq)))

    if np.any(q <= 0.0) or not _close(f(q), value):
        return "value differs from F(optimizer_w)"
    if not _close(float(np.sum(c * x)) - float(np.sum(np.log(q))), value):
        return "<c, optimizer_v> - logdet differs from the value"
    p = np.asarray(op.feasible_point, dtype=float)
    res = minimize(f, p, jac=lambda qq: w - 1.0 / qq, method="SLSQP",
                   bounds=[(1e-9, None)] * n,
                   constraints=[{"type": "ineq", "fun": lambda qq: b - a @ qq,
                                 "jac": lambda qq: -a}],
                   options={"ftol": 1e-14, "maxiter": 500})
    ref = float(res.fun)
    if value > ref + DESCENT_TOL * (1.0 + abs(ref)):
        return f"descent value {value!r} worse than SLSQP reference {ref!r}"
    return None


def _z_exact_gap(c: np.ndarray, q: np.ndarray) -> float:
    """A3 shortfall of the z-counterexample at (c, q), by enumerating the
    permutations of q that lie in span{(3,2,1), (-1,0,0)}: normal (0,1,-2)."""
    normal = np.array([0.0, 1.0, -2.0]) / math.sqrt(5.0)
    best = -math.inf
    for perm in itertools.permutations(q):
        v = np.array(perm)
        if abs(float(normal @ v)) <= 1e-9 * (1.0 + np.linalg.norm(v)):
            best = max(best, float(c @ v))
    return float(-np.sort(-c) @ q) - best


def check_axiom(op, text: str) -> str | None:
    rep = json.loads(text)["axioms"]
    if (rep["instance"], rep["seed"], rep["n_samples"]) != (op.label, op.seed, op.n_samples):
        return "report does not echo its instance, seed and sample count"
    tol = _num(rep["tol"])
    if op.label != "z-counterexample":
        return None if rep["passed"] else "axiom suite failed on an exact instance"
    if _num(rep["a1_max"]) > tol or _num(rep["a2_violation"]) > tol:
        return "A1/A2 not within tol on the z-counterexample"
    gap = _num(rep["a3_worst_gap"])
    if gap < 0.1:
        return f"a3_worst_gap {gap!r} below 0.1"
    pair = rep["a3_worst_pair"]
    c = np.array([float.fromhex(h) for h in pair["c"]["hex"]])
    q = np.array([float.fromhex(h) for h in pair["q"]["hex"]])
    exact = _z_exact_gap(c, q)
    if not _close(gap, exact):
        return f"a3_worst_gap {gap!r} differs from the enumerated gap {exact!r}"
    return None


def check(op, text: str) -> str | None:
    return check_axiom(op, text) if op.kind == "axiom" else check_solve(op, text)
