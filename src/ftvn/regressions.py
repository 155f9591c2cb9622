"""The named regression pack behind ``ftvn paperpack``.

Each entry exercises one known-value behavior of the library end to end:
envelope values on the |x1| example, the finite-set gradient pair where
operator and strong commutativity split, idempotent-orbit maxima, the
determinant-root cross-check, the flagship symmetric-matrix solve, the
restricted-subspace witness failure, and the rotation isometry.  Entries are
deterministic functions of the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import axiom_suite, commute_check, get_instance
from .eja import algebra_from_name, idempotent_orbit_max, operator_commute_check, sym_coords
from .hyperbolic import (completeness_check, det_sym_polynomial, isometric_falsify,
                         mat_to_svec)
from .reduce import (envelope_lower_affine, envelope_lower_exact, envelope_upper,
                     interval_image, local_min_commutation_check,
                     reduce_solve_linear)
from .spectral_sets import FiniteSet, OrbitOf, OrderedPolyhedron


@dataclass(frozen=True)
class RegressionResult:
    name: str
    passed: bool
    details: dict


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * (1.0 + abs(b))


def _check_envelope_abs_x1(seed: int) -> RegressionResult:
    rn2 = get_instance("rn:2")
    pieces = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), 0.0)]
    q = np.array([1.0, -1.0])
    upper = envelope_upper(rn2, pieces, q)
    lower_affine = envelope_lower_affine(rn2, pieces, q)
    lower_exact, exact = envelope_lower_exact(rn2, lambda x: abs(x[0]), q)
    ok = _close(upper, 1.0) and _close(lower_affine, -1.0) and _close(lower_exact, 1.0) and exact
    return RegressionResult("envelope-abs-x1", ok, {
        "h_upper": upper, "h_lower_affine": lower_affine,
        "h_lower_exact": lower_exact, "exact": exact})


def _check_gradient_pair(seed: int) -> RegressionResult:
    # h(x, y) = x^2/2 - x + x(y^2 + y) on the two-point set {(1,0), (0,1)}:
    # gradients swap the points, giving operator- but not strong commutation
    rn2 = get_instance("rn:2")
    alg = algebra_from_name("rn:2")

    def h(v):
        x, y = v
        return 0.5 * x * x - x + x * (y * y + y)

    a = np.array([1.0, 0.0])
    spec = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0]])
    rep = local_min_commutation_check(rn2, h, spec, a)
    grad_ok = np.linalg.norm(rep.gradient - np.array([0.0, 1.0])) <= 1e-6
    b = np.array([0.0, 1.0])
    rep_b = local_min_commutation_check(rn2, h, spec, b)
    grad_b_ok = np.linalg.norm(rep_b.gradient - np.array([1.0, 0.0])) <= 1e-6
    h_ok = _close(h(a), -0.5)
    op = operator_commute_check(alg, a, rep.gradient)
    strong = commute_check(rn2, a, rep.gradient).verdict
    ok = h_ok and grad_ok and grad_b_ok and op and not strong
    return RegressionResult("finite-set-gradient-pair", ok, {
        "h_at_a": h(a), "grad_a": rep.gradient.tolist(), "grad_b": rep_b.gradient.tolist(),
        "operator_commute": op, "strong_commute": strong})


def _check_idempotent_orbit(seed: int) -> RegressionResult:
    alg = algebra_from_name("rn:3")
    rng = np.random.default_rng([seed, 3])
    c = rng.standard_normal(3)
    rows = []
    ok = True
    for k in (1, 2, 3):
        value, idem = idempotent_orbit_max(alg, c, k)
        brute = max(float(np.dot(c, np.array(mask)))
                    for mask in itertools.product([0.0, 1.0], repeat=3)
                    if sum(mask) == k)
        attained = float(np.dot(c, idem))
        ok = ok and _close(value, brute) and _close(attained, brute)
        rows.append({"k": k, "value": value, "enumerated": brute})
    return RegressionResult("idempotent-orbit-rn3", ok, {"cases": rows})


def _check_det_roots(seed: int) -> RegressionResult:
    sym3 = get_instance("sym:3")
    hp = det_sym_polynomial(3)
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((3, 3))
        m = 0.5 * (g + g.T)
        lam_hyp = hp.lam(mat_to_svec(m))
        lam_eja = sym3.lam(sym_coords(m))
        worst = max(worst, float(np.max(np.abs(lam_hyp - lam_eja))))
    return RegressionResult("det-root-crosscheck-sym3", worst <= 1e-8,
                            {"max_abs_gap": worst, "n_samples": 100})


def _check_flagship(seed: int) -> RegressionResult:
    sym2 = get_instance("sym:2")
    c = sym_coords(np.diag([1.0, -1.0]))
    spec = OrderedPolyhedron(halfspaces=(
        ((-1.0, 0.0), -1.0),   # q1 >= 1
        ((1.0, 0.0), 2.0),     # q1 <= 2
        ((0.0, -1.0), 0.0),    # q2 >= 0
    ))
    rep = reduce_solve_linear(sym2, c, spec, sense="max")
    lifted_val = sym2.inner_v(c, rep.optimizer_v)
    lam_x = sym2.lam(rep.optimizer_v)
    ok = (_close(rep.optimal_value, 2.0) and _close(lifted_val, 2.0)
          and np.linalg.norm(lam_x - np.array([2.0, 0.0])) <= 1e-8
          and rep.commutation.verdict and rep.attained)
    return RegressionResult("flagship-sym2", ok, {
        "value": rep.optimal_value, "lifted_value": lifted_val,
        "lifted_eigenvalues": lam_x.tolist(), "trace": rep.solver_trace})


def _check_z_gap(seed: int) -> RegressionResult:
    z = get_instance("z-counterexample")
    rep = axiom_suite(z, seed=seed, n_samples=128)
    ok = (rep.a1_max <= 1e-10 and rep.a2_violation <= 1e-10
          and rep.a3_worst_gap >= 0.1)
    return RegressionResult("z-subspace-a3-gap", ok, {
        "a1_max": rep.a1_max, "a2_violation": rep.a2_violation,
        "worst_gap": rep.a3_worst_gap,
        "worst_pair": None if rep.a3_worst_pair is None else
        {"c": list(rep.a3_worst_pair[0]), "q": list(rep.a3_worst_pair[1])}})


def _check_rot90(seed: int) -> RegressionResult:
    rot = get_instance("rot90")
    rep = axiom_suite(rot, seed=seed, n_samples=256)
    probe = np.array([1.0, 0.0])
    double = rot.lam(rot.lam(probe))
    not_idempotent = np.linalg.norm(double - rot.lam(probe)) > 0.5
    ok = rep.passed and rep.commute_fraction == 1.0 and not_idempotent
    return RegressionResult("rot90-commute-not-idempotent", ok, {
        "passed": rep.passed, "commute_fraction": rep.commute_fraction,
        "lam_lam_probe": double.tolist()})


def _check_det_complete_isometric(seed: int) -> RegressionResult:
    hp = det_sym_polynomial(2)
    comp = completeness_check(hp, seed=seed, n_restarts=10)
    iso = isometric_falsify(hp, seed=seed, n_samples=2, n_starts=6, tol=1e-6)
    ok = comp.complete and not iso.counterexample_candidate
    return RegressionResult("det-complete-isometric", ok, {
        "complete": comp.complete, "min_ratio": comp.min_ratio,
        "max_additivity_gap": iso.max_gap})


def _check_interval_endpoints(seed: int) -> RegressionResult:
    sym2 = get_instance("sym:2")
    rng = np.random.default_rng([seed, 8])
    g = rng.standard_normal((2, 2))
    c = sym_coords(0.5 * (g + g.T))
    g = rng.standard_normal((2, 2))
    u = sym_coords(0.5 * (g + g.T))
    box = interval_image(sym2, c, OrbitOf(u))
    lc = sym2.lam(c)
    lu = sym2.lam(u)
    hi_expect = float(np.dot(lc, lu))
    lo_expect = float(np.dot(np.sort(lc), lu))  # increasing rearrangement of lam(c)
    samples = sym2.sample_orbit(lu, rng, 512)
    vals = samples @ c
    inside = bool(np.all(vals <= box.hi + 1e-8) and np.all(vals >= box.lo - 1e-8))
    ok = (_close(box.hi, hi_expect) and _close(box.lo, lo_expect) and inside
          and box.report_hi.commutation.verdict and box.report_lo.commutation.verdict)
    return RegressionResult("orbit-interval-endpoints", ok, {
        "lo": box.lo, "hi": box.hi, "lo_expected": lo_expect,
        "hi_expected": hi_expect, "orbit_samples_inside": inside})


_CHECKS = [
    _check_envelope_abs_x1,
    _check_gradient_pair,
    _check_idempotent_orbit,
    _check_det_roots,
    _check_flagship,
    _check_z_gap,
    _check_rot90,
    _check_det_complete_isometric,
    _check_interval_endpoints,
]


@dataclass(frozen=True)
class PackReport:
    seed: int
    results: tuple
    passed: bool


def run_pack(seed: int = 42) -> PackReport:
    results = tuple(check(seed) for check in _CHECKS)
    return PackReport(seed=seed, results=results,
                      passed=all(r.passed for r in results))
