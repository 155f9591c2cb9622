"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import time

import numpy as np

from ftvn import axiom_suite, commute_check, get_instance
from ftvn.cli import main as cli_main
from ftvn.eja import (JordanAlgebra, algebra_from_name, idempotent_orbit_max,
                      majorization_check, operator_commute_check, sort_desc,
                      sym_coords)
from ftvn.hyperbolic import det_sym_polynomial, mat_to_svec
from ftvn.reduce import (DistanceObjective, LinearObjective, MaxAffineObjective,
                         envelope_lower_affine, envelope_lower_exact,
                         local_min_commutation_check, reduce_solve,
                         reduce_solve_linear, vi_commutation_check)
from ftvn.spectral_sets import FiniteSet, OrderedPolyhedron, table_fn

from conftest import brute_orbit_rn, enumerate_polytope_vertices, random_symmetric

INSTANCE_NAMES = ("rn:8", "sym:8", "spin:16", "product:rn:2+spin:3+sym:2",
                  "svd:6x6", "rot90")
JORDAN_NAMES = ("rn:8", "sym:8", "spin:16", "product:rn:2+spin:3+sym:2")


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


def _batch_inner(inst, pts, c):
    # row-wise <pts_i, c> under the instance inner product (diagonal weights)
    backend = inst.backend
    if isinstance(backend, JordanAlgebra):
        return pts @ (backend._w * c)
    return pts @ c


def test_criterion_1_axiom_suites():
    started = time.perf_counter()
    worst = {}
    for name in INSTANCE_NAMES:
        inst = get_instance(name)
        rep = axiom_suite(inst, seed=20240, n_samples=1000, tol=1e-8)
        worst[name] = max(rep.a1_max, rep.a2_violation, rep.homogeneity_max,
                          rep.a3_max_lambda_residual, rep.a3_max_inner_residual)
        assert rep.passed, f"{name}: {rep.notes}"
        assert rep.a3_failures == 0
        assert worst[name] <= 1e-8
    elapsed = time.perf_counter() - started
    _report("1 axiom suites (6 instances, 1000 samples)",
            elapsed < 30.0,
            f"worst violation {max(worst.values()):.2e}, runtime {elapsed:.1f}s < 30s")


def test_criterion_2_counterexample_detection():
    inst = get_instance("z-counterexample")
    rep = axiom_suite(inst, seed=31337, n_samples=256, tol=1e-8)
    ok = (rep.a1_max <= 1e-10 and rep.a2_violation <= 1e-10
          and rep.a3_worst_gap >= 0.1)
    _report("2 restricted-subspace A3 failure", ok,
            f"A1 {rep.a1_max:.1e}, A2 {rep.a2_violation:.1e}, "
            f"worst gap {rep.a3_worst_gap:.3f} >= 0.1")


def test_criterion_3_orbit_optimality():
    rng = np.random.default_rng(777)
    worst_excess = -math.inf
    worst_attain = 0.0
    for name in INSTANCE_NAMES:
        inst = get_instance(name)
        for _ in range(100):
            c = inst.draw(rng)
            u = inst.draw(rng)
            lu = inst.lam(u)
            bound = inst.inner_w(inst.lam(c), lu)
            pts = inst.sample_orbit(lu, rng, 1000)
            scale = 1.0 + inst.norm_v(c) * inst.norm_w(lu)
            excess = (float(np.max(_batch_inner(inst, pts, c))) - bound) / scale
            worst_excess = max(worst_excess, excess)
            w = inst.a3_witness(c, lu)
            worst_attain = max(worst_attain,
                               abs(inst.inner_v(c, w) - bound) / scale)
    ok = worst_excess <= 1e-8 and worst_attain <= 1e-8
    _report("3 orbit optimality (trace bound + witness attainment)", ok,
            f"max excess {worst_excess:.2e}, witness residual {worst_attain:.2e}")


def _constructed_commuting_pair(inst, rng):
    u = inst.draw(rng)
    p = sort_desc(rng.standard_normal(inst.dim_w))
    q = sort_desc(rng.standard_normal(inst.dim_w))
    if inst.family == "svd":
        p = sort_desc(np.abs(p))
        q = sort_desc(np.abs(q))
    x = inst.a3_witness(u, p)
    y = inst.a3_witness(x, q)  # built on x's own frame: strongly commuting
    return x, y


def test_criterion_4_commutativity_equivalence():
    tol = 1e-7
    rng = np.random.default_rng(4242)
    disagreements = 0
    checked = 0
    for name in INSTANCE_NAMES:
        inst = get_instance(name)
        pairs = [_constructed_commuting_pair(inst, rng) for _ in range(1000)]
        pairs += [(inst.draw(rng), inst.draw(rng)) for _ in range(1000)]
        for x, y in pairs:
            cert = commute_check(inst, x, y, tol)
            nx, ny = inst.norm_v(x), inst.norm_v(y)
            verdicts = (cert.residual_inner <= tol * (1 + nx * ny),
                        cert.residual_dist <= tol * (1 + nx + ny),
                        cert.residual_addnorm <= tol * (1 + nx + ny),
                        cert.residual_addvec <= tol * (1 + nx + ny))
            checked += 1
            if len(set(verdicts)) != 1:
                disagreements += 1
    _report("4 commutativity four-way equivalence", disagreements == 0,
            f"{checked} pairs, {disagreements} disagreements")


def test_criterion_5_reduction_identity_bruteforce():
    rng = np.random.default_rng(5151)
    worst = 0.0
    cert_failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        inst = get_instance(f"rn:{n}")
        points = rng.standard_normal((int(rng.integers(2, 5)), n))
        spec = FiniteSet(points=points)
        image = [p for p in points if np.all(np.diff(p) <= 0)]
        if not image:
            continue
        table_pts = np.array([sort_desc(p) for p in points])
        table_vals = rng.standard_normal(table_pts.shape[0])
        phi = table_fn(table_pts, table_vals)

        def phi_of(x):
            return phi(sort_desc(x))

        brute_pts = np.vstack([brute_orbit_rn(q) for q in image])
        c = rng.standard_normal(n)
        pieces = tuple((rng.standard_normal(n), float(rng.standard_normal()))
                       for _ in range(3))
        h = lambda x: max(np.dot(cc, x) + a for cc, a in pieces)

        cases = [
            (LinearObjective(c), lambda x: float(np.dot(c, x)), True),
            (DistanceObjective(c), lambda x: float(np.linalg.norm(c - x)), True),
            (MaxAffineObjective(pieces), h, "max-only"),
        ]
        for objective, f_v, needs_cert in cases:
            for sense in ("max", "min"):
                rep = reduce_solve(inst, objective, spec, phi=phi, sense=sense)
                vals = [f_v(x) + phi_of(x) for x in brute_pts]
                target = max(vals) if sense == "max" else min(vals)
                worst = max(worst, abs(rep.optimal_value - target))
                assert rep.attained
                check_cert = needs_cert is True or (needs_cert == "max-only"
                                                    and sense == "max")
                if check_cert and not (rep.commutation and rep.commutation.verdict):
                    cert_failures += 1
    ok = worst <= 1e-9 and cert_failures == 0
    _report("5 reduction identity vs brute force (50 specs)", ok,
            f"max gap {worst:.2e}, cert failures {cert_failures}")


def test_criterion_6_flagship():
    sym2 = get_instance("sym:2")
    c = sym_coords(np.diag([1.0, -1.0]))
    spec = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                         ((1.0, 0.0), 2.0),
                                         ((0.0, -1.0), 0.0)))
    rep = reduce_solve_linear(sym2, c, spec, sense="max")
    # independent LP oracle: vertex enumeration over the same polytope
    a_ub = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]])
    b_ub = np.array([-1.0, 2.0, 0.0, 0.0])
    verts = enumerate_polytope_vertices(a_ub, b_ub)
    oracle = float(np.max(verts @ sym2.lam(c)))
    lifted_value = sym2.inner_v(c, rep.optimizer_v)
    lam_x = sym2.lam(rep.optimizer_v)
    ok = (abs(rep.optimal_value - 2.0) <= 1e-9
          and abs(rep.optimal_value - oracle) <= 1e-9
          and abs(lifted_value - 2.0) <= 1e-9
          and np.linalg.norm(lam_x - [2.0, 0.0]) <= 1e-8
          and rep.attained and rep.commutation.verdict)
    _report("6 flagship constrained eigenvalue problem", ok,
            f"value {rep.optimal_value:.12f}, oracle {oracle:.12f}")


def test_criterion_7_known_value_regressions():
    rn2 = get_instance("rn:2")
    # |x1| envelopes at q = (1, -1)
    pieces = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), 0.0)]
    q = np.array([1.0, -1.0])
    low_aff = envelope_lower_affine(rn2, pieces, q)
    low_exact, exact_flag = envelope_lower_exact(rn2, lambda x: abs(x[0]), q)
    ok_env = abs(low_aff - (-1.0)) <= 1e-12 and abs(low_exact - 1.0) <= 1e-12 and exact_flag

    # finite-set gradient pair
    def h(v):
        x, y = v
        return 0.5 * x * x - x + x * (y * y + y)

    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    spec = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0]])
    rep_a = local_min_commutation_check(rn2, h, spec, a)
    rep_b = local_min_commutation_check(rn2, h, spec, b)
    alg2 = algebra_from_name("rn:2")
    ok_grad = (abs(h(a) + 0.5) <= 1e-12
               and np.linalg.norm(rep_a.gradient - [0.0, 1.0]) <= 1e-6
               and np.linalg.norm(rep_b.gradient - [1.0, 0.0]) <= 1e-6
               and operator_commute_check(alg2, a, rep_a.gradient)
               and not commute_check(rn2, a, rep_a.gradient).verdict)

    # idempotent orbit maxima on the coordinate algebra
    alg3 = algebra_from_name("rn:3")
    rng = np.random.default_rng(7)
    c3 = rng.standard_normal(3)
    ok_idem = True
    for k in (1, 2, 3):
        value, _ = idempotent_orbit_max(alg3, c3, k)
        brute = max(np.dot(c3, mask) for mask in itertools.product([0.0, 1.0], repeat=3)
                    if sum(mask) == k)
        ok_idem = ok_idem and abs(value - brute) <= 1e-12

    # determinant-root cross-check on 100 random symmetric 3x3
    alg_s3 = algebra_from_name("sym:3")
    hp = det_sym_polynomial(3)
    worst = 0.0
    for _ in range(100):
        m = random_symmetric(rng, 3)
        worst = max(worst, float(np.max(np.abs(
            hp.lam(mat_to_svec(m)) - alg_s3.instance.lam(sym_coords(m))))))
    ok_det = worst <= 1e-8

    ok = ok_env and ok_grad and ok_idem and ok_det
    _report("7 known-value regressions", ok,
            f"envelopes ({low_aff}, {low_exact}), det gap {worst:.2e}")


def test_criterion_8_majorization():
    rng = np.random.default_rng(808)
    worst_prefix = math.inf
    worst_trace = 0.0
    for name in JORDAN_NAMES:
        alg = algebra_from_name(name)
        for _ in range(1000):
            x = alg.instance.draw(rng)
            y = alg.instance.draw(rng)
            rep = majorization_check(alg, x, y, tol=1e-9)
            if rep.prefix_gaps.size:
                worst_prefix = min(worst_prefix, float(rep.prefix_gaps.min()))
            worst_trace = max(worst_trace, abs(rep.trace_gap))
            assert rep.ok
    ok = worst_prefix >= -1e-9 and worst_trace <= 1e-9
    _report("8 majorization prefix sums (4 algebras, 1000 pairs each)", ok,
            f"min prefix gap {worst_prefix:.2e}, max trace gap {worst_trace:.2e}")


def test_criterion_9_hausdorff_equality():
    rng = np.random.default_rng(909)
    from ftvn.reduce import hausdorff_spectral
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        inst = get_instance(f"rn:{n}")
        qe = [sort_desc(rng.standard_normal(n)) for _ in range(int(rng.integers(1, 4)))]
        qf = [sort_desc(rng.standard_normal(n)) for _ in range(int(rng.integers(1, 4)))]
        w_side = hausdorff_spectral(inst, FiniteSet(points=np.array(qe)),
                                    FiniteSet(points=np.array(qf)))
        ve = np.vstack([brute_orbit_rn(p) for p in qe])
        vf = np.vstack([brute_orbit_rn(p) for p in qf])
        d = np.linalg.norm(ve[:, None, :] - vf[None, :, :], axis=2)
        v_side = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        worst = max(worst, abs(w_side - v_side))
    _report("9 Hausdorff distance equality (50 set pairs)", worst <= 1e-10,
            f"max discrepancy {worst:.2e}")


def test_criterion_10_vi_commutation():
    rng = np.random.default_rng(1010)
    solution_failures = 0
    nonsolution_failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        inst = get_instance(f"rn:{n}")
        points = np.array([sort_desc(rng.standard_normal(n))
                           for _ in range(int(rng.integers(1, 4)))])
        spec = FiniteSet(points=points)
        c = rng.standard_normal(n)
        all_pts = np.vstack([brute_orbit_rn(q) for q in points])
        vals = all_pts @ c
        a_star = all_pts[int(np.argmin(vals))]
        rep = vi_commutation_check(inst, lambda x: c, spec, a_star)
        if not (rep.exact and rep.vi_residual >= -1e-9 and rep.cert.verdict):
            solution_failures += 1
        # a non-minimizer (when one exists) must show a negative residual
        others = all_pts[vals > vals.min() + 1e-9]
        if others.shape[0]:
            a_bad = others[int(rng.integers(others.shape[0]))]
            rep_bad = vi_commutation_check(inst, lambda x: c, spec, a_bad)
            if not rep_bad.vi_residual < 0:
                nonsolution_failures += 1
    ok = solution_failures == 0 and nonsolution_failures == 0
    _report("10 VI commutation principle (50 + 50 cases)", ok,
            f"{solution_failures} solution failures, "
            f"{nonsolution_failures} non-solution failures")


def test_criterion_11_paperpack_determinism(tmp_path, capsys):
    out1 = tmp_path / "pack_a.json"
    out2 = tmp_path / "pack_b.json"
    code1 = cli_main(["paperpack", "--seed", "42", "--out", str(out1)])
    code2 = cli_main(["paperpack", "--seed", "42", "--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    ok = code1 == 0 and code2 == 0 and identical and doc["passed"]
    _report("11 deterministic regression pack", ok,
            f"byte-identical={identical}, all-passed={doc['passed']}")
