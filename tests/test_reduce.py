import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import ftvn.reduce
import ftvn.solvers
from ftvn import MonotonicityError, commute_check, get_instance, lambda_tilde
from ftvn.eja import sort_desc, sym_coords
from ftvn.reduce import (DistanceObjective, LinearObjective, MaxAffineObjective,
                         _ROUTES, _WSide, envelope_lower_affine, envelope_lower_exact,
                         envelope_upper, hausdorff_spectral, interval_image,
                         orbit_distance, orbit_linear, orbit_min, reduce_solve,
                         reduce_solve_distance, reduce_solve_linear)
from ftvn.solvers import (dykstra_project, fd_gradient, ordered_polyhedron_projectors,
                          project_polyhedron, projected_descent, solve_lp)
from ftvn.spectral_sets import (FiniteSet, GridOracle, OrbitOf,
                                OrderedPolyhedron, PRODUCT, SUM, ZERO_FN,
                                SpectralFunctionSpec, neg_logdet_fn, table_fn)

from conftest import brute_orbit_rn


def test_orbit_linear_examples(rn3, sym2):
    rep = orbit_linear(rn3, np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0]), "max")
    assert rep.optimal_value == pytest.approx(3.0)
    np.testing.assert_allclose(rep.optimizer_v, [0.0, 0.0, 1.0])
    assert rep.commutation.verdict and rep.attained
    # enumeration oracle over the 3 distinct orbit points
    vals = [np.dot([1.0, 2.0, 3.0], p) for p in brute_orbit_rn([0.0, 1.0, 0.0])]
    assert rep.optimal_value == pytest.approx(max(vals))

    rep = orbit_linear(rn3, np.array([1.0, 2.0, 3.0]), np.zeros(3), "max")
    assert rep.optimal_value == pytest.approx(0.0)
    rep = orbit_linear(rn3, np.array([1.0, 2.0, 3.0]), np.zeros(3), "min")
    assert rep.optimal_value == pytest.approx(0.0)

    c = sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = sym_coords(np.diag([1.0, 0.0]))
    rep = orbit_linear(sym2, c, u, "max")
    assert rep.optimal_value == pytest.approx(1.0)
    assert rep.commutation.verdict


def test_orbit_linear_min_uses_tilde(rn3):
    rng = np.random.default_rng(0)
    c = rn3.draw(rng)
    u = rn3.draw(rng)
    rep = orbit_linear(rn3, c, u, "min")
    expect = float(np.dot(lambda_tilde(rn3, c), rn3.lam(u)))
    assert rep.optimal_value == pytest.approx(expect)
    vals = [np.dot(c, p) for p in brute_orbit_rn(u)]
    assert rep.optimal_value == pytest.approx(min(vals))
    assert rep.commutes_with == "-c"


def test_orbit_distance_examples(rn2, sym2):
    rep = orbit_distance(rn2, np.array([1.0, 0.0]), np.array([0.0, 2.0]), "min")
    assert rep.optimal_value == pytest.approx(1.0)
    rep = orbit_distance(rn2, np.array([1.0, 0.0]), np.array([0.0, 2.0]), "max")
    assert rep.optimal_value == pytest.approx(math.sqrt(5.0))

    c = sym_coords(np.diag([5.0, 1.0]))
    u = sym_coords(np.array([[0.0, 2.0], [2.0, 0.0]]))
    rep = orbit_distance(sym2, c, u, "min")
    assert rep.optimal_value == pytest.approx(math.sqrt(18.0))
    # sampled orbit never does better
    rng = np.random.default_rng(1)
    pts = sym2.sample_orbit(sym2.lam(u), rng, 300)
    dists = np.linalg.norm(pts - c[None, :], axis=1)
    assert dists.min() >= rep.optimal_value - 1e-8

    rep = orbit_distance(sym2, c, c, "min")
    assert rep.optimal_value == pytest.approx(0.0, abs=1e-9)


def test_reduce_finite_set_example(rn2):
    spec = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0]])
    rep = reduce_solve_linear(rn2, np.array([1.0, 2.0]), spec, sense="max")
    assert rep.optimal_value == pytest.approx(2.0)
    np.testing.assert_allclose(rep.optimizer_w, [1.0, 0.0])
    np.testing.assert_allclose(rep.optimizer_v, [0.0, 1.0])
    assert rep.commutation.verdict
    # brute force over lam^-1(Q) = {(1,0), (0,1)}
    assert max(np.dot([1.0, 2.0], p) for p in [(1.0, 0.0), (0.0, 1.0)]) == 2.0


def test_reduce_orbit_spec_matches_orbit_linear(sym2):
    rng = np.random.default_rng(2)
    c = sym2.draw(rng)
    u = sym2.draw(rng)
    rep1 = reduce_solve_linear(sym2, c, OrbitOf(u), sense="max")
    rep2 = orbit_linear(sym2, c, u, "max")
    assert rep1.optimal_value == pytest.approx(rep2.optimal_value)


def test_reduce_empty_set_infeasible(rn2):
    spec = FiniteSet(points=[[0.0, 1.0]])  # no sorted member
    rep = reduce_solve_linear(rn2, np.array([1.0, 2.0]), spec, sense="max")
    assert rep.infeasible
    assert rep.optimal_value == -math.inf
    rep = reduce_solve_linear(rn2, np.array([1.0, 2.0]), spec, sense="min")
    assert rep.optimal_value == math.inf

    poly = OrderedPolyhedron(halfspaces=(((1.0, 0.0), -1.0),   # q1 <= -1
                                         ((0.0, -1.0), -1.0)))  # q2 >= 1
    rep = reduce_solve_linear(rn2, np.array([1.0, 2.0]), poly, sense="max")
    assert rep.infeasible  # cone forces q1 >= q2 but constraints force q1 < q2


def test_flagship_lp_with_vertex_oracle(sym2):
    c = sym_coords(np.diag([1.0, -1.0]))
    spec = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                         ((1.0, 0.0), 2.0),
                                         ((0.0, -1.0), 0.0)))
    rep = reduce_solve_linear(sym2, c, spec, sense="max")
    assert rep.optimal_value == pytest.approx(2.0, abs=1e-9)
    assert rep.attained and rep.commutation.verdict
    np.testing.assert_allclose(sym2.lam(rep.optimizer_v), [2.0, 0.0], atol=1e-9)
    assert rep.reduction_gap <= 1e-9

    from conftest import enumerate_polytope_vertices
    a_ub = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]])
    b_ub = np.array([-1.0, 2.0, 0.0, 0.0])
    verts = enumerate_polytope_vertices(a_ub, b_ub)
    oracle = max(verts @ sym2.lam(c))
    assert rep.optimal_value == pytest.approx(oracle)


def test_reduce_distance_examples(rn2, sym2):
    spec = FiniteSet(points=[[0.0, 2.0], [2.0, 0.0]], permutation_invariant=True)
    rep = reduce_solve_distance(rn2, np.array([1.0, 0.0]), spec, sense="min")
    assert rep.optimal_value == pytest.approx(1.0)
    assert rep.commutes_with == "c"
    assert rep.commutation.verdict

    c = sym_coords(np.diag([-1.0, 0.0]))
    spec = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                         ((1.0, 0.0), 2.0),
                                         ((0.0, -1.0), 0.0)))
    rep = reduce_solve_distance(sym2, c, spec, sense="min")
    assert rep.optimal_value == pytest.approx(math.sqrt(2.0), abs=1e-8)
    np.testing.assert_allclose(rep.optimizer_w, [1.0, 0.0], atol=1e-8)

    # supremum of distance over an orbit: attained, commuting with -c
    rng = np.random.default_rng(3)
    u = sym2.draw(rng)
    rep = reduce_solve_distance(sym2, c, OrbitOf(u), sense="max")
    expect = np.linalg.norm(lambda_tilde(sym2, c) - sym2.lam(u))
    assert rep.optimal_value == pytest.approx(expect)
    assert rep.commutes_with == "-c"


def test_grid_oracle_path(rn2):
    spec = GridOracle(membership=lambda q: q[0] + q[1] <= 1.45,
                      box=[[-2.0, 2.0], [-2.0, 2.0]], resolution=41)
    rep = reduce_solve_linear(rn2, np.array([1.0, 1.0]), spec, sense="max")
    assert not rep.attained          # grid scan cannot certify attainment
    # best sorted grid point under the cut: (0.8, 0.6) on the 0.1 lattice
    assert rep.optimal_value == pytest.approx(1.4, abs=1e-9)


def test_max_affine_reduction_with_brute_force(rn3):
    rng = np.random.default_rng(4)
    for _ in range(10):
        pieces = tuple((rng.standard_normal(3), float(rng.standard_normal()))
                       for _ in range(3))
        points = rng.standard_normal((4, 3))
        spec = FiniteSet(points=points)
        objective = MaxAffineObjective(pieces)
        image = [p for p in points if np.all(np.diff(p) <= 0)]
        if not image:
            continue
        h = lambda x: max(np.dot(c, x) + a for c, a in pieces)
        brute_pts = [x for q in image for x in brute_orbit_rn(q)]
        rep = reduce_solve(rn3, objective, spec, sense="max")
        assert rep.optimal_value == pytest.approx(max(h(x) for x in brute_pts), abs=1e-9)
        # the lifted optimizer commutes with an active piece
        assert rep.commutation.verdict
        rep = reduce_solve(rn3, objective, spec, sense="min")
        assert rep.optimal_value == pytest.approx(min(h(x) for x in brute_pts), abs=1e-9)


def test_lp_routes_make_one_lp_call_each(sym2, rn2, monkeypatch):
    # the LP routes read infeasibility from their own LP: no separate phase 1
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(ftvn.reduce, "solve_lp", counting)
    box = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                        ((1.0, 0.0), 2.0),
                                        ((0.0, -1.0), 0.0)))
    rep = reduce_solve_linear(sym2, sym_coords(np.diag([1.0, -1.0])), box, sense="max")
    assert rep.solver_trace["method"] == "lp_simplex" and not rep.infeasible
    assert len(calls) == 1

    calls.clear()
    empty = OrderedPolyhedron(halfspaces=(((1.0, 0.0), -1.0),   # q1 <= -1
                                          ((0.0, -1.0), -1.0)))  # q2 >= 1
    for sense in ("max", "min"):
        rep = reduce_solve_linear(rn2, np.array([1.0, 2.0]), empty, sense=sense)
        assert rep.infeasible and rep.solver_trace["method"] == "lp_simplex"
    assert len(calls) == 2

    calls.clear()
    pieces = ((sym_coords(np.diag([1.0, -1.0])), 0.0),
              (sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]])), 0.25))
    rep = reduce_solve(sym2, MaxAffineObjective(pieces), box, sense="max")
    assert rep.solver_trace["method"] == "lp_per_piece" and len(calls) == len(pieces)
    calls.clear()
    rep = reduce_solve(rn2, MaxAffineObjective(((np.array([1.0, 0.0]), 0.0),
                                                (np.array([0.0, 1.0]), 0.0))),
                       empty, sense="max")
    assert rep.infeasible and len(calls) == 1

    # the projection routes run no LP on a nonempty set: the projector's
    # certificate shows it nonempty
    calls.clear()
    rep = reduce_solve_distance(rn2, np.array([3.0, -1.0]), box, sense="min")
    assert rep.solver_trace["method"] == "dykstra_projection" and rep.attained
    np.testing.assert_allclose(rep.optimizer_w, [2.0, 0.0], atol=1e-12)
    rep = reduce_solve_linear(rn2, np.array([1.0, 2.0]), box, phi=neg_logdet_fn(),
                              sense="min")
    assert rep.solver_trace["method"] == "projected_descent" and rep.optimizer_w is not None
    assert len(calls) == 0

    # an empty set gets no certified projection, so the feasibility LP runs
    calls.clear()
    rep = reduce_solve_distance(rn2, np.array([1.0, 2.0]), empty, sense="min")
    assert rep.infeasible and rep.solver_trace["method"] == "lp_phase1"
    assert len(calls) == 1


def test_max_affine_over_polyhedron_lp_per_piece(sym2):
    # sup of a max-affine objective over a polytope: one LP per piece;
    # oracle = vertex enumeration of the same polytope
    pieces = ((sym_coords(np.diag([1.0, -1.0])), 0.0),
              (sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]])), 0.25))
    spec = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                         ((1.0, 0.0), 2.0),
                                         ((0.0, -1.0), 0.0)))
    rep = reduce_solve(sym2, MaxAffineObjective(pieces), spec, sense="max")
    assert rep.solver_trace["method"] == "lp_per_piece"
    assert rep.attained

    from conftest import enumerate_polytope_vertices
    a_ub = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]])
    b_ub = np.array([-1.0, 2.0, 0.0, 0.0])
    verts = enumerate_polytope_vertices(a_ub, b_ub)
    oracle = max(max(np.dot(sym2.lam(c), v) + a for c, a in pieces) for v in verts)
    assert rep.optimal_value == pytest.approx(oracle, abs=1e-9)
    assert rep.reduction_gap <= 1e-9
    assert rep.commutation.verdict  # commutes with the active piece


def test_projected_descent_path_with_nonaffine_phi(sym2):
    # distance objective plus a curved spectral term: no exact dispatch
    # applies, so the engine falls back to projected multistart descent
    phi = SpectralFunctionSpec(phi=lambda q: 0.25 * float(np.sum(q ** 2)),
                               convex=True)
    c = sym_coords(np.diag([3.0, 0.5]))
    spec = OrderedPolyhedron(halfspaces=(((1.0, 0.0), 2.0),
                                         ((0.0, -1.0), 0.0)))
    rep = reduce_solve_distance(sym2, c, spec, phi=phi, sense="min", seed=3)
    assert rep.solver_trace["method"] == "projected_descent"
    assert not rep.attained
    # oracle: dense scan of the feasible triangle-like region
    lc = sym2.lam(c)
    best = math.inf
    for q1 in np.linspace(0, 2, 201):
        for q2 in np.linspace(0, 2, 201):
            if q2 <= q1:
                best = min(best, np.linalg.norm(lc - [q1, q2])
                           + 0.25 * (q1 ** 2 + q2 ** 2))
    assert rep.optimal_value <= best + 1e-4
    assert rep.optimal_value >= best - 1e-3


def _box(n, lo, hi):
    # lo <= q_n and q_1 <= hi over the nonincreasing cone
    top = np.zeros(n)
    top[0] = 1.0
    bottom = np.zeros(n)
    bottom[-1] = -1.0
    return OrderedPolyhedron(halfspaces=((top, hi), (bottom, -lo)))


def _finite_projections_only(monkeypatch):
    seen = []

    def checked(q, *args, **kwargs):
        assert np.all(np.isfinite(q)), q
        seen.append(1)
        return project_polyhedron(q, *args, **kwargs)

    monkeypatch.setattr(ftvn.reduce, "project_polyhedron", checked)
    return seen


def test_convex_descent_runs_one_start(rn3):
    rep = reduce_solve_linear(rn3, np.array([0.9, 0.7, 0.6]), _box(3, 0.5, 4.0),
                              phi=neg_logdet_fn(), sense="min", seed=1)
    assert rep.solver_trace["method"] == "projected_descent"
    assert rep.solver_trace["starts"] == 1 and rep.solver_trace["convex"] is True
    assert not rep.attained
    # stationary point of <lam~(c), q> - sum log q: q_i = 1 / lam~(c)_i
    np.testing.assert_allclose(rep.optimizer_w, [1 / 0.6, 1 / 0.7, 1 / 0.9], atol=1e-5)


def test_convex_descent_falls_through_infinite_starts(rn2, monkeypatch):
    # the box reaches q = 0, where neg_logdet is +inf: the anchor start (the
    # projection of 0) ends there, so a later start finds the minimum
    seen = _finite_projections_only(monkeypatch)
    rep = reduce_solve_linear(rn2, np.array([1.0, 0.5]), _box(2, 0.0, 4.0),
                              phi=neg_logdet_fn(), sense="min", seed=0)
    assert rep.solver_trace["convex"] is True
    assert 1 < rep.solver_trace["starts"] < 32 and seen
    assert rep.optimal_value == pytest.approx(2.0 - math.log(2.0), abs=1e-8)

    # a box just inside q > 0: the anchor start has a finite value.  With
    # neg_logdet's derivatives its Newton steps double q and converge there
    rep = reduce_solve_linear(rn2, np.array([1.0, 0.5]), _box(2, 1e-7, 4.0),
                              phi=neg_logdet_fn(), sense="min", seed=0)
    assert rep.solver_trace["convex"] is True and rep.solver_trace["starts"] == 1
    assert rep.solver_trace["step"] == "newton" and rep.solver_trace["converged"]
    assert rep.optimal_value == pytest.approx(2.0 - math.log(2.0), abs=1e-8)
    # the same phi without derivatives: the anchor's finite-difference probe
    # crosses q = 0, so it is cut off short of the minimum and a later start
    # must find it
    rep = reduce_solve_linear(rn2, np.array([1.0, 0.5]), _box(2, 1e-7, 4.0),
                              phi=SpectralFunctionSpec(phi=neg_logdet_fn().phi, convex=True),
                              sense="min", seed=0)
    assert rep.solver_trace["convex"] is True and rep.solver_trace["starts"] > 1
    assert rep.solver_trace["step"] == "fd"
    assert rep.optimal_value == pytest.approx(2.0 - math.log(2.0), abs=1e-8)

    # phi is +inf on the whole set: every start ends there and no optimizer exists
    negative = OrderedPolyhedron(halfspaces=(((1.0, 0.0), -1.0),))
    rep = reduce_solve_linear(rn2, np.array([1.0, 0.5]), negative,
                              phi=neg_logdet_fn(), sense="min", seed=0)
    assert rep.solver_trace["starts"] == 32 and rep.optimizer_w is None
    assert rep.optimal_value == math.inf and not rep.attained and not rep.infeasible


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: reduce._descend (the projected_descent "
                   "route) reports a finite value for a convex problem that is unbounded below")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_convex_descent_unbounded_below(rn2):
    # min <lam~(c), q> - log q1 - log q2 over q2 >= 0.1 with c = (-1, -1): the
    # linear part falls without bound along q1 = q2 -> inf, faster than the
    # logs rise, so the infimum is -inf and no point attains it.  The Newton
    # descent reports about -2.2e180 as converged instead
    half = OrderedPolyhedron(halfspaces=(((0.0, -1.0), -0.1),))
    rep = reduce_solve_linear(rn2, np.array([-1.0, -1.0]), half, phi=neg_logdet_fn(),
                              sense="min")
    assert rep.optimal_value == -math.inf and not rep.attained


def test_nonconvex_descent_runs_all_starts(rn2):
    # optima inside the box on rn:2, on the interval's end on rn:1, and at the
    # box's corner q1 = q2 = 2 on rn:2, where the ordering row meets a bound
    box = _box(2, 0.5, 2.0)
    c = np.array([-0.8, -0.6])
    quad = SpectralFunctionSpec(phi=lambda q: 0.25 * float(np.sum(q ** 2)), convex=True)
    rn1 = get_instance("rn:1")
    interval = _box(1, 0.5, 2.0)
    cases = [
        reduce_solve_linear(rn2, -c, box, phi=SpectralFunctionSpec(
            phi=lambda q: -0.25 * float(np.sum(q ** 2))), sense="max"),
        reduce_solve_linear(rn2, c, box, phi=SpectralFunctionSpec(
            phi=lambda q: 0.25 * float(np.sum(q ** 2)), convex=False), sense="min"),
        reduce_solve(rn2, MaxAffineObjective(((c, 0.0), (1.5 * c, 0.5))), box,
                     phi=quad, sense="min"),
        reduce_solve_linear(rn1, np.array([-0.8]), interval, phi=SpectralFunctionSpec(
            phi=lambda q: 1.0 + float(np.sum(q ** 2)), convex=True),
                            combiner=PRODUCT, sense="min"),
        # a convex phi at sense max does not make a convex problem
        reduce_solve_linear(rn1, np.array([1.0]), interval, phi=quad, sense="max"),
    ]
    ones = np.array([1.0, 1.0])
    corners = [
        reduce_solve_linear(rn2, ones, box, phi=quad, sense="max"),
        reduce_solve_linear(rn2, ones, box, phi=SpectralFunctionSpec(
            phi=lambda q: 1.0 + float(np.sum(q))), combiner=PRODUCT, sense="max"),
    ]
    for rep in cases + corners:
        assert rep.solver_trace["method"] == "projected_descent"
        assert rep.solver_trace["starts"] == 32 and rep.solver_trace["convex"] is False
    # (q1 + q2) + (q1^2 + q2^2) / 4 and (q1 + q2) (1 + q1 + q2) at q = (2, 2)
    for rep, value in zip(corners, (6.0, 20.0)):
        assert rep.optimal_value == pytest.approx(value, abs=1e-9)


def test_convex_descent_matches_all_starts():
    # one start against the best of all 32, drawn as the engine draws them;
    # every fourth box reaches below q = 0, where neg_logdet is +inf
    rng = np.random.default_rng(2024)
    quad = SpectralFunctionSpec(phi=lambda q: 0.25 * float(np.sum(q ** 2)), convex=True)
    for k in range(20):
        n = 2 + k % 2
        inst = get_instance(f"rn:{n}")
        lo = rng.uniform(-0.5, 0.0) if k % 4 == 0 else rng.uniform(0.2, 1.0)
        hi = lo + rng.uniform(1.0, 3.0)
        spec = _box(n, lo, hi)
        seed = int(rng.integers(1000))
        if k % 2 == 0:
            c = rng.uniform(0.3, 1.2, n)
            phi = neg_logdet_fn()
            rep = reduce_solve_linear(inst, c, spec, phi=phi, sense="min", seed=seed)
            w = lambda_tilde(inst, c)
            t = lambda q: float(np.dot(w, q))
        else:
            # c beyond the box keeps ||lam(c) - q|| smooth on the set
            c = rng.uniform(hi + 0.5, hi + 2.5, n)
            phi = quad
            rep = reduce_solve_distance(inst, c, spec, phi=phi, sense="min", seed=seed)
            w = inst.lam(c)
            t = lambda q: float(np.linalg.norm(w - q))
        assert rep.solver_trace["convex"] is True
        assert rep.solver_trace["starts"] < 32

        projs = ordered_polyhedron_projectors(spec.halfspaces, n)
        project = lambda q: dykstra_project(q, projs)[0]
        start_rng = np.random.default_rng(seed)
        anchor = project(np.zeros(n))
        spread = 1.0 + float(np.linalg.norm(anchor))
        starts = [anchor] + [anchor + spread * start_rng.standard_normal(n)
                             for _ in range(31)]

        def f(q):
            v = t(q) + phi(q)
            return v if math.isfinite(v) else math.inf

        _, best, _ = projected_descent(f, project, starts)
        assert rep.optimal_value == pytest.approx(best, rel=1e-9, abs=1e-9), k


def test_derivative_hooks_match_finite_differences(sym3):
    # neg_logdet's gradient and Hessian diagonal, and the gradient of each
    # objective's t on the W side, against central differences at seeded points
    rng = np.random.default_rng(17)
    phi = neg_logdet_fn()
    for _ in range(20):
        q = np.sort(rng.uniform(0.2, 3.0, 3))[::-1]
        step = 1e-6 * (1.0 + float(np.linalg.norm(q)))
        np.testing.assert_allclose(phi.grad(q), fd_gradient(phi, q, step), atol=1e-7)
        hess_fd = [fd_gradient(lambda p: float(phi.grad(p)[i]), q, step)[i] for i in range(3)]
        np.testing.assert_allclose(phi.hess_diag(q), hess_fd, rtol=1e-6)
        np.testing.assert_array_equal(ZERO_FN.grad(q), np.zeros(3))

        m = rng.standard_normal((3, 3))
        c = sym_coords(m + m.T)
        for sense, w in (("max", sym3.lam(c)), ("min", lambda_tilde(sym3, c))):
            # at sense min the W vector is -lam(-c)
            ws = _WSide(sym3, LinearObjective(c), None, ZERO_FN, SUM, sense, 1e-8, 0)
            np.testing.assert_allclose(ws.pieces[0].w, w, atol=1e-12)
            np.testing.assert_allclose(ws.t_grad(q), fd_gradient(ws.t, q, step), atol=1e-7)
        ws = _WSide(sym3, DistanceObjective(c), None, ZERO_FN, SUM, "min", 1e-8, 0)
        np.testing.assert_allclose(ws.t_grad(q), fd_gradient(ws.t, q, step), atol=1e-7)

    # non-finite wherever phi is, finite elsewhere
    for q in ([1.0, 0.0], [2.0, -0.5], [-1.0, -2.0]):
        q = np.array(q)
        for hook in (phi.grad, phi.hess_diag):
            out = hook(q)
            assert not np.any(np.isfinite(out[q <= 0.0])), (hook, q)
            assert np.all(np.isfinite(out[q > 0.0])), (hook, q)


def test_convex_descent_reaches_frank_wolfe_tolerance():
    # ROADMAP's Baseline generator at sense min: neg_logdet plus a linear
    # objective on rn:2-rn:5, over the box 0.1 <= q <= 3 and three cuts through
    # a sorted point.  F is convex, so the Frank-Wolfe gap g.q - min_s g.s
    # over the set, with g the gradient of F at q, bounds F(q) - F*; HiGHS
    # gives the min over the halfspaces and the ordering rows built here
    from scipy.optimize import linprog

    empty = []
    for s in range(40):
        rng = np.random.default_rng(s)
        n = int(rng.integers(2, 6))
        halfspaces = list(_box(n, 0.1, 3.0).halfspaces)
        for _ in range(3):
            a = rng.standard_normal(n)
            p = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
            halfspaces.append((a, float(a @ p) + 0.3))
        c = rng.standard_normal(n)
        inst = get_instance(f"rn:{n}")
        rep = reduce_solve_linear(inst, c, OrderedPolyhedron(halfspaces=tuple(halfspaces)),
                                  phi=neg_logdet_fn(), sense="min", seed=s)
        if rep.infeasible:
            empty.append(s)
            continue
        assert rep.solver_trace["step"] == "newton" and rep.solver_trace["converged"], s
        q = rep.optimizer_w
        w = np.sort(c)  # -lam(-c): c in increasing order
        value = float(w @ q - np.sum(np.log(q)))
        assert rep.optimal_value == pytest.approx(value, rel=1e-12), s
        g = w - 1.0 / q
        ordering = np.eye(n, k=1)[:-1] - np.eye(n)[:-1]  # q_{i+1} - q_i <= 0
        lp = linprog(g, A_ub=np.vstack([[a for a, _ in halfspaces], ordering]),
                     b_ub=np.concatenate([[b for _, b in halfspaces], np.zeros(n - 1)]),
                     bounds=(None, None), method="highs")
        assert lp.status == 0, s
        assert float(g @ q) - lp.fun <= 1e-8 * (1.0 + abs(value)), s
    assert empty == [14, 16, 35]


def test_descent_never_projects_non_finite_points(sym2, monkeypatch):
    # the README flagship with neg_logdet at sense max: the supremum is +inf at
    # q2 -> 0, where finite differences turn non-finite
    seen = _finite_projections_only(monkeypatch)
    flagship = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                             ((1.0, 0.0), 2.0),
                                             ((0.0, -1.0), 0.0)))
    c = sym_coords(np.diag([1.0, -1.0]))
    rep = reduce_solve_linear(sym2, c, flagship, phi=neg_logdet_fn(), sense="max",
                              seed=42)
    assert rep.solver_trace["method"] == "projected_descent"
    assert rep.solver_trace["starts"] == 32 and not rep.attained and seen
    # reported as an unbounded LP is: +inf and no optimizer
    assert rep.optimal_value == math.inf and rep.optimizer_w is None


def test_projection_at_narrow_angle_is_exact(rn2):
    # two nearly parallel halfspaces, where Dykstra creeps and stops at its
    # sweep cap with q2 = -2.99970: the projection is exact, onto the one
    # active halfspace a.q <= 1 with a = (1, -1e-4)
    spec = OrderedPolyhedron(halfspaces=(((1.0, 1e-4), 1.0), ((1.0, -1e-4), 1.0)))
    rep = reduce_solve_distance(rn2, np.array([10.0, -3.0]), spec, sense="min")
    assert rep.solver_trace == {"method": "dykstra_projection"}
    assert rep.attained
    exact = -3.0 + 1e-4 * (10.0 + 3e-4 - 1.0) / (1.0 + 1e-8)
    assert exact == pytest.approx(-2.99909997, abs=1e-8)
    assert rep.optimizer_w[1] == pytest.approx(exact, rel=1e-12)


def test_spectral_function_rides_along(rn3):
    rng = np.random.default_rng(5)
    points = np.array([sort_desc(rng.standard_normal(3)) for _ in range(5)])
    values = rng.standard_normal(5)
    phi = table_fn(points, values)
    c = rng.standard_normal(3)
    spec = FiniteSet(points=points)
    rep = reduce_solve_linear(rn3, c, spec, phi=phi, sense="max")
    brute = max(max(np.dot(c, x) for x in brute_orbit_rn(q)) + v
                for q, v in zip(points, values))
    assert rep.optimal_value == pytest.approx(brute, abs=1e-9)


def test_neg_logdet_spectral_function(sym2):
    phi = neg_logdet_fn()
    spec = FiniteSet(points=[[2.0, 1.0], [3.0, 0.5], [1.0, -1.0]])
    c = sym_coords(np.diag([0.1, 0.1]))
    rep = reduce_solve_linear(sym2, c, spec, phi=phi, sense="min")
    # (1,-1) has phi = +inf; minimum among the rest
    vals = {(2.0, 1.0): 0.1 * 3 - math.log(2.0),
            (3.0, 0.5): 0.1 * 3.5 - math.log(1.5)}
    assert rep.optimal_value == pytest.approx(min(vals.values()))


def test_product_combiner_and_monotonicity_abort(rn2):
    spec = FiniteSet(points=[[2.0, 1.0], [3.0, 0.0]])
    phi_pos = SpectralFunctionSpec(phi=lambda q: 1.0 + q[0] ** 2)
    rep = reduce_solve_linear(rn2, np.array([1.0, 1.0]), spec, phi=phi_pos,
                              combiner=PRODUCT, sense="max")
    assert rep.optimal_value == pytest.approx(max(3.0 * 5.0, 3.0 * 10.0))

    phi_neg = SpectralFunctionSpec(phi=lambda q: -1.0)
    with pytest.raises(MonotonicityError):
        reduce_solve_linear(rn2, np.array([1.0, 1.0]), spec, phi=phi_neg,
                            combiner=PRODUCT, sense="max")


def test_permutation_invariant_shortcut(rn3):
    # optimizing over Q, its sorted image, or its full orbit gives one value
    rng = np.random.default_rng(6)
    base = rng.standard_normal((3, 3))
    full = np.array([p for q in base for p in brute_orbit_rn(q)])
    c = rng.standard_normal(3)
    rep_full = reduce_solve_linear(rn3, c, FiniteSet(points=full), sense="max")
    rep_flag = reduce_solve_linear(rn3, c, FiniteSet(points=base,
                                                     permutation_invariant=True),
                                   sense="max")
    sorted_pts = np.array([sort_desc(q) for q in base])
    rep_sorted = reduce_solve_linear(rn3, c, FiniteSet(points=sorted_pts), sense="max")
    assert rep_full.optimal_value == pytest.approx(rep_flag.optimal_value)
    assert rep_full.optimal_value == pytest.approx(rep_sorted.optimal_value)


def test_attainment_transfer(rn3, sym2):
    # whenever the W-side optimum is attained, the lifted point matches it and
    # carries a positive commutation verdict
    rng = np.random.default_rng(7)
    for inst in (rn3, sym2):
        for sense in ("max", "min"):
            q1 = sort_desc(rng.standard_normal(inst.dim_w))
            q2 = sort_desc(rng.standard_normal(inst.dim_w))
            spec = FiniteSet(points=[q1, q2])
            c = inst.draw(rng)
            rep = reduce_solve_linear(inst, c, spec, sense=sense)
            assert rep.attained
            assert rep.reduction_gap <= 1e-9
            assert rep.commutation.verdict
            rep = reduce_solve_distance(inst, c, spec, sense=sense)
            assert rep.attained
            assert rep.reduction_gap <= 1e-9
            assert rep.commutation.verdict


def test_envelope_examples(rn2):
    pieces = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), 0.0)]
    q = np.array([1.0, -1.0])
    assert envelope_upper(rn2, pieces, q) == pytest.approx(1.0)
    assert envelope_lower_affine(rn2, pieces, q) == pytest.approx(-1.0)
    val, exact = envelope_lower_exact(rn2, lambda x: abs(x[0]), q)
    assert exact and val == pytest.approx(1.0)

    # single affine piece: equals the orbit maximum of the linear function
    single = [(np.array([2.0, -1.0]), 0.5)]
    expect = float(np.dot(rn2.lam(np.array([2.0, -1.0])), q)) + 0.5
    assert envelope_upper(rn2, single, q) == pytest.approx(expect)

    # h = ||x||^2 is constant on orbits
    val, _ = envelope_lower_exact(rn2, lambda x: float(np.dot(x, x)), q)
    assert val == pytest.approx(2.0)


def test_envelope_sandwich_and_representation_independence(rn3):
    rng = np.random.default_rng(8)
    pieces = [(rng.standard_normal(3), float(rng.standard_normal())) for _ in range(4)]
    h = lambda x: max(np.dot(c, x) + a for c, a in pieces)
    # an equivalent representation with duplicated and perturbed-order pieces
    pieces_b = [pieces[2], pieces[0], pieces[1], pieces[3], pieces[1]]
    for _ in range(12):
        q = sort_desc(rng.standard_normal(3))
        up = envelope_upper(rn3, pieces, q)
        lo_aff = envelope_lower_affine(rn3, pieces, q)
        lo, exact = envelope_lower_exact(rn3, h, q)
        assert exact
        assert lo_aff <= lo + 1e-9
        assert lo <= up + 1e-9
        assert envelope_upper(rn3, pieces_b, q) == pytest.approx(up)
        # oracle: brute-force orbit max equals the upper envelope
        brute = max(h(x) for x in brute_orbit_rn(q))
        assert up == pytest.approx(brute, abs=1e-9)


def test_orbit_min_heuristic_path(sym2):
    rng = np.random.default_rng(9)
    u = sym2.draw(rng)
    q = sym2.lam(u)
    h = lambda x: float(x[0])  # the (0,0) entry of the matrix
    value, x, exact = orbit_min(sym2, h, q, seed=1)
    assert not exact
    assert np.linalg.norm(sym2.lam(x) - q) <= 1e-3 * (1 + np.linalg.norm(q))
    # the top-left entry of any matrix with spectrum q is at least lambda_min
    assert value >= q[-1] - 1e-3


def test_hausdorff_examples(rn2):
    e = FiniteSet(points=[[2.0, 0.0]])
    f = FiniteSet(points=[[1.0, 0.0]])
    assert hausdorff_spectral(rn2, e, f) == pytest.approx(1.0)
    assert hausdorff_spectral(rn2, e, e) == 0.0

    e = FiniteSet(points=[[1.0, 1.0]])
    f = FiniteSet(points=[[3.0, 1.0], [1.0, 0.0]])
    assert hausdorff_spectral(rn2, e, f) == pytest.approx(2.0)

    with pytest.raises(ValueError):
        hausdorff_spectral(rn2, FiniteSet(points=[[0.0, 1.0]]), f)


def test_hausdorff_matches_orbit_expansion(rn3):
    rng = np.random.default_rng(10)
    for _ in range(10):
        qe = [sort_desc(rng.standard_normal(3)) for _ in range(2)]
        qf = [sort_desc(rng.standard_normal(3)) for _ in range(3)]
        w_side = hausdorff_spectral(rn3, FiniteSet(points=qe), FiniteSet(points=qf))
        ve = np.vstack([brute_orbit_rn(q) for q in qe])
        vf = np.vstack([brute_orbit_rn(q) for q in qf])
        d = np.linalg.norm(ve[:, None, :] - vf[None, :, :], axis=2)
        v_side = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert w_side == pytest.approx(v_side, abs=1e-10)


def test_interval_image(sym2, rn3):
    rng = np.random.default_rng(11)
    c = sym2.draw(rng)
    u = sym2.draw(rng)
    box = interval_image(sym2, c, OrbitOf(u))
    np.testing.assert_allclose(box.hi, np.dot(sym2.lam(c), sym2.lam(u)), atol=1e-9)
    np.testing.assert_allclose(box.lo, np.dot(np.sort(sym2.lam(c)), sym2.lam(u)),
                               atol=1e-9)
    assert box.report_lo.commutation.verdict
    assert box.report_hi.commutation.verdict
    assert box.lo <= box.hi

    with pytest.raises(ValueError):
        interval_image(rn3, np.ones(3), OrbitOf(np.ones(3)))

    c0 = np.zeros(sym2.dim_v)
    box = interval_image(sym2, c0, OrbitOf(u))
    assert box.lo == pytest.approx(0.0) and box.hi == pytest.approx(0.0)


def test_interval_image_needs_a_simple_algebra():
    from ftvn import get_instance
    # spin:1 is R^2, not simple: the orbit of u = (0, 1) is the two points
    # (0, +-1), so <c, x> for c = (0, 1) takes only the values -2 and 2
    spin1 = get_instance("spin:1")
    u = np.array([0.0, 1.0])
    assert sorted(spin1.inner_v(u, x) for x in ([0.0, 1.0], [0.0, -1.0])) == [-2.0, 2.0]
    with pytest.raises(ValueError):
        interval_image(spin1, u, OrbitOf(u))
    for name in ("rn:1", "sym:3", "spin:2"):
        inst = get_instance(name)
        x = inst.draw(np.random.default_rng(0))
        box = interval_image(inst, x, OrbitOf(x))
        assert box.lo <= box.hi
    product = get_instance("product:sym:2+spin:2")
    x = product.draw(np.random.default_rng(0))
    with pytest.raises(ValueError):
        interval_image(product, x, OrbitOf(x))
    # a one-part product is its part: sym:3, simple, with the same interval
    one, sym3 = get_instance("product:sym:3"), get_instance("sym:3")
    rng = np.random.default_rng(3)
    c, u = sym3.draw(rng), sym3.draw(rng)
    box, want = interval_image(one, c, OrbitOf(u)), interval_image(sym3, c, OrbitOf(u))
    assert (box.lo, box.hi) == (want.lo, want.hi) and box.lo < box.hi


def test_interval_image_spin():
    from ftvn import get_instance
    spin = get_instance("spin:4")
    rng = np.random.default_rng(15)
    c = spin.draw(rng)
    u = spin.draw(rng)
    box = interval_image(spin, c, OrbitOf(u))
    lc, lu = spin.lam(c), spin.lam(u)
    assert box.hi == pytest.approx(float(np.dot(lc, lu)))
    assert box.lo == pytest.approx(float(np.dot(np.sort(lc), lu)))
    pts = spin.sample_orbit(lu, rng, 400)
    vals = [spin.inner_v(c, x) for x in pts]
    assert min(vals) >= box.lo - 1e-8 and max(vals) <= box.hi + 1e-8


def test_interval_image_flagship(sym2):
    c = sym_coords(np.diag([1.0, -1.0]))
    spec = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0),
                                         ((1.0, 0.0), 2.0),
                                         ((0.0, -1.0), 0.0)))
    box = interval_image(sym2, c, spec)
    assert box.hi == pytest.approx(2.0, abs=1e-9)
    assert box.lo == pytest.approx(-2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# one decomposition per element per solve

def _bounded_box(k):
    # q_1 <= 3, q_k >= 0.5 and one cut: bounded, with nonnegative points
    return OrderedPolyhedron(halfspaces=((tuple(np.eye(k)[0]), 3.0),
                                         (tuple(-np.eye(k)[-1]), -0.5),
                                         (tuple(np.full(k, 1.0 / k)), 2.0)))


@pytest.mark.parametrize("name", ["sym:3", "svd:4x3", "svd:2x3"])
def test_three_decompositions_per_solve(name, monkeypatch):
    # the lift direction, the lifted point and their sum: one decomposition
    # each, whatever the route and the sense.  The kernel counted is the one
    # the instance decomposes with: Jacobi for sym, the LAPACK SVD for svd
    import ftvn.linalg
    import ftvn.nds
    module, attr = ((ftvn.nds, "svd_desc") if name.startswith("svd:")
                    else (ftvn.linalg, "jacobi_eigh"))
    real = getattr(module, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    inst = get_instance(name)
    box = _bounded_box(inst.dim_w)
    rng = np.random.default_rng(12)
    for solve in (reduce_solve_linear, reduce_solve_distance):
        for sense in ("max", "min"):
            calls.clear()
            rep = solve(inst, inst.project_element(rng.standard_normal(inst.dim_v)), box,
                        sense=sense)
            assert rep.commutation.verdict, (solve.__name__, sense)
            assert 1 <= len(calls) <= 3, (solve.__name__, sense, len(calls))
    pieces = tuple((inst.project_element(rng.standard_normal(inst.dim_v)), 0.1 * i)
                   for i in range(4))
    calls.clear()
    rep = reduce_solve(inst, MaxAffineObjective(pieces), box, sense="max")
    assert rep.solver_trace["method"] == "lp_per_piece" and rep.commutation.verdict
    assert 1 <= len(calls) <= len(pieces) + 2


def _frame_arrays(frame):
    if frame is None:
        return []
    if isinstance(frame, tuple):
        return list(frame)
    return [frame.idempotents]


@pytest.mark.parametrize("name", ["rn:4", "sym:3", "spin:3", "product:rn:2+sym:2", "svd:3x2"])
def test_certificate_equals_a_fresh_commute_check(name):
    # the engine reuses lam(d) and the frame of x + d; the certificate must
    # still be exactly the public check recomputed from scratch
    inst = get_instance(name)
    box = _bounded_box(inst.dim_w)
    rng = np.random.default_rng(21)
    for solve in (reduce_solve_linear, reduce_solve_distance):
        for sense in ("max", "min"):
            c = inst.project_element(rng.standard_normal(inst.dim_v))
            rep = solve(inst, c, box, sense=sense, seed=3)
            d = c if rep.commutes_with == "c" else -c
            fresh = commute_check(inst, rep.optimizer_v, d, 1e-8)
            got = rep.commutation
            for field in ("residual_inner", "residual_dist", "residual_addnorm",
                          "residual_addvec", "verdict"):
                assert getattr(got, field) == getattr(fresh, field), (solve.__name__, sense, field)
            np.testing.assert_array_equal(got.lam_x, fresh.lam_x)
            mine, theirs = _frame_arrays(got.witness), _frame_arrays(fresh.witness)
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", ["rn:4", "sym:3", "svd:4x3"])
def test_one_piece_max_affine_is_the_linear_solve(name):
    # a linear sup is the max-affine sup of the one piece (c, 0): the same
    # value, optimizer and certificate, bit for bit, over a polyhedron and
    # over a finite set; only the route label and commutes_with name differ
    inst = get_instance(name)
    rng = np.random.default_rng(31)
    points = np.abs(rng.standard_normal((4, inst.dim_w)))
    for spec in (_bounded_box(inst.dim_w), FiniteSet(points=points, permutation_invariant=True)):
        c = inst.project_element(rng.standard_normal(inst.dim_v))
        lin = reduce_solve_linear(inst, c, spec, sense="max")
        one = reduce_solve(inst, MaxAffineObjective(((c, 0.0),)), spec, sense="max")
        assert lin.solver_trace["method"] in ("lp_simplex", "exhaustive")
        label = {"lp_simplex": "lp_per_piece"}.get(lin.solver_trace["method"], "exhaustive")
        assert one.solver_trace == {**lin.solver_trace, "method": label}
        assert (lin.commutes_with, one.commutes_with) == ("c", "active piece")
        assert one.optimal_value == lin.optimal_value
        assert one.reduction_gap == lin.reduction_gap
        assert one.attained == lin.attained and not one.infeasible
        np.testing.assert_array_equal(one.optimizer_w, lin.optimizer_w)
        np.testing.assert_array_equal(one.optimizer_v, lin.optimizer_v)
        got, want = one.commutation, lin.commutation
        assert want.verdict
        for field in ("residual_inner", "residual_dist", "residual_addnorm",
                      "residual_addvec", "verdict"):
            assert getattr(got, field) == getattr(want, field), (name, field)
        np.testing.assert_array_equal(got.lam_x, want.lam_x)
        mine, theirs = _frame_arrays(got.witness), _frame_arrays(want.witness)
        assert len(mine) == len(theirs) > 0
        for a, b in zip(mine, theirs):
            np.testing.assert_array_equal(a, b)


def test_certificate_computes_lam_of_the_lift(sym3):
    # a rebuild that misses its target (twice the eigenvalues) shows in the
    # certificate: lam(x) is the decomposition of x, not the target q
    doubled = dataclasses.replace(sym3, rebuild=lambda q, frame: sym3.rebuild(2.0 * q, frame))
    c = sym3.project_element(np.random.default_rng(5).standard_normal(9))
    rep = reduce_solve_linear(doubled, c, _bounded_box(3), sense="max")
    lam_x = rep.commutation.lam_x
    np.testing.assert_array_equal(lam_x, sym3.lam(rep.optimizer_v))
    np.testing.assert_allclose(lam_x, 2.0 * rep.optimizer_w, atol=1e-12)
    assert not np.allclose(lam_x, rep.optimizer_w)
    assert rep.reduction_gap > 0.1


def test_direction_off_the_element_space_raises(sym3):
    # a flat sym:3 c that is not symmetric would solve as its symmetric part,
    # with no shared-frame witness for c itself: the library refuses it, with
    # the message the CLI gives for such an element
    c = np.random.default_rng(5).standard_normal(9)
    box = _bounded_box(3)
    message = "sym:3: element is not in the instance's element space"
    for solve in (reduce_solve_linear, reduce_solve_distance):
        with pytest.raises(ValueError, match=message):
            solve(sym3, c, box)
    pieces = ((sym3.project_element(c), 0.0), (c, 1.0))
    with pytest.raises(ValueError, match=message):
        reduce_solve(sym3, MaxAffineObjective(pieces), box)
    assert reduce_solve_linear(sym3, sym3.project_element(c), box).commutation.verdict


# ---------------------------------------------------------------------------
# emptiness is always decided

def _unknown_linprog(monkeypatch, first_only=True):
    real = ftvn.solvers._highs
    methods = []

    def unknown(*args, **kwargs):
        methods.append(kwargs["method"])
        if len(methods) == 1 or not first_only:
            return OptimizeResult(status=4, message="simulated unknown", x=None, fun=None, nit=3)
        return real(*args, **kwargs)

    monkeypatch.setattr(ftvn.solvers, "_highs", unknown)
    return methods


EMPTY2 = OrderedPolyhedron(halfspaces=(((1.0, 0.0), -1.0), ((0.0, -1.0), -1.0)))
BOX2 = OrderedPolyhedron(halfspaces=(((-1.0, 0.0), -1.0), ((1.0, 0.0), 2.0),
                                     ((0.0, -1.0), 0.0)))


def test_phase1_decides_when_highs_is_unknown(rn2, monkeypatch):
    # HiGHS's dual simplex ends "unknown" on the phase-1 LP; the LP has an
    # optimum, so the interior-point method decides it and nothing raises
    methods = _unknown_linprog(monkeypatch)
    rep = reduce_solve_distance(rn2, np.array([1.0, 2.0]), EMPTY2, sense="min")
    assert rep.infeasible and rep.solver_trace["method"] == "lp_phase1"
    assert "decided" not in rep.solver_trace
    assert methods == ["highs-ds", "highs-ipm"]

    # a nonempty set whose projection is not certified goes on to be solved
    methods = _unknown_linprog(monkeypatch)
    real_project = ftvn.reduce.project_polyhedron
    monkeypatch.setattr(ftvn.reduce, "project_polyhedron",
                        lambda w, a, b: (real_project(w, a, b)[0], False))
    rep = reduce_solve_distance(rn2, np.array([3.0, -1.0]), BOX2, sense="min")
    assert not rep.infeasible and not rep.attained
    np.testing.assert_allclose(rep.optimizer_w, [2.0, 0.0], atol=1e-12)
    assert methods == ["highs-ds", "highs-ipm"]


def test_phase1_undecided_by_highs_still_reports(rn2, monkeypatch):
    # both HiGHS methods undecided: the violation at the projector's point
    # settles the verdict, and the trace says it was not decided by the LP
    _unknown_linprog(monkeypatch, first_only=False)
    rep = reduce_solve_distance(rn2, np.array([1.0, 2.0]), EMPTY2, sense="min")
    assert rep.infeasible and rep.solver_trace == {"method": "lp_phase1", "iterations": 6,
                                                   "decided": False}
    real_project = ftvn.reduce.project_polyhedron
    monkeypatch.setattr(ftvn.reduce, "project_polyhedron",
                        lambda w, a, b: (real_project(w, a, b)[0], False))
    rep = reduce_solve_distance(rn2, np.array([3.0, -1.0]), BOX2, sense="min")
    assert not rep.infeasible
    np.testing.assert_allclose(rep.optimizer_w, [2.0, 0.0], atol=1e-12)


# objective, phi, combiner, sense -> the route reduce_solve reports over a
# finite, an orbit, a grid and a polyhedron set on rn:2.  "!M" and "!K" mark a
# route whose solve raises MonotonicityError (a product is not increasing in t
# where phi <= 0) or KeyError (the table phi lists only the finite points).
ROUTE_PINS = """
linear     zero       sum     max  exhaustive   orbit_closed_form   grid_scan   lp_simplex
linear     zero       sum     min  exhaustive   orbit_closed_form   grid_scan   lp_simplex
linear     zero       product max  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
linear     zero       product min  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
linear     neg_logdet sum     max  exhaustive   orbit_closed_form   grid_scan   projected_descent
linear     neg_logdet sum     min  exhaustive   orbit_closed_form   grid_scan   projected_descent
linear     neg_logdet product max  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent
linear     neg_logdet product min  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
linear     affine     sum     max  exhaustive   orbit_closed_form   grid_scan   lp_simplex
linear     affine     sum     min  exhaustive   orbit_closed_form   grid_scan   lp_simplex
linear     affine     product max  exhaustive   orbit_closed_form   grid_scan   projected_descent
linear     affine     product min  exhaustive   orbit_closed_form   grid_scan   projected_descent
linear     table      sum     max  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
linear     table      sum     min  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
linear     table      product max  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
linear     table      product min  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
distance   zero       sum     max  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   zero       sum     min  exhaustive   orbit_closed_form   grid_scan   dykstra_projection
distance   zero       product max  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
distance   zero       product min  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
distance   neg_logdet sum     max  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   neg_logdet sum     min  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   neg_logdet product max  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent
distance   neg_logdet product min  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
distance   affine     sum     max  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   affine     sum     min  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   affine     product max  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   affine     product min  exhaustive   orbit_closed_form   grid_scan   projected_descent
distance   table      sum     max  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
distance   table      sum     min  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
distance   table      product max  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
distance   table      product min  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
max_affine zero       sum     max  exhaustive   orbit_closed_form   grid_scan   lp_per_piece
max_affine zero       sum     min  exhaustive   orbit_closed_form   grid_scan   projected_descent
max_affine zero       product max  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
max_affine zero       product min  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
max_affine neg_logdet sum     max  exhaustive   orbit_closed_form   grid_scan   projected_descent
max_affine neg_logdet sum     min  exhaustive   orbit_closed_form   grid_scan   projected_descent
max_affine neg_logdet product max  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent
max_affine neg_logdet product min  exhaustive!M orbit_closed_form!M grid_scan!M projected_descent!M
max_affine affine     sum     max  exhaustive   orbit_closed_form   grid_scan   lp_per_piece
max_affine affine     sum     min  exhaustive   orbit_closed_form   grid_scan   projected_descent
max_affine affine     product max  exhaustive   orbit_closed_form   grid_scan   projected_descent
max_affine affine     product min  exhaustive   orbit_closed_form   grid_scan   projected_descent
max_affine table      sum     max  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
max_affine table      sum     min  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
max_affine table      product max  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
max_affine table      product min  exhaustive   orbit_closed_form   grid_scan!K projected_descent!K
"""
ROUTE_ERRORS = {"M": MonotonicityError, "K": KeyError}
ROUTE_PTS = np.array([[2.0, 1.0], [1.5, 0.5], [3.0, 0.25]])
ROUTE_OBJECTIVES = {"linear": LinearObjective(np.array([1.0, -0.5])),
                    "distance": DistanceObjective(np.array([2.0, -1.0])),
                    "max_affine": MaxAffineObjective(((np.array([1.0, -0.5]), 0.0),
                                                      (np.array([-0.3, 0.8]), 0.2)))}
ROUTE_PHIS = {"zero": ZERO_FN, "neg_logdet": neg_logdet_fn(),
              "affine": SpectralFunctionSpec(phi=lambda q: 0.5 * q[0] - 0.25 * q[1] + 1.0,
                                             affine=((0.5, -0.25), 1.0)),
              "table": table_fn(ROUTE_PTS, [1.0, 2.0, 3.0])}
ROUTE_COMBINERS = {"sum": SUM, "product": PRODUCT}
ROUTE_SETS = (FiniteSet(points=ROUTE_PTS), OrbitOf(np.array([1.0, 2.0])),
              GridOracle(membership=lambda q: q[0] + q[1] <= 4.0,
                         box=np.array([[0.5, 2.5], [0.5, 2.5]]), resolution=5),
              OrderedPolyhedron(halfspaces=(((1.0, 0.0), 2.5), ((0.0, -1.0), -0.5))))


def test_route_table_pins_every_combination(rn2):
    # every combination by the table's predicates; end to end, the first
    # combination each route covers
    first = {}
    for line in ROUTE_PINS.strip().splitlines():
        obj, phi, comb, sense, *outcomes = line.split()
        parts = (ROUTE_OBJECTIVES[obj], ROUTE_PHIS[phi], ROUTE_COMBINERS[comb])
        for spec, outcome in zip(ROUTE_SETS, outcomes):
            ws = _WSide(rn2, parts[0], spec, parts[1], parts[2], sense, 1e-8, 0)
            label = next(label for label, applies, _ in _ROUTES if applies(ws))
            assert label == outcome.split("!")[0], (line, outcome)
            first.setdefault(label, (parts, spec, sense, outcome))
    assert sorted(first) == sorted(label for label, _, _ in _ROUTES)
    for label, ((objective, phi, comb), spec, sense, outcome) in first.items():
        solve = lambda: reduce_solve(rn2, objective, spec, phi, comb, sense)
        if "!" in outcome:
            with pytest.raises(ROUTE_ERRORS[outcome[-1]]):
                solve()
        else:
            assert solve().solver_trace["method"] == label
