import itertools

import numpy as np
import pytest

from ftvn import commute_check, get_instance
from ftvn.eja import algebra_from_name, operator_commute_check, sort_desc
from ftvn.reduce import (local_min_commutation_check, orbit_linear,
                         subdiff_min_commutation_check, vi_commutation_check)
from ftvn.spectral_sets import FiniteSet, GridOracle, OrbitOf, OrderedPolyhedron

from conftest import brute_orbit_rn, reference_orbit_sample


def test_vi_solution_commutes(rn3):
    # constant field c: VI solutions are exactly the argmins of <c, x> over E
    rng = np.random.default_rng(0)
    c = rn3.draw(rng)
    u = sort_desc(rng.standard_normal(3))
    spec = FiniteSet(points=[u])
    pts = brute_orbit_rn(u)
    a = pts[int(np.argmin(pts @ c))]
    rep = vi_commutation_check(rn3, lambda x: c, spec, a)
    assert rep.exact
    assert rep.vi_residual >= -1e-9
    assert rep.cert.verdict
    assert rep.consistent


def test_vi_non_solution_flagged(rn2):
    spec = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0]])
    a = np.array([1.0, 0.0])
    rep = vi_commutation_check(rn2, lambda x: x, spec, a)  # G = identity
    assert rep.vi_residual == pytest.approx(-1.0)
    assert rep.consistent  # negative residual: no commutation requirement
    np.testing.assert_allclose(rep.worst_point, [0.0, 1.0])


def test_vi_zero_field_always_solves(sym2):
    rng = np.random.default_rng(1)
    u = sym2.draw(rng)
    spec = OrbitOf(u)
    rep = vi_commutation_check(sym2, lambda x: np.zeros(4), spec, u)
    assert rep.vi_residual >= -1e-12
    assert rep.cert.verdict  # zero commutes with everything


def test_vi_membership_precondition(rn2):
    spec = FiniteSet(points=[[1.0, 0.0]])
    with pytest.raises(ValueError):
        vi_commutation_check(rn2, lambda x: x, spec, np.array([5.0, 5.0]))


def test_vi_from_orbit_linear_min(sym2):
    # the orbit minimizer of <c, .> solves the VI for the constant field c
    rng = np.random.default_rng(2)
    c = sym2.draw(rng)
    u = sym2.draw(rng)
    a = orbit_linear(sym2, c, u, "min").optimizer_v
    rep = vi_commutation_check(sym2, lambda x: c, OrbitOf(u), a, seed=3)
    assert rep.vi_residual >= -1e-8
    assert rep.cert.verdict


def test_vi_polyhedron_constant_field(rn2):
    # a spectral set over a bounded polyhedron: the global minimizer of a
    # linear function solves the VI for the constant field, and commutes
    from ftvn.reduce import reduce_solve_linear
    spec = OrderedPolyhedron.from_halfspaces((((1.0, 0.0), 1.0), ((0.0, -1.0), 1.0)))
    c = np.array([2.0, 0.5])
    a = reduce_solve_linear(rn2, c, spec, sense="min").optimizer_v
    rep = vi_commutation_check(rn2, lambda x: c, spec, a, seed=5, tol=1e-6)
    assert rep.vi_residual >= -1e-6
    assert rep.cert.verdict


def test_local_min_linear_over_ball(rn2):
    # h = <c, x> over the unit ball (a spectral set since ||lam x|| = ||x||):
    # the minimizer is -c/||c|| and it commutes with -c
    c = np.array([1.0, 2.0])
    a = -c / np.linalg.norm(c)
    ball = GridOracle(membership=lambda q: np.linalg.norm(q) <= 1.0,
                      box=[[-1.0, 1.0], [-1.0, 1.0]], resolution=21)
    rep = local_min_commutation_check(rn2, lambda x: float(np.dot(c, x)), ball, a)
    np.testing.assert_allclose(rep.gradient, c, atol=1e-6)
    assert rep.cert.verdict
    assert rep.probe_min_delta >= -1e-9


def test_local_min_radial_dim1():
    rn1 = get_instance("rn:1")
    a = np.array([0.7])
    rep = local_min_commutation_check(rn1, lambda x: float(np.dot(x, x)), OrbitOf(a), a)
    np.testing.assert_allclose(rep.gradient, 2 * a, atol=1e-6)
    assert rep.cert.verdict  # dim-1: everything commutes


def test_local_min_negative_control_finite_set(rn2):
    # two-point set (not convex): gradients swap the points, so strong
    # commutation fails even though operator commutation holds
    def h(v):
        x, y = v
        return 0.5 * x * x - x + x * (y * y + y)

    a = np.array([1.0, 0.0])
    spec = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0]])
    rep = local_min_commutation_check(rn2, h, spec, a)
    np.testing.assert_allclose(rep.gradient, [0.0, 1.0], atol=1e-6)
    assert not commute_check(rn2, a, rep.gradient).verdict
    assert operator_commute_check(algebra_from_name("rn:2"), a, rep.gradient)
    assert h(a) == pytest.approx(-0.5)


def test_local_min_spin_inner_product_gradient():
    # the representer must account for the doubled trace inner product
    spin = get_instance("spin:2")
    c = np.array([1.0, 0.5, -0.2])

    def h(x):
        return spin.inner_v(c, x)  # differential v -> <c, v>, representer c

    a = spin.draw(np.random.default_rng(3))
    rep = local_min_commutation_check(spin, h, OrbitOf(a), a)
    np.testing.assert_allclose(rep.gradient, c, atol=1e-6)


def test_subdiff_affine_piece_reduces_to_linear(rn2):
    # single piece: c unique; minimizer of <c, .> over the orbit commutes with -c
    rng = np.random.default_rng(4)
    c = rng.standard_normal(2)
    u = rng.standard_normal(2)
    a = orbit_linear(rn2, c, u, "min").optimizer_v
    rep = subdiff_min_commutation_check(rn2, [(c, 0.0)], OrbitOf(u), a)
    assert rep.c_found is not None
    np.testing.assert_allclose(rep.c_found, c)
    assert rep.cert.verdict


def test_subdiff_abs_x1_at_interior(rn2):
    # h(x) = |x1| minimized on the vertical segment: 0 is a subgradient and
    # commutes with everything
    pieces = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), 0.0)]
    a = np.array([0.0, 0.5])
    ball = GridOracle(membership=lambda q: np.linalg.norm(q) <= 1.0,
                      box=[[-1.0, 1.0], [-1.0, 1.0]], resolution=21)
    rep = subdiff_min_commutation_check(rn2, pieces, ball, a)
    assert rep.c_found is not None
    np.testing.assert_allclose(rep.c_found, [0.0, 0.0], atol=1e-12)
    assert rep.cert.verdict
    assert set(rep.active_indices) == {0, 1}


def test_subdiff_max_coordinate(rn2):
    # h(x) = max(x1, x2) on the zero-trace segment: the minimizer (-t, t)
    # needs a strict convex combination of the active gradients
    pieces = [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0)]
    t = 0.5
    a = np.array([t, -t])  # sorted representative of the minimizing orbit
    seg = FiniteSet(points=[[t, -t]])
    rep = subdiff_min_commutation_check(rn2, pieces, seg, a, tol=1.0)
    # with both pieces forced active, some grid combination commutes with -a
    assert rep.c_found is not None
    assert rep.cert.verdict


# seeds where 16 x 64 sampled orbit points read as a VI solution (residual
# >= 0) while the minimum over E is below -1e-6
VI_SAMPLED_FALSE_SOLUTIONS = (6, 31, 36, 38, 45, 47, 48, 56)


def _vi_problem(s):
    """A box plus 2 cuts a.q <= a.p + 0.3 around a sorted point p, a constant
    field g, and a = the lift of the max solve of a drawn c."""
    from ftvn.reduce import reduce_solve_linear
    inst = get_instance(["rn:3", "rn:4", "sym:3", "sym:4", "svd:3x2", "spin:3"][s % 6])
    rng = np.random.default_rng(s)
    n = inst.dim_w
    p = sort_desc(rng.uniform(0.5, 2, n))
    top, bottom = np.zeros(n), np.zeros(n)
    top[0], bottom[-1] = 1.0, -1.0
    halfspaces = [(top, 3.0), (bottom, -0.1)]
    for _ in range(2):
        a = rng.standard_normal(n)
        halfspaces.append((a, float(a @ p + 0.3)))
    c = inst.draw(rng)
    g = inst.draw(rng)
    spec = OrderedPolyhedron.from_halfspaces(tuple(halfspaces))
    a = reduce_solve_linear(inst, c, spec, sense="max").optimizer_v
    return inst, spec, p, g, a


def _permuted_copies_lp_min(g, spec):
    # E on rn:n is the union of the n! permuted copies of the ordered
    # polyhedron Q {q : A q <= b}; a copy is {x : A[:, sigma] x <= b}
    from scipy.optimize import linprog
    n = g.size
    rows = list(spec.normals)
    offsets = list(spec.offsets)
    for i in range(n - 1):
        row = np.zeros(n)
        row[i], row[i + 1] = -1.0, 1.0
        rows.append(row)
        offsets.append(0.0)
    a_ub, b_ub = np.array(rows), np.array(offsets)
    best = np.inf
    for sigma in itertools.permutations(range(n)):
        res = linprog(g, A_ub=a_ub[:, list(sigma)], b_ub=b_ub, bounds=[(None, None)] * n,
                      method="highs")
        if res.status == 0:
            best = min(best, res.fun)
    return best


def test_vi_residual_is_the_minimum_over_E():
    for s in range(60):
        inst, spec, p, g, a = _vi_problem(s)
        rep = vi_commutation_check(inst, lambda x: g, spec, a, seed=s)
        if s in VI_SAMPLED_FALSE_SOLUTIONS:
            assert rep.exact and rep.vi_residual < -1e-6, s
        if not rep.exact:
            continue
        assert rep.consistent, s
        scale = 1.0 + inst.norm_v(g) * (1.0 + inst.norm_v(a))
        # the residual is attained at worst_point, which lies in E
        x = rep.worst_point
        assert inst.inner_v(g, x - a) == pytest.approx(rep.vi_residual, abs=1e-9 * scale)
        a_ub, b_ub = spec.rows()
        assert np.all(a_ub @ inst.lam(x) <= b_ub + 1e-9)
        # no orbit point of the reference sampler beats it
        rng = np.random.default_rng([s, 1])
        for q in (p, inst.lam(a), inst.lam(x)):
            for y in reference_orbit_sample(inst, q, rng, 64):
                assert inst.inner_v(g, y - a) >= rep.vi_residual - 1e-9 * scale, s
        if inst.name.startswith("rn:"):
            exact = _permuted_copies_lp_min(g, spec) - float(g @ a)
            assert rep.vi_residual == pytest.approx(exact, abs=1e-9 * scale), s
