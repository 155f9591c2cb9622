import dataclasses

import numpy as np
import pytest

from ftvn import MonotonicityError, get_instance
from ftvn.spectral_sets import (FiniteSet, GridOracle, OrbitOf,
                                OrderedPolyhedron, PRODUCT, SUM,
                                SpectralFunctionSpec, ZERO_FN, generator_point,
                                image_candidates, membership_w, neg_logdet_fn,
                                probe_monotone, table_fn, tabulated_combiner)


def test_finite_set_dedups():
    spec = FiniteSet(points=[[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert spec.points.shape == (2, 2)


@pytest.mark.parametrize("points", [[], [[]], np.zeros(0), np.zeros((0, 0))])
def test_empty_finite_set_without_width_is_refused(points):
    # an empty list carries no width, and a set of width 0 is no set of W
    with pytest.raises(ValueError, match=r"^an empty finite set needs its width: "
                                         r"give a \(0, dim_w\) array$"):
        FiniteSet(points=points)


def test_empty_finite_set_of_given_width(rn2):
    # the form serialize builds from "points": []: nothing is a member
    spec = FiniteSet(points=np.zeros((0, 2)))
    assert spec.points.shape == (0, 2)
    assert not membership_w(spec, rn2, np.array([1.0, 0.0]))
    assert image_candidates(spec, rn2).shape == (0, 2)


def test_polyhedron_within_highs_limits():
    # the largest sizes HiGHS takes as they are are accepted; one step
    # further is refused before any LP sees it
    OrderedPolyhedron.from_halfspaces((((9.99e14, -9.99e14), 9.99e19), ((0.0, 1.0), -9.99e19)))
    for normal, offset in [((1e15, 0.0), 1.0), ((0.0, -1e15), 1.0),
                           ((1.0, 0.0), 1e20), ((1.0, 0.0), -1e20)]:
        with pytest.raises(ValueError, match="halfspace 1 is past the LP solver's limits"):
            OrderedPolyhedron.from_halfspaces((((1.0, 0.0), 1.0), (normal, offset)))


def test_polyhedron_arrays():
    # one (m, n) normal array and one offset vector, read-only
    spec = OrderedPolyhedron(np.array([[1.0, 0.0], [0.0, -1.0]]), [2.0, 0.0])
    assert spec.dim == 2 and spec.normals.shape == (2, 2) and spec.offsets.shape == (2,)
    assert not spec.normals.flags.writeable and not spec.offsets.flags.writeable
    with pytest.raises(ValueError, match="at least one halfspace"):
        OrderedPolyhedron(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="one offset per normal"):
        OrderedPolyhedron(np.eye(2), [1.0])
    with pytest.raises(ValueError, match="halfspace 1 is past the LP solver's limits"):
        OrderedPolyhedron(np.array([[1.0, 0.0], [np.nan, 0.0]]), [1.0, 1.0])


def test_generator_coordinates():
    # q = T d with T upper triangular of ones: the rows a T are the plain
    # prefix sums, 9e14 entries too (solve_lp fits them to HiGHS), the
    # offsets are the set's, and q comes back exactly ordered
    rng = np.random.default_rng(5)
    normals = rng.standard_normal((4, 5))
    normals[1] *= 3e3
    normals[2] = 9e14
    spec = OrderedPolyhedron(normals, rng.standard_normal(4))
    a_d, b_d = spec.generator_rows()
    t = np.triu(np.ones((5, 5)))
    np.testing.assert_allclose(a_d, normals @ t, rtol=1e-15)
    assert np.array_equal(b_d, spec.offsets)
    d = np.array([0.5, -1e-17, 0.0, 2.0, -3.0])
    q = generator_point(d)
    assert np.all(np.diff(q) <= 0.0)
    np.testing.assert_array_equal(q, t @ np.array([0.5, 0.0, 0.0, 2.0, -3.0]))


def test_image_candidates_filters_to_image(rn2):
    spec = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    cands = image_candidates(spec, rn2)
    assert sorted(map(tuple, cands)) == [(1.0, 0.0), (2.0, -1.0)]

    pi = FiniteSet(points=[[0.0, 1.0]], permutation_invariant=True)
    np.testing.assert_allclose(image_candidates(pi, rn2), [[1.0, 0.0]])


def test_image_candidates_respects_instance_cone():
    from ftvn import get_instance
    svd = get_instance("svd:2x2")
    spec = FiniteSet(points=[[2.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
    cands = image_candidates(spec, svd)
    np.testing.assert_allclose(cands, [[2.0, 1.0]])  # sorted and nonnegative only


def test_membership_w(rn2):
    fin = FiniteSet(points=[[1.0, 0.0]])
    assert membership_w(fin, rn2, np.array([1.0, 0.0]))
    assert not membership_w(fin, rn2, np.array([0.0, 1.0]))
    pi = FiniteSet(points=[[1.0, 0.0]], permutation_invariant=True)
    assert membership_w(pi, rn2, np.array([0.0, 1.0]))

    poly = OrderedPolyhedron.from_halfspaces((((1.0, 0.0), 2.0),))
    assert membership_w(poly, rn2, np.array([1.0, 0.5]))
    assert not membership_w(poly, rn2, np.array([3.0, 0.0]))
    assert not membership_w(poly, rn2, np.array([0.0, 1.0]))  # violates the cone

    orb = OrbitOf(np.array([2.0, 1.0]))
    assert membership_w(orb, rn2, np.array([2.0, 1.0]))
    assert not membership_w(orb, rn2, np.array([2.0, 0.0]))


def test_grid_oracle_guards():
    with pytest.raises(ValueError):
        GridOracle(membership=lambda q: True, box=[[0, 1]], resolution=1)
    big = GridOracle(membership=lambda q: True,
                     box=[[0, 1]] * 4, resolution=50)
    with pytest.raises(ValueError):
        big.grid_points()  # 50^4 > cap
    small = GridOracle(membership=lambda q: True, box=[[0.0, 1.0]], resolution=3)
    np.testing.assert_allclose(small.grid_points().ravel(), [0.0, 0.5, 1.0])


def test_combiners():
    assert SUM.fn(2.0, 3.0) == 5.0
    assert PRODUCT.fn(2.0, 3.0) == 6.0
    tab = tabulated_combiner([0.0, 1.0, 2.0], [0.0, 1.0],
                             [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert tab.fn(0.5, 0.0) == pytest.approx(1.0)    # midway between 0 and 2
    assert tab.fn(1.0, 0.5) == pytest.approx(2.5)
    probe_monotone(tab, 0.0, 2.0, [0.0, 1.0])        # increasing table: fine


def test_probe_monotone_aborts():
    probe_monotone(SUM, -5.0, 5.0, [0.0, 1.0, -3.0])
    probe_monotone(PRODUCT, 0.0, 4.0, [1.0, 2.0])
    with pytest.raises(MonotonicityError):
        probe_monotone(PRODUCT, 0.0, 4.0, [0.0])     # constant in t
    with pytest.raises(MonotonicityError):
        probe_monotone(PRODUCT, 0.0, 4.0, [-1.0])    # decreasing in t


def test_spectral_function_specs():
    assert ZERO_FN(np.array([1.0, 2.0])) == 0.0
    assert ZERO_FN.affine_parts(2)[1] == 0.0
    np.testing.assert_allclose(ZERO_FN.affine_parts(2)[0], 0.0)

    nl = neg_logdet_fn()
    assert nl(np.array([1.0, 1.0])) == 0.0
    assert nl(np.array([1.0, -1.0])) == np.inf
    assert nl.affine_parts(2) is None

    tab = table_fn([[1.0, 0.0]], [7.0])
    assert tab(np.array([1.0, 0.0])) == 7.0
    with pytest.raises(KeyError):
        tab(np.array([5.0, 5.0]))


def test_custom_phi_orbit_invariance(rn3):
    # a spectral function built from phi is constant on sampled orbits
    phi = SpectralFunctionSpec(phi=lambda q: float(np.sum(q ** 3)))
    rng = np.random.default_rng(0)
    u = rn3.draw(rng)
    q = rn3.lam(u)
    pts = rn3.sample_orbit(q, rng, 50)
    vals = {round(phi(rn3.lam(x)), 10) for x in pts}
    assert len(vals) == 1


def test_image_filters_make_one_stacked_call():
    # a finite set's and a grid's image filter test all points in one
    # image_contains call, and keep the points in order
    inst = get_instance("svd:3x2")
    calls = []

    def counting(q, tol):
        calls.append(np.shape(q))
        return inst.image_contains(q, tol)

    counted = dataclasses.replace(inst, image_contains=counting)
    pts = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, -0.5], [3.0, 0.0]])
    np.testing.assert_array_equal(image_candidates(FiniteSet(points=pts), counted),
                                  [[2.0, 1.0], [3.0, 0.0]])
    assert calls == [(4, 2)]
    calls.clear()
    grid = GridOracle(membership=lambda q: q[0] <= 1.0, box=np.array([[0.0, 2.0], [0.0, 2.0]]),
                      resolution=3)
    np.testing.assert_array_equal(image_candidates(grid, counted),
                                  [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert calls == [(9, 2)]
