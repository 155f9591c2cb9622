import itertools

import numpy as np
import pytest

from ftvn import WitnessError, axiom_suite, commute_check, get_instance
from ftvn.nds import RectMatrixSpace, rotation_instance, z_counterexample_instance


@pytest.fixture(scope="module")
def space22():
    return RectMatrixSpace(2, 2)


def test_singular_map_examples(space22):
    np.testing.assert_allclose(space22.instance.lam(np.zeros(4)), 0.0)
    np.testing.assert_allclose(
        space22.instance.lam(space22.coords(np.array([[0.0, 3.0], [0.0, 0.0]]))),
        [3.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        space22.instance.lam(space22.coords(np.diag([1.0, -2.0]))),
        [2.0, 1.0], atol=1e-12)


def test_singular_map_properties():
    rng = np.random.default_rng(0)
    for (m, n) in [(2, 2), (3, 2), (4, 3)]:
        space = RectMatrixSpace(m, n)
        for _ in range(15):
            x = rng.standard_normal((m, n))
            s = space.instance.lam(x.ravel())
            assert np.all(s >= -1e-12)
            assert np.all(np.diff(s) <= 1e-12)
            assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(x))
            # transposition symmetry
            st = RectMatrixSpace(n, m).instance.lam(x.T.ravel())
            np.testing.assert_allclose(s, st, atol=1e-10)
            # gamma is idempotent
            g = space.gamma(x.ravel())
            np.testing.assert_allclose(space.gamma(g.ravel()), g, atol=1e-10)


def test_nds_a3_witness_examples(space22):
    x = space22.instance.a3_witness(space22.coords(np.eye(2)), np.array([2.0, 1.0]))
    np.testing.assert_allclose(x.reshape(2, 2), np.diag([2.0, 1.0]), atol=1e-10)
    assert np.dot(space22.coords(np.eye(2)), x) == pytest.approx(3.0)

    c = space22.coords(np.array([[1.0, 0.0], [0.0, 0.0]]))
    w = space22.instance.a3_witness(c, np.array([3.0, 0.0]))
    assert np.dot(c, w) == pytest.approx(3.0)
    # sampled orthogonal pairs never beat the bound
    rng = np.random.default_rng(1)
    pts = space22.instance.sample_orbit(np.array([3.0, 0.0]), rng, 400)
    assert np.max(pts @ c) <= 3.0 + 1e-9

    np.testing.assert_allclose(space22.instance.a3_witness(c, np.zeros(2)), 0.0, atol=1e-12)

    with pytest.raises(WitnessError):
        space22.instance.a3_witness(c, np.array([1.0, 2.0]))  # not sorted
    with pytest.raises(WitnessError):
        space22.instance.a3_witness(c, np.array([1.0, -2.0]))  # negative


def test_von_neumann_inequality(space22):
    rng = np.random.default_rng(2)
    for _ in range(40):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert np.dot(x, y) <= np.dot(space22.instance.lam(x),
                                      space22.instance.lam(y)) + 1e-9


def test_nds_commute_examples(space22):
    x = space22.coords(np.diag([2.0, 1.0]))
    assert commute_check(space22.instance, x, x).verdict

    y = space22.coords(np.diag([1.0, 2.0]))
    cert = commute_check(space22.instance, x, y)
    assert not cert.verdict
    assert cert.residual_inner == pytest.approx(1.0)  # <X,Y>=4 vs <(2,1),(2,1)>=5

    z = space22.coords(np.diag([4.0, 2.0]))
    cert = commute_check(space22.instance, x, z)
    assert cert.verdict
    u, v = cert.witness
    np.testing.assert_allclose(
        (u @ np.diag(space22.instance.lam(x)) @ v.T).ravel(), x, atol=1e-8)
    np.testing.assert_allclose(
        (u @ np.diag(space22.instance.lam(z)) @ v.T).ravel(), z, atol=1e-8)


def test_nds_commute_witness_with_zero_singular_values(space22):
    # rank-deficient commuting pair: the shared SVD pair must still rebuild
    # both matrices (exercises null-space basis completion)
    x = space22.coords(np.diag([1.0, 0.0]))
    y = space22.coords(np.diag([2.0, 0.0]))
    cert = commute_check(space22.instance, x, y)
    assert cert.verdict
    u, v = cert.witness
    np.testing.assert_allclose(
        (u @ np.diag(space22.instance.lam(x)) @ v.T).ravel(), x, atol=1e-9)
    np.testing.assert_allclose(
        (u @ np.diag(space22.instance.lam(y)) @ v.T).ravel(), y, atol=1e-9)


def test_rotation_instance():
    rot = rotation_instance()
    rng = np.random.default_rng(3)
    for _ in range(30):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert commute_check(rot, x, y).verdict
        assert np.linalg.norm(rot.lam(x)) == pytest.approx(np.linalg.norm(x))
    # not idempotent: applying the map twice differs from once
    probe = np.array([1.0, 0.0])
    assert np.linalg.norm(rot.lam(rot.lam(probe)) - rot.lam(probe)) > 0.5
    # witness is exact for any target
    q = np.array([0.3, -2.0])
    w = rot.a3_witness(np.array([1.0, 1.0]), q)
    np.testing.assert_allclose(rot.lam(w), q, atol=1e-14)
    # R is the frame of every element, so a commuting pair carries it as
    # the shared frame; a target outside R^2 is no eigenvalue vector
    cert = commute_check(rot, probe, q)
    assert cert.verdict and cert.witness is not None
    with pytest.raises(WitnessError):
        rot.a3_witness(probe, np.array([1.0, 0.0, 0.0]))


def test_z_counterexample_a1_a2_pass_a3_fails():
    z = z_counterexample_instance()
    rep = axiom_suite(z.instance, seed=11, n_samples=128)
    assert rep.a1_max <= 1e-10
    assert rep.a2_violation <= 1e-10
    assert rep.homogeneity_max <= 1e-10
    assert not rep.passed            # A3 residuals are genuine violations
    assert rep.a3_worst_gap >= 0.1


def test_z_witness_trivial_case():
    z = z_counterexample_instance()
    c = z.embed(np.array([2.0, 0.0]))  # multiple of (3,2,1): sorted coordinates
    q = np.sort(c)[::-1]
    search = z.witness_search(c, q)
    assert search.gap == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(np.sort(search.x)[::-1], q, atol=1e-12)


def test_z_witness_positive_gap_pair():
    z = z_counterexample_instance()
    rng = np.random.default_rng(5)
    normal = np.array([0.0, -1.0, 2.0]) / np.sqrt(5.0)
    best = 0.0
    for _ in range(40):
        c = z.instance.draw(rng)
        q = np.sort(z.instance.draw(rng))[::-1]
        search = z.witness_search(c, q)
        assert search.gap >= -1e-9         # never beats the trace bound
        # brute force: the best of the 6 permutations of q lying in the plane
        # spanned by (3,2,1) and (-1,0,0), whose normal is (0,-1,2)/sqrt(5)
        feasible = [np.array(p) for p in itertools.permutations(q)
                    if abs(np.dot(p, normal)) <= 1e-9 * (1.0 + np.linalg.norm(q))]
        brute = max(float(np.dot(c, p)) for p in feasible)
        assert float(np.dot(c, search.x)) == pytest.approx(brute, abs=1e-12)
        assert search.gap == pytest.approx(float(np.dot(np.sort(c)[::-1], q)) - brute,
                                           abs=1e-12)
        best = max(best, search.gap)
    assert best >= 0.1                     # the gap is exact: nothing to subtract


def test_z_feasible_points_are_exact():
    z = z_counterexample_instance()
    rng = np.random.default_rng(7)
    x = z.instance.draw(rng)
    q = np.sort(x)[::-1]
    pts = z.feasible_points(q)
    assert pts.shape[0] >= 1
    for p in pts:
        assert z.contains(p)
        np.testing.assert_allclose(np.sort(p)[::-1], q, atol=1e-12)


def test_rect_space_transposed_construction():
    wide = RectMatrixSpace(2, 4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 4))
    s = wide.instance.lam(x.ravel())
    np.testing.assert_allclose(s, np.linalg.svd(x, compute_uv=False), atol=1e-10)
    assert wide.instance.dim_w == 2


def test_svd_instance_orbit_bound():
    inst = get_instance("svd:3x2")
    rng = np.random.default_rng(13)
    c = inst.draw(rng)
    u = inst.draw(rng)
    bound = float(np.dot(inst.lam(c), inst.lam(u)))
    pts = inst.sample_orbit(inst.lam(u), rng, 400)
    assert np.max(pts @ c) <= bound + 1e-9
    w = inst.a3_witness(c, inst.lam(u))
    assert np.dot(c, w) == pytest.approx(bound)
