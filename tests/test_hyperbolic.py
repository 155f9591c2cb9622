import numpy as np
import pytest

from ftvn import axiom_suite, get_instance
from ftvn.eja import algebra_from_name, sym_coords
from ftvn.hyperbolic import (DegenerateLeadingCoefficient, HyperbolicPolynomial,
                             NonHyperbolicError, completeness_check,
                             coordinate_product_polynomial, det_sym_polynomial,
                             hyperbolic_from_json, isometric_falsify, mat_to_svec,
                             svec_to_mat)

from conftest import random_symmetric


def test_coordinate_product_roots():
    hp = coordinate_product_polynomial(3)
    np.testing.assert_allclose(hp.lam(np.array([3.0, 1.0, 2.0])),
                               [3.0, 2.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(hp.lam(np.zeros(3)), 0.0)


def test_det_sym2_hand_value():
    hp = det_sym_polynomial(2)
    x = mat_to_svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(hp.lam(x), [1.0, -1.0], atol=1e-9)


def test_det_roots_match_eigensolver():
    # independent route: the Jacobi-based spectral decomposition
    alg = algebra_from_name("sym:3")
    hp = det_sym_polynomial(3)
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = random_symmetric(rng, 3)
        np.testing.assert_allclose(hp.lam(mat_to_svec(m)),
                                   alg.instance.lam(sym_coords(m)), atol=1e-8)


def test_homogeneity_and_norm_preservation():
    hp = det_sym_polynomial(2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(3)
        alpha = abs(rng.standard_normal())
        np.testing.assert_allclose(hp.lam(alpha * x),
                                   alpha * hp.lam(x), atol=1e-8)
        # svec scaling makes the flat norm the Frobenius norm = root norm
        assert np.linalg.norm(hp.lam(x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-8)


def test_svec_roundtrip():
    rng = np.random.default_rng(2)
    m = random_symmetric(rng, 3)
    np.testing.assert_allclose(svec_to_mat(mat_to_svec(m), 3), m, atol=1e-14)
    assert np.dot(mat_to_svec(m), mat_to_svec(m)) == pytest.approx(np.sum(m * m))


def test_rejects_non_hyperbolic():
    # x1^2 + x2^2 has complex roots along e = (1, 0)
    hp = HyperbolicPolynomial(dim=2, degree=2,
                              evaluator=lambda v: float(v[0] ** 2 + v[1] ** 2),
                              direction_e=np.array([1.0, 0.0]), name="sum-sq")
    with pytest.raises(NonHyperbolicError):
        hp.lam(np.array([0.0, 1.0]))


def test_rejects_degenerate_direction():
    with pytest.raises(DegenerateLeadingCoefficient):
        HyperbolicPolynomial(dim=2, degree=2,
                             evaluator=lambda v: float(v[0] * v[1]),
                             direction_e=np.array([1.0, 0.0]), name="bad-e")


def test_completeness_examples():
    # x1*x2 on R^3: (0,0,1) is a nonzero null direction
    hp = HyperbolicPolynomial(dim=3, degree=2,
                              evaluator=lambda v: float(v[0] * v[1]),
                              direction_e=np.array([1.0, 1.0, 0.0]), name="x1x2")
    rep = completeness_check(hp, seed=3, n_restarts=12)
    assert not rep.complete
    assert rep.min_ratio <= 1e-9
    assert abs(rep.candidate[2]) > 0.99

    rep = completeness_check(coordinate_product_polynomial(3), seed=3, n_restarts=8)
    assert rep.complete

    rep = completeness_check(det_sym_polynomial(2), seed=3, n_restarts=8)
    assert rep.complete


def test_gram_matches_known_inner_products():
    hp = coordinate_product_polynomial(3)
    np.testing.assert_allclose(hp.gram, np.eye(3), atol=1e-8)
    hd = det_sym_polynomial(2)
    np.testing.assert_allclose(hd.gram, np.eye(3), atol=1e-8)


def test_additivity_search_trivial_y_zero():
    # y = 0: the warm start z is already additive, so the gap closes at once
    from ftvn.hyperbolic import orbit_additivity_search
    hp = det_sym_polynomial(2)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(3)
    x, resid = orbit_additivity_search(hp, np.zeros(3), hp.lam(z), rng,
                                       n_starts=1, seeds=[z])
    assert resid <= 1e-10
    gap = np.linalg.norm(hp.lam(x + 0) - hp.lam(x))
    assert gap <= 1e-10


def test_isometric_falsifier_finds_witnesses():
    iso = isometric_falsify(coordinate_product_polynomial(2), seed=5,
                            n_samples=3, n_starts=8, tol=1e-8)
    assert iso.max_gap <= 1e-8
    assert not iso.counterexample_candidate

    iso = isometric_falsify(det_sym_polynomial(2), seed=5,
                            n_samples=2, n_starts=8, tol=1e-6)
    assert iso.max_gap <= 1e-6


def test_axiom_suite_on_hyperbolic_instance():
    inst = coordinate_product_polynomial(2).as_instance()
    rep = axiom_suite(inst, seed=9, n_samples=24)
    assert rep.a1_max <= 1e-8
    assert rep.a2_violation <= 1e-8
    assert rep.a3_max_inner_residual <= 1e-4   # witness is a numerical search


def test_custom_monomials_json():
    hp = hyperbolic_from_json({
        "kind": "custom_monomials", "n": 2, "e": [1.0, 1.0],
        "monomials": [{"coef": 1.0, "powers": [1, 1]}]})
    np.testing.assert_allclose(hp.lam(np.array([2.0, 5.0])),
                               [5.0, 2.0], atol=1e-9)
    assert hyperbolic_from_json({"kind": "coordinate_product", "n": 3}).degree == 3
    assert hyperbolic_from_json({"kind": "det_sym", "n": 2}).dim == 3
    with pytest.raises(KeyError):
        hyperbolic_from_json({"kind": "nope"})


@pytest.mark.parametrize("make, n", [(det_sym_polynomial, 3), (coordinate_product_polynomial, 4)])
def test_stock_witnesses_rebuild_on_the_frame(make, n):
    # the stock polynomials carry their decomposition, which gives the
    # instance its lam: the polynomial's root map agrees with the hooks, and
    # the A3 witness is exact
    hp = make(n)
    inst = hp.as_instance()
    assert inst.witness_is_exact
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.standard_normal(hp.dim)
        eigs, _ = inst.spectral(x)
        np.testing.assert_allclose(hp.lam(x), eigs, rtol=0, atol=1e-10 * (1 + np.linalg.norm(x)))
        c = rng.standard_normal(hp.dim)
        q = hp.lam(rng.standard_normal(hp.dim))
        w = inst.a3_witness(c, q)
        np.testing.assert_allclose(hp.lam(w), q, rtol=0, atol=1e-10 * (1 + np.linalg.norm(q)))
        assert inst.inner_v(c, w) == pytest.approx(float(np.dot(hp.lam(c), q)), abs=1e-9)


def test_detsym_axiom_suite_is_exact():
    # a witness is one eigendecomposition or sort, no search, and lam comes
    # from the same decomposition, so A3-lambda holds to roundoff at degree 6
    for name, n_samples in (("hyp:detsym:3", 300), ("hyp:prod:6", 1000)):
        rep = axiom_suite(get_instance(name), seed=42, n_samples=n_samples)
        assert rep.passed and rep.a3_failures == 0 and rep.notes == (), name
        assert rep.a3_max_lambda_residual <= 1e-12, name


def test_custom_polynomial_keeps_the_search():
    hp = hyperbolic_from_json({
        "kind": "custom_monomials", "n": 2, "e": [1.0, 1.0],
        "monomials": [{"coef": 1.0, "powers": [1, 1]}]})
    inst = hp.as_instance()
    assert not inst.witness_is_exact and inst.decompose is None
    w = inst.a3_witness(np.array([1.0, -1.0]), np.array([3.0, 1.0]))
    np.testing.assert_allclose(hp.lam(w), [3.0, 1.0], atol=1e-5)
