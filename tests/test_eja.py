import itertools

import numpy as np
import pytest

from ftvn import DimensionMismatch, commute_check
from ftvn.eja import (algebra_from_name, idempotent_orbit_max,
                      majorization_check, operator_commute_check, q_cap_qdown,
                      sigma_orbit, sort_desc, sym_coords)

from conftest import random_symmetric


@pytest.fixture(scope="module")
def algebras():
    return {name: algebra_from_name(name)
            for name in ("rn:3", "sym:2", "sym:3", "spin:2", "product:rn:2+spin:2+sym:2")}


def test_jordan_axioms_sampled(algebras):
    # commutative product, Jordan identity, unit, trace compatibility
    rng = np.random.default_rng(0)
    for alg in algebras.values():
        for _ in range(20):
            x = alg.instance.draw(rng)
            y = alg.instance.draw(rng)
            xy = alg.jordan_product(x, y)
            np.testing.assert_allclose(xy, alg.jordan_product(y, x), atol=1e-12)
            x2 = alg.jordan_product(x, x)
            lhs = alg.jordan_product(x, alg.jordan_product(x2, y))
            rhs = alg.jordan_product(x2, alg.jordan_product(x, y))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(x).max() ** 3))
            np.testing.assert_allclose(alg.jordan_product(alg.unit, x), x, atol=1e-12)
            # <x,y> = tr(x o y): trace = sum of eigenvalues = <unit, x o y>
            assert alg.inner(x, y) == pytest.approx(alg.inner(alg.unit, xy), abs=1e-8)
    for alg in algebras.values():
        assert alg.inner(alg.unit, alg.unit) == pytest.approx(alg.rank)


def test_spectral_decompose_sym2_hand_value():
    alg = algebra_from_name("sym:2")
    eigs, _ = alg.instance.spectral(sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(eigs, [1.0, -1.0], atol=1e-12)


def test_spectral_decompose_spin_closed_form():
    alg = algebra_from_name("spin:2")
    x = np.array([1.0, 1.0, 0.0])  # x0=1, xbar=(1,0)
    eigs, _ = alg.instance.spectral(x)
    np.testing.assert_allclose(eigs, [2.0, 0.0], atol=1e-14)
    assert alg.inner(x, x) == pytest.approx(4.0)  # trace-norm^2 = 2(x0^2+|xbar|^2)


def test_unit_decomposes_to_ones(algebras):
    for alg in algebras.values():
        eigs, _ = alg.instance.spectral(alg.unit)
        np.testing.assert_allclose(eigs, 1.0, atol=1e-12)


def test_decompose_reconstructs(algebras):
    rng = np.random.default_rng(3)
    for alg in algebras.values():
        inst = alg.instance
        for _ in range(15):
            x = inst.draw(rng)
            eigs, frame = inst.spectral(x)
            rebuilt = inst.rebuild(eigs, frame)
            assert alg.norm(x - rebuilt) <= 1e-9 * (1 + alg.norm(x))
            assert np.all(np.diff(eigs) <= 1e-12)
            # frame orthonormality under the trace inner product
            for i in range(alg.rank):
                for j in range(alg.rank):
                    expect = 1.0 if i == j else 0.0
                    assert alg.inner(frame[i], frame[j]) == pytest.approx(expect, abs=1e-9)
                np.testing.assert_allclose(
                    alg.jordan_product(frame[i], frame[i]), frame[i], atol=1e-9)
            np.testing.assert_allclose(frame.sum(axis=0), alg.unit, atol=1e-9)


def test_frame_degeneracy_by_perturbation():
    # witness constructions stay valid under eigenvalue ties: compare against
    # the eps-perturbed matrix x + eps*I
    alg = algebra_from_name("sym:3")
    x = sym_coords(np.diag([2.0, 2.0, -1.0]))
    eps = 1e-6
    eigs, frame = alg.instance.spectral(x)
    eigs_pert, _ = alg.instance.spectral(x + eps * alg.unit)
    np.testing.assert_allclose(eigs_pert - eps, eigs, atol=1e-9)
    rebuilt = alg.instance.rebuild(eigs, frame)
    assert alg.norm(x - rebuilt) <= 1e-9


def test_spin_degenerate_axis_default():
    # zero spatial part: any frame is valid; the default axis must still give
    # an orthonormal reconstructing frame
    alg = algebra_from_name("spin:3")
    x = np.array([2.0, 0.0, 0.0, 0.0])
    eigs, frame = alg.instance.spectral(x)
    np.testing.assert_allclose(eigs, [2.0, 2.0])
    rebuilt = alg.instance.rebuild(eigs, frame)
    assert alg.norm(x - rebuilt) <= 1e-12
    assert alg.inner(frame[0], frame[1]) == pytest.approx(0.0, abs=1e-12)


def test_build_from_frame_examples():
    rn = algebra_from_name("rn:3").instance
    _, frame = rn.spectral(np.array([5.0, 1.0, 3.0]))
    np.testing.assert_allclose(rn.rebuild(np.zeros(3), frame), 0.0)
    x = rn.rebuild(np.array([1.0, 3.0, 2.0]), np.eye(3))
    np.testing.assert_allclose(x, [1.0, 3.0, 2.0])
    np.testing.assert_allclose(rn.lam(x), [3.0, 2.0, 1.0])

    sym = algebra_from_name("sym:2").instance
    _, frame = sym.spectral(sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]])))
    y = sym.rebuild(np.array([5.0, -5.0]), frame)
    np.testing.assert_allclose(y.reshape(2, 2), [[0.0, 5.0], [5.0, 0.0]], atol=1e-10)

    with pytest.raises(ValueError):
        sym.rebuild(np.ones(3), frame)


def test_a3_witness_examples():
    rn = algebra_from_name("rn:3")
    x = rn.instance.a3_witness(np.array([3.0, 1.0, 2.0]), np.array([1.0, 0.0, -1.0]))
    np.testing.assert_allclose(x, [1.0, -1.0, 0.0])
    # enumeration oracle over all 6 permutations confirms the maximum
    c = np.array([3.0, 1.0, 2.0])
    vals = [np.dot(c, np.array(p)) for p in itertools.permutations([1.0, 0.0, -1.0])]
    assert np.dot(c, x) == pytest.approx(max(vals))

    sym = algebra_from_name("sym:2")
    w = sym.instance.a3_witness(sym_coords(np.diag([1.0, -1.0])), np.array([2.0, 0.0]))
    np.testing.assert_allclose(w.reshape(2, 2), np.diag([2.0, 0.0]), atol=1e-12)
    assert sym.inner(sym_coords(np.diag([1.0, -1.0])), w) == pytest.approx(2.0)

    # c = unit: any frame works, the inner product is the coefficient total
    q = np.array([0.5, 0.2])
    w = sym.instance.a3_witness(sym.unit, q)
    assert sym.inner(sym.unit, w) == pytest.approx(q.sum())


def test_a3_witness_rejects_unsorted():
    rn = algebra_from_name("rn:3")
    from ftvn import WitnessError
    with pytest.raises(WitnessError):
        rn.instance.a3_witness(np.ones(3), np.array([0.0, 1.0, -1.0]))


def test_strong_commute_examples(rn2):
    cert = commute_check(algebra_from_name("rn:2").instance,
                         np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert not cert.verdict

    sym = algebra_from_name("sym:2").instance
    x = sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cert = commute_check(sym, x, 2 * x)
    assert cert.verdict
    # witness frame: idempotent rows that rebuild both elements in eigen-order
    frame = cert.witness
    assert isinstance(frame, np.ndarray) and frame.shape == (2, 4)
    np.testing.assert_allclose(sym.lam(x) @ frame, x, atol=1e-8)
    np.testing.assert_allclose(sym.lam(2 * x) @ frame, 2 * x, atol=1e-8)


def test_strong_commute_same_frame_builds(algebras):
    rng = np.random.default_rng(8)
    for alg in algebras.values():
        inst = alg.instance
        _, frame = inst.spectral(inst.draw(rng))
        p = sort_desc(rng.standard_normal(alg.rank))
        q = sort_desc(rng.standard_normal(alg.rank))
        cert = commute_check(inst, inst.rebuild(p, frame), inst.rebuild(q, frame))
        assert cert.verdict


def test_operator_commute_examples():
    rn = algebra_from_name("rn:2")
    assert operator_commute_check(rn, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    sym = algebra_from_name("sym:2")
    x = sym_coords(np.diag([1.0, 2.0]))
    y = sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not operator_commute_check(sym, x, y)
    # oracle: the plain matrix commutator
    xm, ym = x.reshape(2, 2), y.reshape(2, 2)
    assert np.abs(xm @ ym - ym @ xm).max() > 0.5

    rng = np.random.default_rng(4)
    z = sym.instance.draw(rng)
    z2 = sym.jordan_product(z, z)
    assert operator_commute_check(sym, z, z2)


def test_operator_vs_strong_split():
    # operator commutativity ignores eigen-order; strong does not
    rn = algebra_from_name("rn:2")
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert operator_commute_check(rn, a, b)
    assert not commute_check(rn.instance, a, b).verdict


def test_perm_helpers():
    np.testing.assert_allclose(sort_desc([1.0, 3.0, 2.0]), [3.0, 2.0, 1.0])

    cap = q_cap_qdown([[1.0, 2.0], [2.0, 1.0]])
    np.testing.assert_allclose(cap, [[2.0, 1.0]])

    cap = q_cap_qdown([[1.0, 1.0]])
    np.testing.assert_allclose(cap, [[1.0, 1.0]])
    np.testing.assert_allclose(sigma_orbit([[1.0, 1.0]]), [[1.0, 1.0]])

    # no sorted member: the induced spectral set is empty
    assert q_cap_qdown([[0.0, 1.0]]).shape[0] == 0

    orb = sigma_orbit([[1.0, 0.0]])
    assert orb.shape[0] == 2

    with pytest.raises(ValueError):
        sigma_orbit([np.arange(9.0)])


def test_majorization_examples(algebras):
    rn = algebra_from_name("rn:3")
    rep = majorization_check(rn, np.array([1.0, 0.0, -1.0]), np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(rep.prefix_gaps, [2.0, 2.0])
    assert rep.trace_gap == pytest.approx(0.0)
    assert rep.ok

    rep = majorization_check(rn, np.array([1.0, 2.0, 3.0]), np.zeros(3))
    np.testing.assert_allclose(rep.prefix_gaps, 0.0, atol=1e-12)

    rng = np.random.default_rng(1)
    for alg in algebras.values():
        for _ in range(25):
            assert majorization_check(alg, alg.instance.draw(rng), alg.instance.draw(rng)).ok


def test_idempotent_orbit_max():
    rn = algebra_from_name("rn:3")
    value, idem = idempotent_orbit_max(rn, np.array([1.0, 2.0, 3.0]), 1)
    assert value == pytest.approx(3.0)
    np.testing.assert_allclose(idem, [0.0, 0.0, 1.0])

    sym = algebra_from_name("sym:2")
    c = sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]]))
    value, idem = idempotent_orbit_max(sym, c, 1)
    assert value == pytest.approx(1.0)
    np.testing.assert_allclose(sym.jordan_product(idem, idem), idem, atol=1e-10)

    value, _ = idempotent_orbit_max(sym, c, 2)
    assert value == pytest.approx(0.0, abs=1e-12)  # k = rank: the trace

    with pytest.raises(ValueError):
        idempotent_orbit_max(sym, c, 3)


def test_wrong_length_elements_raise_dimension_mismatch():
    sym = algebra_from_name("sym:2")
    with pytest.raises(DimensionMismatch, match="sym:2: element has length 3, expected 4"):
        idempotent_orbit_max(sym, np.ones(3), 1)
    rn = algebra_from_name("rn:3")
    with pytest.raises(DimensionMismatch, match="rn:3: element has length 2, expected 3"):
        majorization_check(rn, np.ones(3), np.ones(2))


def test_fan_theobald_equality_iff_strong_commute(sym3):
    rng = np.random.default_rng(12)
    alg = algebra_from_name("sym:3")
    for _ in range(30):
        x = alg.instance.draw(rng)
        y = alg.instance.draw(rng)
        ip = alg.inner(x, y)
        bound = float(np.dot(alg.instance.lam(x), alg.instance.lam(y)))
        assert ip <= bound + 1e-9
        cert = commute_check(alg.instance, x, y)
        assert cert.verdict == (abs(ip - bound) <= 1e-7 * (1 + alg.norm(x) * alg.norm(y)))


def test_product_merges_and_adds_norms():
    alg = algebra_from_name("product:rn:2+spin:2+sym:2")
    rng = np.random.default_rng(6)
    parts = [algebra_from_name("rn:2"), algebra_from_name("spin:2"), algebra_from_name("sym:2")]
    for _ in range(10):
        xs = [p.instance.draw(rng) for p in parts]
        x = np.concatenate(xs)
        merged = np.concatenate([p.instance.lam(xi) for p, xi in zip(parts, xs)])
        np.testing.assert_allclose(alg.instance.lam(x), sort_desc(merged), atol=1e-10)
        assert alg.norm(x) ** 2 == pytest.approx(sum(p.norm(xi) ** 2
                                                     for p, xi in zip(parts, xs)))


def test_sym_eigendecomposition_oracle():
    alg = algebra_from_name("sym:3")
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_symmetric(rng, 3)
        mine = alg.instance.lam(sym_coords(m))
        oracle = np.sort(np.linalg.eigvalsh(m))[::-1]
        np.testing.assert_allclose(mine, oracle, atol=1e-10 * (1 + np.abs(m).max()))
