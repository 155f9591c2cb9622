import collections
import dataclasses
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ftvn import (DimensionMismatch, axiom_suite, commute_check,
                  cone_sum_witness, get_instance, lambda_tilde,
                  norm_sublinearity_gap, registered_instances, sublinearity_gap)
from ftvn.core import ElementV, FtvnInstance
from ftvn.eja import sort_desc
from ftvn.hyperbolic import hyperbolic_from_json

from conftest import reference_orbit_sample


def test_lambda_tilde_is_increasing_rearrangement(rn2, rn3):
    # oracle: -sort_desc(-c) computed by hand
    np.testing.assert_allclose(lambda_tilde(rn2, np.array([1.0, 2.0])), [1.0, 2.0])
    np.testing.assert_allclose(lambda_tilde(rn3, np.array([3.0, 2.0, 1.0])), [1.0, 2.0, 3.0])


def test_lambda_tilde_zero(rn3, sym2):
    np.testing.assert_allclose(lambda_tilde(rn3, np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(lambda_tilde(sym2, np.zeros(4)), np.zeros(2))


def test_commute_check_examples(rn2):
    cert = commute_check(rn2, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert cert.verdict
    assert cert.residual_inner == 0.0
    assert cert.residual_addvec == 0.0

    cert = commute_check(rn2, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert not cert.verdict
    assert cert.residual_inner == pytest.approx(2.0)


def test_commute_self_always(sym3):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = sym3.draw(rng)
        cert = commute_check(sym3, x, x)
        assert cert.verdict


def test_commute_dimension_mismatch(rn2):
    with pytest.raises(DimensionMismatch):
        commute_check(rn2, np.ones(3), np.ones(2))


def test_four_residuals_rise_and_fall_together(sym2, spin4):
    # constructed commuting pairs: all residuals ~0; generic: all clearly positive
    rng = np.random.default_rng(11)
    for inst in (sym2, spin4):
        for _ in range(40):
            u = inst.draw(rng)
            q1 = -np.sort(-rng.standard_normal(inst.dim_w))
            q2 = -np.sort(-rng.standard_normal(inst.dim_w))
            x = inst.a3_witness(u, q1)
            y_com = inst.a3_witness(x, q2)  # shares x's frame
            cert = commute_check(inst, x, y_com)
            assert cert.verdict
            assert max(cert.residual_dist, cert.residual_addnorm,
                       cert.residual_addvec) <= 1e-7
            x2, y2 = inst.draw(rng), inst.draw(rng)
            cert2 = commute_check(inst, x2, y2)
            verdicts = [cert2.residual_inner <= 1e-7 * (1 + inst.norm_v(x2) * inst.norm_v(y2)),
                        cert2.residual_dist <= 1e-7 * (1 + inst.norm_v(x2) + inst.norm_v(y2)),
                        cert2.residual_addnorm <= 1e-7 * (1 + inst.norm_v(x2) + inst.norm_v(y2)),
                        cert2.residual_addvec <= 1e-7 * (1 + inst.norm_v(x2) + inst.norm_v(y2))]
            assert len(set(verdicts)) == 1


def test_commute_with_minus_c_distance_form(rn3):
    # x commutes with -c  <=>  <c,x> = <tilde-lam c, lam x>  <=>  the distances match
    rng = np.random.default_rng(23)
    for _ in range(60):
        c = rn3.draw(rng)
        x = rn3.draw(rng)
        cert = commute_check(rn3, x, -c)
        ip_match = abs(np.dot(c, x) - np.dot(lambda_tilde(rn3, c), rn3.lam(x))) <= 1e-9
        dist_match = abs(np.linalg.norm(c - x)
                         - np.linalg.norm(lambda_tilde(rn3, c) - rn3.lam(x))) <= 1e-9
        assert cert.verdict == ip_match == dist_match


def test_lipschitz_sandwich(sym3):
    rng = np.random.default_rng(7)
    for _ in range(40):
        c = sym3.draw(rng)
        x = sym3.draw(rng)
        lo = sym3.norm_w(sym3.lam(c) - sym3.lam(x))
        mid = sym3.norm_v(c - x)
        hi = sym3.norm_w(lambda_tilde(sym3, c) - sym3.lam(x))
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9


def test_sublinearity_examples(rn3):
    c = np.array([1.0, 0.0, 0.0])
    x = np.array([1.0, 0.0, -1.0])
    y = np.array([-1.0, 0.0, 1.0])
    assert sublinearity_gap(rn3, c, x, y) == pytest.approx(2.0)
    assert sublinearity_gap(rn3, c, x, np.zeros(3)) == pytest.approx(0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arrays(np.float64, (3, 4), elements=st.floats(-100, 100)))
def test_core_inequalities_hypothesis(vecs):
    # A2 and sublinearity as universal properties of the sorting map
    inst = get_instance("rn:4")
    c, x, y = vecs
    scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(y)
    assert np.dot(x, y) <= np.dot(inst.lam(x), inst.lam(y)) + 1e-9 * scale
    cscale = 1.0 + np.linalg.norm(c) * (np.linalg.norm(x) + np.linalg.norm(y))
    assert sublinearity_gap(inst, c, x, y) >= -1e-9 * cscale
    cert = commute_check(inst, x, y)
    assert cert.residual_addvec >= cert.residual_addnorm - 1e-9 * scale


def test_sublinearity_nonnegative_random(sym3):
    rng = np.random.default_rng(3)
    for _ in range(50):
        c, x, y = (sym3.draw(rng) for _ in range(3))
        assert sublinearity_gap(sym3, c, x, y) >= -1e-9
        assert norm_sublinearity_gap(sym3, x, y) >= -1e-9


def test_cone_sum_witness(rn2, sym2):
    rng = np.random.default_rng(9)
    u = rn2.a3_witness(rn2.draw(rng), np.array([1.0, 0.0]))
    v = rn2.a3_witness(rn2.draw(rng), np.array([3.0, -1.0]))
    z = cone_sum_witness(rn2, u, v)
    np.testing.assert_allclose(rn2.lam(z), [4.0, -1.0], atol=1e-12)

    for _ in range(10):
        a, b = sym2.draw(rng), sym2.draw(rng)
        z = cone_sum_witness(sym2, a, b)
        np.testing.assert_allclose(sym2.lam(z), sym2.lam(a) + sym2.lam(b), atol=1e-8)
    u = sym2.draw(rng)
    z = cone_sum_witness(sym2, u, u)
    np.testing.assert_allclose(sym2.lam(z), 2 * sym2.lam(u), atol=1e-8)


def test_orbit_samples_never_beat_trace_bound(sym2):
    # sampled falsification of the orbit-maximum property
    rng = np.random.default_rng(17)
    c = sym2.draw(rng)
    u = sym2.draw(rng)
    bound = float(np.dot(sym2.lam(c), sym2.lam(u)))
    pts = sym2.sample_orbit(sym2.lam(u), rng, 500)
    vals = pts @ c
    assert np.max(vals) <= bound + 1e-8
    witness = sym2.a3_witness(c, sym2.lam(u))
    assert sym2.inner_v(c, witness) == pytest.approx(bound, abs=1e-9)
    # distance form of the same statement
    dists = np.linalg.norm(pts - u[None, :], axis=1)
    assert np.min(np.linalg.norm(pts - c[None, :], axis=1)) >= \
        np.linalg.norm(sym2.lam(c) - sym2.lam(u)) - 1e-8


def test_axiom_suite_exact_instance(rn3):
    rep = axiom_suite(rn3, seed=123, n_samples=500)
    assert rep.passed
    assert rep.a1_max <= 1e-10
    assert rep.a2_violation <= 1e-10
    assert rep.a3_max_inner_residual <= 1e-10


def test_axiom_suite_records_seed(rn3):
    rep1 = axiom_suite(rn3, seed=5, n_samples=50)
    rep2 = axiom_suite(rn3, seed=5, n_samples=50)
    assert rep1 == rep2
    assert rep1.seed == 5


def test_axiom_suite_lam_calls(monkeypatch):
    # one kernel call per batch: the samples, whose lam and frames serve A1,
    # A2 and the A3 witnesses, then alpha x, -x and the witnesses.  Only the
    # samples' call builds a frame: the Jacobi kernel serves the other three
    # as eigvalsh_desc, and svd makes its one full LAPACK call each time.  On
    # an instance with the hooks the lam field is never called
    jacobi = {"ftvn.eja.eigh_desc": 1, "ftvn.eja.eigvalsh_desc": 3}
    cases = [("sym:4", jacobi), ("svd:4x3", {"ftvn.nds.svd_desc": 4}),
             ("product:rn:3+sym:3", jacobi)]
    for name, expected_calls in cases:
        inst = get_instance(name)
        expected = axiom_suite(inst, seed=9, n_samples=25)
        lam_calls = []
        kernel_calls = collections.Counter()

        def counting(x):
            lam_calls.append(1)
            return inst.lam(x)

        with monkeypatch.context() as m:
            for kernel in ("ftvn.eja.eigh_desc", "ftvn.eja.eigvalsh_desc", "ftvn.nds.svd_desc"):
                module, attr = kernel.rsplit(".", 1)
                original = getattr(importlib.import_module(module), attr)

                def counting_kernel(*args, original=original, kernel=kernel):
                    kernel_calls[kernel] += 1
                    return original(*args)

                m.setattr(kernel, counting_kernel)
            rep = axiom_suite(dataclasses.replace(inst, lam=counting), seed=9, n_samples=25)
        assert len(lam_calls) == 0, name
        assert sum(kernel_calls.values()) == 4, name
        assert kernel_calls == expected_calls, name
        assert rep == expected, name


def test_decompose_hook_calls_per_batch():
    # a 100-sample suite decomposes four stacks of 100 rows (one call per
    # sample and batch would be 400), and only the first builds a frame; an
    # orbit sample decomposes one stack, with its frame
    inst = get_instance("svd:4x3")
    calls = []

    def counting(x, frames=True):
        calls.append((np.shape(x), frames))
        return inst.decompose(x, frames=frames)

    counted = dataclasses.replace(inst, decompose=counting)
    assert axiom_suite(counted, seed=4, n_samples=100) == axiom_suite(inst, seed=4, n_samples=100)
    assert calls == [((100, 12), True)] + [((100, 12), False)] * 3
    calls.clear()
    q = np.array([3.0, 2.0, 0.5])
    pts = counted.sample_orbit(q, np.random.default_rng(6), 64)
    assert calls == [((64, 12), True)]
    np.testing.assert_array_equal(pts, inst.sample_orbit(q, np.random.default_rng(6), 64))


def test_axiom_suite_lam_per_row_without_hooks():
    # z-counterexample has no decomposition: one lam call per row of each batch
    inst = get_instance("z-counterexample")
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return inst.lam(x)

    rep = axiom_suite(dataclasses.replace(inst, lam=counting), seed=2, n_samples=20)
    assert rep == axiom_suite(inst, seed=2, n_samples=20)
    assert calls == [(3,)] * (4 * 20)


HOOK_INSTANCES = ["rn:4", "sym:3", "spin:3", "product:rn:2+sym:2+spin:2", "svd:3x2",
                  "svd:2x3", "rot90", "hyp:prod:3", "hyp:detsym:3"]


@pytest.mark.parametrize("name", HOOK_INSTANCES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_decompose_matches_single_calls(name, data):
    # row i of a stacked decomposition is the decomposition of row i alone,
    # bit for bit: its eigenvalues, and a target rebuilt on its frame.
    # frames=False, and lam, which is that call, give the same eigenvalues
    # bit for bit and no frame, on the stack and on each row
    inst = get_instance(name)
    k = data.draw(st.integers(1, 6), label="k")
    xs = data.draw(arrays(np.float64, (k, inst.dim_v), elements=st.floats(-1e3, 1e3)),
                   label="xs")
    xs = np.array([inst.project_element(x) for x in xs])
    eigs, frame = inst.decompose(xs)
    assert eigs.shape == (k, inst.dim_w)
    bare, no_frame = inst.spectral(xs, frames=False)
    assert no_frame is None and bare.tobytes() == eigs.tobytes()
    singles = [inst.spectral(x) for x in xs]
    targets = np.roll(eigs, -1, axis=0)
    rebuilt = inst.rebuild(targets, frame)
    assert rebuilt.shape == (k, inst.dim_v)
    for i, (e, single_frame) in enumerate(singles):
        assert eigs[i].tobytes() == e.tobytes(), i
        assert rebuilt[i].tobytes() == inst.rebuild(targets[i], single_frame).tobytes(), i
        single_bare, no_frame = inst.spectral(xs[i], frames=False)
        assert no_frame is None and single_bare.tobytes() == e.tobytes(), i
        assert inst.lam(xs[i]).tobytes() == e.tobytes(), i


@pytest.mark.parametrize("name", HOOK_INSTANCES + ["z-counterexample"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_hooks_match_single_calls(name, data):
    # project_element, inner_v, image_contains and rebuild on a (k, .) stack:
    # row i is the call on row i alone, bit for bit.  rebuild also takes one
    # target for every frame of a stack, as sample_orbit does
    inst = get_instance(name)
    k = data.draw(st.integers(1, 6), label="k")
    raw = data.draw(arrays(np.float64, (2, k, inst.dim_v), elements=st.floats(-1e3, 1e3)),
                    label="raw")
    xs, ys = inst.project_element(raw[0]), inst.project_element(raw[1])
    ip = inst.inner_v(xs, ys)
    assert xs.shape == (k, inst.dim_v) and ip.shape == (k,)
    for i in range(k):
        assert xs[i].tobytes() == inst.project_element(raw[0, i]).tobytes(), i
        assert ip[i].tobytes() == np.float64(inst.inner_v(xs[i], ys[i])).tobytes(), i
    # targets: eigenvalue rows, some reversed, which leaves the image of the
    # sorted families
    qs = inst.spectral(ys)[0]
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k), label="flip"))
    qs[flip] = qs[flip, ::-1]
    flags = inst.image_contains(qs, 1e-9)
    assert flags.shape == (k,)
    for i in range(k):
        assert bool(flags[i]) == bool(inst.image_contains(qs[i], 1e-9)), i
    if inst.rebuild is None:
        return
    frame = inst.decompose(xs)[1]
    rebuilt, orbit = inst.rebuild(qs, frame), inst.rebuild(qs[0], frame)
    assert rebuilt.shape == orbit.shape == (k, inst.dim_v)
    for i, x in enumerate(xs):
        single = inst.spectral(x)[1]
        assert rebuilt[i].tobytes() == inst.rebuild(qs[i], single).tobytes(), i
        assert orbit[i].tobytes() == inst.rebuild(qs[0], single).tobytes(), i


@pytest.mark.parametrize("name", HOOK_INSTANCES)
def test_axiom_suite_stacks_every_hook_call(name):
    # on an instance with the hooks the suite has no per-sample loop: four
    # decompositions, of which one builds a frame, one rebuild and one image
    # check of whole stacks, and no lam or witness call; an orbit sample one
    # decomposition with its frame and one rebuild
    inst = get_instance(name)
    calls = collections.Counter()

    def counted(field):
        fn = getattr(inst, field)

        def wrapper(*args, **kwargs):
            calls[field] += 1
            if kwargs.get("frames", True) and field == "decompose":
                calls["frames"] += 1
            return fn(*args, **kwargs)
        return wrapper

    fields = ("decompose", "rebuild", "image_contains", "lam", "a3_witness")
    counted_inst = dataclasses.replace(inst, **{f: counted(f) for f in fields})
    rep = axiom_suite(counted_inst, seed=4, n_samples=60)
    assert rep == axiom_suite(inst, seed=4, n_samples=60)
    assert calls == {"decompose": 4, "frames": 1, "rebuild": 1, "image_contains": 1}
    q = inst.lam(inst.draw(np.random.default_rng(5)))
    calls.clear()
    pts = counted_inst.sample_orbit(q, np.random.default_rng(6), 16)
    assert calls == {"decompose": 1, "frames": 1, "rebuild": 1}
    np.testing.assert_array_equal(pts, inst.sample_orbit(q, np.random.default_rng(6), 16))


def test_axiom_suite_fails_on_non_finite_residuals():
    # an rn:2-like instance whose lam is NaN on some samples and whose
    # witness never raises: each check counts its non-finite residuals in a
    # note and the suite fails, while the maxima stay those of the finite
    # residuals.  The same instance without the NaN passes with no such note
    def witness(c, q):
        x = np.empty(2)
        x[np.argsort(-c, kind="stable")] = q
        return x

    def make(lam):
        return FtvnInstance(name="rn:2-nan", dim_v=2, dim_w=2, lam=lam, a3_witness=witness)

    sick = make(lambda x: np.full(2, np.nan) if x[0] > 1.0 else sort_desc(x))
    rep = axiom_suite(sick, seed=0, n_samples=50)
    n_nan = int(np.count_nonzero(np.random.default_rng(0).standard_normal((50, 2))[:, 0] > 1.0))
    assert n_nan == 8
    assert not rep.passed
    assert f"A1: {n_nan} non-finite residuals" in rep.notes
    labels = {note.split(":")[0] for note in rep.notes if "non-finite" in note}
    assert labels == {"A1", "A2", "homogeneity", "sandwich-inner", "sandwich-dist",
                      "A3-lambda", "A3-inner"}
    for field in ("a1_max", "a2_violation", "homogeneity_max", "sandwich_inner_violation",
                  "sandwich_dist_violation", "a3_max_lambda_residual", "a3_max_inner_residual"):
        assert math.isfinite(getattr(rep, field)) and getattr(rep, field) <= 1e-12, field
    healthy = axiom_suite(make(sort_desc), seed=0, n_samples=50)
    assert healthy.passed and not any("non-finite" in note for note in healthy.notes)


def test_element_types_immutable(rn2):
    e = ElementV(np.array([1.0, 2.0]), tag="rn:2")
    with pytest.raises(ValueError):
        e.coords[0] = 5.0
    with pytest.raises(ValueError):
        ElementV(np.array([np.inf, 0.0]))


def test_element_tag_checked(rn2, rn3):
    e = rn3.element(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        rn2.check_element(e)


# one instance per registered family, and the closed form of its riesz map
RIESZ_FORMS = {
    "rn:3": "eja", "sym:3": "eja", "spin:3": "eja", "product:rn:2+sym:2+spin:2": "eja",
    "svd:3x2": "identity", "rot90": "identity", "z-counterexample": "project",
    "hyp:prod:3": "gram", "hyp:detsym:3": "gram",
}


@pytest.mark.parametrize("name", sorted(RIESZ_FORMS))
def test_riesz_matches_each_family_closed_form(name):
    # the derived riesz, the Gram solve on the element space, is each
    # family's own representer bit for bit: g over the trace weights for a
    # Jordan algebra, G^-1 g for a hyperbolic polynomial's Gram matrix G, the
    # plane's projection for z, and g itself for a dot product
    inst = get_instance(name)
    form = RIESZ_FORMS[name]
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = rng.standard_normal(inst.dim_v)
        if form == "eja":
            want = inst.project_element(g) / inst.backend._w
        elif form == "gram":
            want = np.linalg.solve(inst.backend.gram, g)
        elif form == "project":
            want = inst.project_element(g)
        else:
            want = g
        assert inst.riesz(g).tobytes() == want.tobytes()


def test_riesz_forms_cover_the_registry():
    heads = {name.partition(":")[0] for name in RIESZ_FORMS}
    assert heads == set(registered_instances())


def test_registry_lists_families():
    names = registered_instances()
    for head in ("rn", "sym", "spin", "svd", "product", "rot90", "z-counterexample", "hyp"):
        assert head in names
    with pytest.raises(KeyError):
        get_instance("nope:1")


def test_witness_is_exact_means_a_rebuild():
    # one instance per registered head: the witness is exact where it is
    # rebuilt on c's frame, and a search on the subspace pseudo-instance
    exact = {"rn:3": True, "sym:2": True, "spin:2": True, "product:rn:2+sym:2": True,
             "svd:3x2": True, "rot90": True, "hyp:prod:3": True, "hyp:detsym:2": True,
             "z-counterexample": False}
    assert {name.partition(":")[0] for name in exact} == set(registered_instances())
    for name, want in exact.items():
        inst = get_instance(name)
        assert inst.witness_is_exact is want, name
        assert (inst.rebuild is not None) is want, name
    custom = hyperbolic_from_json({
        "kind": "custom_monomials", "n": 2, "e": [1.0, 1.0],
        "monomials": [{"coef": 1.0, "powers": [1, 1]}]}).as_instance()
    assert custom.witness_is_exact is False


ORBIT_LAW_TARGETS = {"sym:3": [2.0, 0.5, -1.0], "svd:3x2": [2.0, 0.5],
                     "svd:2x3": [2.0, 0.5], "spin:3": [2.0, -1.0],
                     "rn:4": [3.0, 1.0, 0.0, -2.0]}


@pytest.mark.parametrize("name", sorted(ORBIT_LAW_TARGETS))
def test_sample_orbit_matches_reference_law(name):
    # q rebuilt on the frame of a standard normal element has the law of q
    # on a Haar-random frame (a uniform permutation on rn): a two-sample KS
    # test on <d, x> for a fixed direction d finds no difference
    from scipy.stats import ks_2samp
    inst = get_instance(name)
    q = np.array(ORBIT_LAW_TARGETS[name])
    derived = inst.sample_orbit(q, np.random.default_rng(1), 4000)
    reference = reference_orbit_sample(inst, q, np.random.default_rng(2), 4000)
    for x in derived[:100]:
        np.testing.assert_allclose(inst.lam(x), q, atol=1e-12)
    d = np.random.default_rng(0).standard_normal(inst.dim_v)
    assert ks_2samp(derived @ d, reference @ d).pvalue > 0.01


def test_sample_orbit_product_reaches_every_part_assignment():
    # on a product the law is not the reference's: q's largest entry goes to
    # the part that holds the drawn element's largest eigenvalue, not to a
    # uniformly shuffled slot.  So only check that the samples lie in the
    # orbit and that every split of q between the parts occurs
    inst = get_instance("product:rn:2+sym:2")
    q = np.array([4.0, 3.0, 2.0, 1.0])
    seen = set()
    for x in inst.sample_orbit(q, np.random.default_rng(3), 400):
        np.testing.assert_allclose(inst.lam(x), q, atol=1e-12)
        seen.add(tuple(sorted(x[:2])))
    assert seen == {tuple(sorted(pair)) for pair in itertools.combinations(q, 2)}


def test_sample_orbit_needs_the_hooks():
    z = get_instance("z-counterexample")
    with pytest.raises(TypeError):
        z.sample_orbit(np.array([3.0, 2.0, 1.0]), np.random.default_rng(0), 4)
