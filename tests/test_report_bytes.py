"""Canonical reports are byte-identical for a fixed input.

One small problem per solver route, each pinned by the SHA-256 of its
canonical ``solve_report_json`` text, one fixed ``axiom_suite`` run per
instance kind, pinned by that of its ``axiom_report_json`` text, and the
first 40 reports of each benchmark workload at seed 1.  A refactor
that keeps the behaviour keeps every hash; a hash that moves means a report
changed, down to the last bit of a float (every number is also written in
hex).

The hashes were recorded with Python 3.11, numpy 2.4 and scipy 1.17 (HiGHS)
on x86-64.  Another BLAS or HiGHS build may move the last bits of a float;
on such a build, record the hashes again from the commit before the change
under test.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import ftvn.reduce
import ftvn.serialize
from ftvn import axiom_suite, get_instance
from ftvn.eja import sym_coords
from ftvn.reduce import (MaxAffineObjective, orbit_linear, reduce_solve,
                         reduce_solve_distance, reduce_solve_linear)
from ftvn.serialize import axiom_report_json, canonical_dumps, solve_report_json
from ftvn.spectral_sets import (FiniteSet, GridOracle, OrderedPolyhedron,
                                SpectralFunctionSpec, neg_logdet_fn)

from conftest import load_perfbench

SYM3 = get_instance("sym:3")
SYM2 = get_instance("sym:2")
RN3 = get_instance("rn:3")
RN2 = get_instance("rn:2")
SVD43 = get_instance("svd:4x3")

C3 = sym_coords(np.array([[2.0, 0.5, -0.3], [0.5, -1.0, 0.8], [-0.3, 0.8, 0.4]]))
D3 = sym_coords(np.array([[0.1, -0.7, 0.2], [-0.7, 1.5, 0.0], [0.2, 0.0, -2.0]]))
# 1 >= q_1 >= q_2 >= q_3 >= -2, and q_1 + q_2 <= 1.5
BOX3 = OrderedPolyhedron.from_halfspaces((((1.0, 0.0, 0.0), 1.0), ((0.0, 0.0, -1.0), 2.0),
                                          ((1.0, 1.0, 0.0), 1.5)))
BOX2 = OrderedPolyhedron.from_halfspaces((((1.0, 0.0), 2.0), ((0.0, -1.0), 0.0)))
EMPTY2 = OrderedPolyhedron.from_halfspaces((((1.0, 0.0), -1.0), ((0.0, -1.0), -1.0)))
POS3 = OrderedPolyhedron.from_halfspaces((((1.0, 0.0, 0.0), 4.0), ((0.0, 0.0, -1.0), -0.5)))
QUADRATIC = SpectralFunctionSpec(phi=lambda q: 0.25 * float(np.sum(q ** 2)), convex=True)


def _solve(case):
    if case == "lp_simplex_max":
        return SYM3, reduce_solve_linear(SYM3, C3, BOX3, sense="max")
    if case == "lp_simplex_min":
        return SYM3, reduce_solve_linear(SYM3, C3, BOX3, sense="min")
    if case == "lp_per_piece":
        pieces = ((C3, 0.0), (D3, 0.25))
        return SYM3, reduce_solve(SYM3, MaxAffineObjective(pieces), BOX3, sense="max")
    if case == "dykstra_projection":
        return SYM3, reduce_solve_distance(SYM3, 3.0 * C3, BOX3, sense="min")
    if case == "descent_newton":
        return RN3, reduce_solve_linear(RN3, np.array([0.9, 0.7, 0.6]), POS3,
                                        phi=neg_logdet_fn(), sense="min", seed=1)
    if case == "descent_gradient":
        return SYM2, reduce_solve_distance(SYM2, sym_coords(np.diag([3.0, 0.5])), BOX2,
                                           phi=neg_logdet_fn(), sense="min", seed=2)
    if case == "descent_fd":
        return SYM2, reduce_solve_distance(SYM2, sym_coords(np.diag([3.0, 0.5])), BOX2,
                                           phi=QUADRATIC, sense="min", seed=3)
    if case == "exhaustive":
        pts = FiniteSet(points=np.array([[2.0, 1.0, -1.0], [0.5, 0.5, 0.0],
                                         [3.0, -2.0, -2.5]]))
        return SYM3, reduce_solve_linear(SYM3, C3, pts, sense="min")
    if case == "exhaustive_max_affine_max":
        pts = FiniteSet(points=np.array([[2.0, 1.0, -1.0], [0.5, 0.5, 0.0]]))
        return SYM3, reduce_solve(SYM3, MaxAffineObjective(((C3, -9.0), (D3, 0.25))), pts,
                                  sense="max")
    if case == "exhaustive_max_affine_min":
        pts = FiniteSet(points=np.array([[2.0, 1.0, -1.0], [0.5, 0.5, 0.0]]))
        pieces = ((np.array([1.0, -2.0, 0.5]), 0.0), (np.array([-1.0, 0.3, 2.0]), 0.1))
        return RN3, reduce_solve(RN3, MaxAffineObjective(pieces), pts, sense="min")
    if case == "orbit_closed_form":
        rng = np.random.default_rng(7)
        c, u = rng.standard_normal(12), rng.standard_normal(12)
        return SVD43, orbit_linear(SVD43, c, u, sense="max")
    if case == "grid_scan":
        grid = GridOracle(membership=lambda q: q[0] + q[1] <= 1.0,
                          box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), resolution=9)
        return RN2, reduce_solve_distance(RN2, np.array([2.0, -0.5]), grid, sense="min")
    if case == "lp_phase1":
        return RN2, reduce_solve_distance(RN2, np.array([1.0, 2.0]), EMPTY2, sense="min")
    raise KeyError(case)


# case -> (route, SHA-256 of the canonical report)
PINNED = {
    "lp_simplex_max": ("lp_simplex",
                       "4381e80171e2a0d191c2251a5fc078e5c7728a6d82fd12a4cba49d8d9d283880"),
    "lp_simplex_min": ("lp_simplex",
                       "8c3148d9f21a5d91dde89974bd29050d4f0f49f6fb8b3610708be83e51c4ec69"),
    "lp_per_piece": ("lp_per_piece",
                     "ef8008e80ea6ed29b9c93c78d52f44b3c22352edbc129be03ccbf75038ddd36a"),
    "dykstra_projection": ("dykstra_projection",
                           "158484c26c485051f0d84c0afe8ad87693418c20a505a90fd4a4dc73c08ea062"),
    "descent_newton": ("projected_descent",
                       "4ad48c0a6c168a5b996f3813eaf13d113a8fbef7555318cca13e64ff3568fa19"),
    "descent_gradient": ("projected_descent",
                         "ebdf81ff9d66a2043705c3420f9eb12eef0758ec162a6ba1ac06f2c03111a244"),
    "descent_fd": ("projected_descent",
                   "9991c1209b46cc102ebd7ad6a2531e213562cb66b1a0523e7f522318984efb77"),
    "exhaustive": ("exhaustive",
                   "376d3f97862b6edea918de20c34c45ae49c3cbd715eca3bb74549f134f6f6ce8"),
    "exhaustive_max_affine_max": ("exhaustive",
                                  "73130398783b28e46fa9f21f172998b853e1e72565d0abd3c701ff5371cbd1ba"),
    "exhaustive_max_affine_min": ("exhaustive",
                                  "a55fe0c4150c4a36a82f7d4f36d871c652eed1e3ba450ce1fdbb3adf5f611a78"),
    "orbit_closed_form": ("orbit_closed_form",
                          "e83138ac668e1d82a01b7beb8b06949b42693c434e8e56f825ede7b6e0b53bf1"),
    "grid_scan": ("grid_scan",
                  "829c828b28f567362795510b95b28ea7f38d0fb6cfab5eefe5566fb2a776d273"),
    "lp_phase1": ("lp_phase1",
                  "17708e78feacad2827828ef8392cf780a01387d96169fa6ee8d99f2745f0c65e"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_report_bytes_are_pinned(case):
    route, digest = PINNED[case]
    inst, rep = _solve(case)
    assert rep.solver_trace["method"] == route
    if case.startswith("descent_"):
        assert rep.solver_trace["step"] == case.removeprefix("descent_")
    text = canonical_dumps(solve_report_json(inst, rep))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# instance -> SHA-256 of the canonical report of axiom_suite(seed=3, n_samples=50)
PINNED_AXIOMS = {
    "sym:4": "1274c6b6a7680e72572322a745467ad8a4797a5aa6ba64ab6ea5859d7d4f4336",
    "spin:16": "a369c1dda8e3f66f70f0e0fc0ab302dcced004710c24fd22df4bd73dc3eff378",
    "product:rn:3+sym:3": "2376fbdad5c8de2607944ae55e451f1c764cbc60595b82c71a92d89c7e1b5663",
    "svd:4x3": "32482ef80535f1110b51e11244f0066d8e4bc62bfcc244abc1fd922d68edc94c",
    "hyp:detsym:3": "5c2d564a06d0865cd606f49240b5f9b730a760224eedcfefc316659d38bae032",
    "rn:4": "0aca38c439ea35cf31be0e22cd469bdd7d823da997eff143b10e4f296bdeb2ef",
    "rot90": "c9ca1642062ebb4b7b5675ee84ae674f9c84d52090d9426380e59b735be558b3",
    "hyp:prod:3": "51fe17f41866891634a25f5e8cc93dac038bed47bb7a4a76ed2bf6b81ed7a55a",
    # fails A3 by design: its witness is the best point of a finite set
    "z-counterexample": "560a042bf67079c88573fb81f91c5d662d70e3e20eca97aaeb01065281c3b7b9",
}


@pytest.mark.parametrize("name", sorted(PINNED_AXIOMS))
def test_axiom_report_bytes_are_pinned(name):
    inst = get_instance(name)
    rep = axiom_suite(inst, seed=3, n_samples=50)
    assert rep.passed == inst.witness_is_exact
    text = canonical_dumps(axiom_report_json(rep))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AXIOMS[name]


# workload -> SHA-256 of the canonical reports of its ops 0-39 at seed 1, in
# order, each built and run as perfbench/workloads.py does
PINNED_WORKLOADS = {
    "sym-solve": "6921539062825555a0914578940b21536ed482b907ef1a549a0e6c493985b271",
    "wside-solve": "a5abf1230810115e97a2c1e40779c1aef1a0764cf3a64e7794e044ee5b6408cf",
    "axiom-check": "ca0772caaff36b0d6b7b515f21f9a8faf34db36e778d712846e6545139792211",
}


@pytest.mark.parametrize("workload", sorted(PINNED_WORKLOADS))
def test_benchmark_report_bytes_are_pinned(workload):
    workloads = load_perfbench("workloads")
    tracer = load_perfbench("spans").NullTracer()
    serialize = ftvn.serialize
    api = SimpleNamespace(problem_from_json=serialize.problem_from_json,
                          solve_report_json=serialize.solve_report_json,
                          axiom_report_json=serialize.axiom_report_json,
                          canonical_dumps=serialize.canonical_dumps, SCHEMA=serialize.SCHEMA,
                          reduce_solve=ftvn.reduce.reduce_solve, get_instance=get_instance,
                          axiom_suite=axiom_suite)
    make_op = workloads.WORKLOADS[workload][0]
    digest = hashlib.sha256()
    for i in range(40):
        digest.update(workloads.execute(make_op(1, i), api, tracer).encode())
    assert digest.hexdigest() == PINNED_WORKLOADS[workload]
