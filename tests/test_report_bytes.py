"""Canonical solve reports are byte-identical for a fixed input.

One small problem per solver route, each pinned by the SHA-256 of its
canonical ``solve_report_json`` text.  A refactor of the engine that keeps
the behaviour keeps every hash; a hash that moves means a report changed,
down to the last bit of a float (every number is also written in hex).

The hashes were recorded with Python 3.11, numpy 2.4 and scipy 1.17 (HiGHS)
on x86-64.  Another BLAS or HiGHS build may move the last bits of a float;
on such a build, record the hashes again from the commit before the change
under test.
"""

import hashlib

import numpy as np
import pytest

from ftvn import get_instance
from ftvn.eja import sym_coords
from ftvn.reduce import (MaxAffineObjective, orbit_linear, reduce_solve,
                         reduce_solve_distance, reduce_solve_linear)
from ftvn.serialize import canonical_dumps, solve_report_json
from ftvn.spectral_sets import (FiniteSet, GridOracle, OrderedPolyhedron,
                                SpectralFunctionSpec, neg_logdet_fn)

SYM3 = get_instance("sym:3")
SYM2 = get_instance("sym:2")
RN3 = get_instance("rn:3")
RN2 = get_instance("rn:2")
SVD43 = get_instance("svd:4x3")

C3 = sym_coords(np.array([[2.0, 0.5, -0.3], [0.5, -1.0, 0.8], [-0.3, 0.8, 0.4]]))
D3 = sym_coords(np.array([[0.1, -0.7, 0.2], [-0.7, 1.5, 0.0], [0.2, 0.0, -2.0]]))
# 1 >= q_1 >= q_2 >= q_3 >= -2, and q_1 + q_2 <= 1.5
BOX3 = OrderedPolyhedron(halfspaces=(((1.0, 0.0, 0.0), 1.0), ((0.0, 0.0, -1.0), 2.0),
                                     ((1.0, 1.0, 0.0), 1.5)))
BOX2 = OrderedPolyhedron(halfspaces=(((1.0, 0.0), 2.0), ((0.0, -1.0), 0.0)))
EMPTY2 = OrderedPolyhedron(halfspaces=(((1.0, 0.0), -1.0), ((0.0, -1.0), -1.0)))
POS3 = OrderedPolyhedron(halfspaces=(((1.0, 0.0, 0.0), 4.0), ((0.0, 0.0, -1.0), -0.5)))
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
                       "e6d61c251adae2a1c121743eae3188d7d41494e80a065fbec2a7e8716a5bd458"),
    "lp_simplex_min": ("lp_simplex",
                       "ef0dc8a8fd6c7975ea92f2f9dd1168b7acec058dfd7204593b33b84e76b6126e"),
    "lp_per_piece": ("lp_per_piece",
                     "87c01181de2b516743c223f14888b2e94d9becd8471c0a4e387ba9b39ad5eaca"),
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
                          "fe6677fc7552312f413d1771e51d8d90d57b23b961e25a4b86a1c986fc343bbb"),
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
