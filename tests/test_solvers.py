import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import OptimizeResult, linprog, minimize

import ftvn.solvers
from ftvn import FtvnError, get_instance
from ftvn.reduce import reduce_solve_linear
from ftvn.solvers import (dykstra_project, ordered_polyhedron_projectors,
                          pav_decreasing, project_halfspace, project_polyhedron,
                          projected_descent, simplex_weight_grid, solve_lp, window_shift,
                          WINDOW_HIGH, WINDOW_LOW)
from ftvn.spectral_sets import OrderedPolyhedron

from conftest import assert_fitted_to_highs, enumerate_polytope_vertices


@settings(max_examples=80, deadline=None, derandomize=True)
@given(arrays(np.float64, st.integers(1, 9), elements=st.floats(-50, 50)))
def test_pav_variational_characterization(y):
    z = pav_decreasing(y)
    # feasibility
    assert np.all(np.diff(z) <= 1e-9)
    # projection onto a cone: <y - z, z> = 0 and <y - z, w> <= 0 for feasible w
    assert abs(np.dot(y - z, z)) <= 1e-7 * (1 + np.dot(z, z))
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = np.sort(rng.uniform(-60, 60, y.size))[::-1]
        assert np.dot(y - z, w) <= 1e-7 * (1 + np.linalg.norm(w))
    # idempotent
    np.testing.assert_allclose(pav_decreasing(z), z, atol=1e-12)


def test_pav_known_values():
    np.testing.assert_allclose(pav_decreasing(np.array([3.0, 2.0, 1.0])), [3.0, 2.0, 1.0])
    np.testing.assert_allclose(pav_decreasing(np.array([1.0, 2.0])), [1.5, 1.5])
    np.testing.assert_allclose(pav_decreasing(np.array([1.0, 3.0, 2.0])), [2.0, 2.0, 2.0])


def test_project_halfspace():
    q = np.array([2.0, 0.0])
    p = project_halfspace(q, np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(p, [1.0, 0.0])
    np.testing.assert_allclose(project_halfspace(p, np.array([1.0, 0.0]), 1.0), p)


def test_dykstra_matches_slsqp_oracle():
    # project onto {q sorted nonincreasing, q1 <= 2, q2 >= 0, q1 + q2 <= 3}
    halfspaces = [(np.array([1.0, 0.0]), 2.0),
                  (np.array([0.0, -1.0]), 0.0),
                  (np.array([1.0, 1.0]), 3.0)]
    projs = ordered_polyhedron_projectors(halfspaces, 2)
    a_ub, b_ub = OrderedPolyhedron.from_halfspaces(tuple(halfspaces)).rows()
    rng = np.random.default_rng(1)
    cons = [{"type": "ineq", "fun": lambda q, a=a, b=b: b - np.dot(a, q)}
            for a, b in halfspaces]
    cons.append({"type": "ineq", "fun": lambda q: q[0] - q[1]})
    for _ in range(12):
        y = rng.uniform(-4, 4, 2)
        mine, _ = dykstra_project(y, projs)
        oracle = minimize(lambda q: np.sum((q - y) ** 2), np.zeros(2),
                          constraints=cons, method="SLSQP",
                          options={"ftol": 1e-14, "maxiter": 400})
        np.testing.assert_allclose(mine, oracle.x, atol=5e-6)
        exact, certified = project_polyhedron(y, a_ub, b_ub)
        assert certified
        np.testing.assert_allclose(exact, oracle.x, atol=5e-6)


def test_projection_sweep_against_highs_and_dykstra():
    # random ordered polyhedra, rows scaled over 1e+-3 and targets up to 1e4
    # away: the projection is certified exactly when HiGHS finds the set
    # nonempty, and on unit-scale rows it matches Dykstra run to convergence
    rng = np.random.default_rng(11)
    counts = {"empty": 0, "nonempty": 0, "compared": 0}
    for trial in range(400):
        n = int(rng.integers(2, 9))
        well = trial % 4 == 0
        halfspaces = []
        for _ in range(int(rng.integers(1, n + 2))):
            scale = 1.0 if well else 10.0 ** rng.uniform(-3, 3)
            halfspaces.append((tuple(scale * rng.standard_normal(n)),
                               float(scale * rng.uniform(-1, 2))))
        spec = OrderedPolyhedron.from_halfspaces(tuple(halfspaces))
        a_ub, b_ub = spec.rows()
        w = rng.standard_normal(n) * (3.0 if well else 10.0 ** rng.uniform(0, 4))
        q, certified = project_polyhedron(w, a_ub, b_ub)
        feas = linprog(np.zeros(n), A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                       method="highs")
        assert feas.status in (0, 2), feas.message
        empty = feas.status == 2
        counts["empty" if empty else "nonempty"] += 1
        assert certified == (not empty), trial
        if certified and well:
            projs = ordered_polyhedron_projectors(zip(spec.normals, spec.offsets), n)
            ref, sweeps = dykstra_project(w, projs, max_sweeps=2000)
            if sweeps < 2000:
                counts["compared"] += 1
                np.testing.assert_allclose(q, ref, atol=1e-8 * (1.0 + np.abs(w).max()))
    assert min(counts.values()) >= 30, counts
    # q1 <= 0 written with a tiny normal: the point is still exact
    q, certified = project_polyhedron(np.array([5.0]), np.array([[1e-9]]), np.array([0.0]))
    assert certified and abs(q[0]) <= 1e-12


def test_lp_against_vertex_enumeration():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        # bounded polytope: box plus random cuts
        a_rows = [np.eye(n), -np.eye(n)]
        b_rows = [np.full(n, 5.0), np.full(n, 5.0)]
        for _ in range(3):
            a = rng.standard_normal(n)
            a_rows.append(a[None, :])
            b_rows.append([abs(rng.standard_normal()) + 0.5])
        a_ub = np.vstack(a_rows)
        b_ub = np.concatenate(b_rows)
        c = rng.standard_normal(n)
        res = solve_lp(c, a_ub, b_ub, maximize=True)
        assert res.status == "optimal"
        verts = enumerate_polytope_vertices(a_ub, b_ub)
        oracle = float(np.max(verts @ c))
        assert res.value == pytest.approx(oracle, abs=1e-8)
        assert np.all(a_ub @ res.x <= b_ub + 1e-8)
    # the same polytopes intersected with the nonincreasing cone, with the
    # rows built as the reduction engine builds them
    for trial in range(20):
        n = 2 + trial % 4
        halfspaces = [(row, 5.0) for row in np.vstack([np.eye(n), -np.eye(n)])]
        halfspaces += [(rng.standard_normal(n), abs(rng.standard_normal()) + 0.5)
                       for _ in range(3)]
        a_ub, b_ub = OrderedPolyhedron.from_halfspaces(tuple(halfspaces)).rows()
        assert a_ub.shape == (2 * n + 3 + n - 1, n)
        c = rng.standard_normal(n)
        res = solve_lp(c, a_ub, b_ub, maximize=bool(trial % 2))
        assert res.status == "optimal"
        values = enumerate_polytope_vertices(a_ub, b_ub) @ c
        oracle = float(np.max(values) if trial % 2 else np.min(values))
        assert res.value == pytest.approx(oracle, abs=1e-8)
        assert np.all(a_ub @ res.x <= b_ub + 1e-9)
        assert np.all(np.diff(res.x) <= 1e-9 * (1.0 + np.abs(res.x).max()))


def _random_ordered_lp(seed):
    # seeded LPs over ordered polyhedra: n in 2..8, 1..n random cuts
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(2, 9))
    k = rng.integers(1, n + 1)
    halfspaces = tuple((tuple(rng.standard_normal(n)), float(rng.uniform(-1, 2)))
                       for _ in range(k))
    a_ub, b_ub = OrderedPolyhedron.from_halfspaces(halfspaces).rows()
    return rng.standard_normal(n), a_ub, b_ub


def test_lp_infeasible_and_unbounded():
    res = solve_lp(np.array([1.0]),
                   np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))
    assert res.status == "infeasible"

    res = solve_lp(np.array([1.0, 0.0]),
                   np.array([[1.0, 0.0]]), np.array([1.0]), maximize=False)
    assert res.status == "unbounded"

    # a nonempty ordered polyhedron in R^7 that HiGHS's presolve calls infeasible
    spec = OrderedPolyhedron.from_halfspaces((
        ((-0.02, -0.44, 0.01, -0.45, 0.86, 2.02, -0.13), -0.21),
        ((0.9, -1.23, -1.38, 1.63, -1.79, -1.47, 0.98), 1.26)))
    a_ub, b_ub = spec.rows()
    c = np.array([-1.51, -0.29, 0.1, -1.7, 0.13, -0.43, 1.78])
    point = np.array([5.3, 4.3, 3.3, 2.3, 1.3, 0.3, -0.7])
    ray = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert np.all(a_ub @ point < b_ub) and np.all(a_ub @ ray <= 0.0) and c @ ray < 0.0
    res = solve_lp(c, a_ub, b_ub)
    assert res.status == "unbounded" and res.value == -np.inf

    # feasible LPs with an improving recession direction that HiGHS (scipy
    # 1.17.1) ends with model status "Unknown": solve_lp decides them with a
    # feasibility LP and a recession LP over the unit box
    for s, n, maximize in ((10986, 3, False), (19803, 4, True)):
        c, a_ub, b_ub = _random_ordered_lp(s)
        assert c.size == n
        res = solve_lp(c, a_ub, b_ub, maximize=maximize)
        assert res.status == "unbounded" and res.value == (np.inf if maximize else -np.inf)


@pytest.mark.parametrize("status", [1, 4])
def test_lp_highs_failure_raises(monkeypatch, status):
    # scipy's status 1 (iteration or time limit) and 4 (numerical trouble,
    # "unknown", "unbounded or infeasible") are not outcomes the caller can
    # act on: they surface as an FtvnError with HiGHS's message
    def failing(*args, **kwargs):
        return OptimizeResult(status=status, message=f"simulated HiGHS status {status}",
                              x=None, fun=None, nit=7)

    monkeypatch.setattr(ftvn.solvers, "_highs", failing)
    with pytest.raises(FtvnError, match=f"simulated HiGHS status {status}"):
        solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))


def test_lp_keeps_tiny_rows():
    # HiGHS drops matrix entries of 1e-9 or less: unscaled, this row reads
    # 0 <= 1 and the maximum +inf
    res = solve_lp(np.array([1.0]), np.array([[1e-9]]), np.array([1.0]), maximize=True)
    assert res.status == "optimal" and res.value == pytest.approx(1e9, rel=1e-12)
    # a tiny row among ordinary ones: max q1 + 2 q2 over q1 >= -1, q2 >= -1
    # and 1e-12 (q1 + q2) <= 1e-12 is 3, at (-1, 2)
    res = solve_lp(np.array([1.0, 2.0]),
                   np.array([[-1.0, 0.0], [0.0, -1.0], [1e-12, 1e-12]]),
                   np.array([1.0, 1.0, 1e-12]), maximize=True)
    assert res.status == "optimal" and res.value == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [-1.0, 2.0], atol=1e-9)


def test_window_shift_brings_rows_into_one_two():
    a = np.array([[1e-9, -3e-12], [0.0, 0.0], [WINDOW_LOW, 1e-20], [0.75 * WINDOW_LOW, 0.0],
                  [-1e-300, 5e-310], [3.0, -1.0], [WINDOW_HIGH, 1.0], [-9e14, 3.0],
                  [0.0, np.nextafter(WINDOW_HIGH, 0.0)]])
    shift = window_shift(a)
    scaled = np.ldexp(a, shift[:, None])
    for i in (0, 3, 4, 6, 7):
        # one power of two per row, taken exactly, with its largest entry in [1, 2)
        assert shift[i] != 0 and np.array_equal(np.ldexp(scaled[i], -shift[i]), a[i])
        assert 1.0 <= np.abs(scaled[i]).max() < 2.0
    # zero rows and rows inside [WINDOW_LOW, WINDOW_HIGH) are left as they are
    assert list(shift[[1, 2, 5, 8]]) == [0, 0, 0, 0]
    # a cost is one row
    assert window_shift(np.array([3e-5, -1e-7])) == 16 and window_shift(np.zeros(3)) == 0


def test_tiny_row_past_offset_limit_is_refused():
    # max q over {1e-9 q <= 1e12}: the maximum is 1e21, but the row scaled to
    # a unit normal has an offset past 1e20, which HiGHS reads as infinite,
    # so the LP would come out unbounded.  It is refused instead, in one line
    with pytest.raises(ValueError, match="LP row 0 is past the LP solver's limits") as exc:
        solve_lp(np.array([1.0]), np.array([[1e-9]]), np.array([1e12]), maximize=True)
    assert "\n" not in str(exc.value)
    # one decade lower the scaled offset stays inside the range
    res = solve_lp(np.array([1.0]), np.array([[1e-9]]), np.array([1e10]), maximize=True)
    assert res.status == "optimal" and res.value == pytest.approx(1e19, rel=1e-12)
    # the same set through the engine, on rn:1: an error, never "unbounded"
    set_spec = OrderedPolyhedron.from_halfspaces((((1e-9,), 1e12),))
    with pytest.raises(ValueError, match="past the LP solver's limits"):
        reduce_solve_linear(get_instance("rn:1"), np.array([1.0]), set_spec, sense="max")


def test_lp_model_highs_refuses_raises():
    # HiGHS refuses to load a matrix entry of 1e15 or more; that is a solver
    # failure, not the "infeasible" linprog reports: q = 0 is feasible here
    a_ub, b_ub = np.array([[1e308, 1e308], [-1.0, 1.0]]), np.array([1e308, 0.0])
    assert np.all(a_ub @ np.zeros(2) <= b_ub)
    res = ftvn.solvers._highs(np.array([-1.0, 0.0]), a_ub, b_ub)
    assert (res.status, res.message) == (4, "Model error")
    # solve_lp fits the row into [1, 2) first, and HiGHS decides the LP:
    # q = (1 + t, -t) stays in the set for every t >= 0
    res = solve_lp(np.array([1.0, 0.0]), a_ub, b_ub, maximize=True)
    assert res.status == "unbounded" and res.value == np.inf


@pytest.mark.parametrize("option", [{"presolve": "sometimes"}, {"no_such_option": 1}])
def test_lp_rejected_option_raises(monkeypatch, option):
    # an option HiGHS rejects (a bad value, or a name a HiGHS upgrade
    # dropped) would leave presolve on or the solver unset: an error, not a
    # quiet solve with other settings
    monkeypatch.setattr(ftvn.solvers, "_HIGHS_OPTIONS",
                        dict(ftvn.solvers._HIGHS_OPTIONS, **option))
    with pytest.raises(FtvnError, match="HiGHS rejects option"):
        solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), maximize=True)


def test_lp_missing_binding_raises(monkeypatch):
    # a scipy without the private binding ends the solve with an FtvnError
    # that names the scipy versions the binding is known to work on
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    with pytest.raises(FtvnError, match="needs scipy's HiGHS binding"):
        solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), maximize=True)


def test_projection_missing_kernel_raises(monkeypatch):
    # the same for the NNLS kernel: a distance solve ends in FtvnError, not
    # an internal error
    monkeypatch.setitem(sys.modules, "scipy.optimize._slsqplib", None)
    with pytest.raises(FtvnError, match=r"needs scipy's NNLS kernel \(scipy >="):
        project_polyhedron(np.array([2.0]), np.array([[1.0]]), np.array([1.0]))
    rn1 = ftvn.get_instance("rn:1")
    half = OrderedPolyhedron.from_halfspaces((((1.0,), 1.0),))
    with pytest.raises(FtvnError, match=r"needs scipy's NNLS kernel \(scipy >="):
        ftvn.reduce_solve(rn1, ftvn.DistanceObjective(rn1.element([2.0])), half)


def test_projection_rejects_nan():
    # a NaN never reaches the NNLS kernel
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        project_polyhedron(np.array([np.nan, 1.0]), np.array([[1.0, 0.0]]), np.array([0.0]))


def test_projection_iteration_cap(monkeypatch):
    # the kernel runs at most 3 iterations per row; reaching the cap (its
    # info 3) gives no point
    kernel = ftvn.solvers._scipy_extension("scipy.optimize._slsqplib", "test")
    calls = []

    def capped(m, target, maxiter):
        calls.append((m.shape, maxiter))
        return np.zeros(m.shape[1]), 0.0, 3

    monkeypatch.setattr(kernel, "nnls", capped)
    a_ub, b_ub = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]), np.zeros(3)
    assert project_polyhedron(np.array([2.0, 1.0]), a_ub, b_ub) == (None, False)
    assert calls == [((3, 3), 9)]


@pytest.mark.parametrize("maximize, status", [(False, "unbounded"), (True, None)])
def test_lp_unknown_status_decided_by_recession(monkeypatch, maximize, status):
    # HiGHS's first answer is "unknown"; the feasibility and recession LPs run
    # on the real HiGHS.  min q1 over {q1 <= 1} has the improving ray -e1 and
    # is unbounded; max q1 is attained, so no direction improves and the
    # first message stands
    real = ftvn.solvers._highs
    calls = []

    def unknown_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return OptimizeResult(status=4, message="simulated unknown", x=None, fun=None, nit=3)
        return real(*args, **kwargs)

    monkeypatch.setattr(ftvn.solvers, "_highs", unknown_first)
    c, a_ub, b_ub = np.array([1.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0])
    if status is None:
        with pytest.raises(FtvnError, match="simulated unknown"):
            solve_lp(c, a_ub, b_ub, maximize=maximize)
    else:
        res = solve_lp(c, a_ub, b_ub, maximize=maximize)
        assert res.status == status and res.value == -np.inf and res.x is None
    assert len(calls) == 3


def _matches_linprog(c, a_ub, b_ub, bounds=(None, None), method="highs-ds"):
    got = ftvn.solvers._highs(c, a_ub, b_ub, bounds=bounds, method=method)
    want = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method=method,
                   options={"presolve": False})
    assert (got.status, got.nit) == (want.status, want.nit)
    if want.status == 0:
        np.testing.assert_array_equal(got.x, want.x)
        assert got.fun == want.fun
    else:
        assert got.x is None and got.fun is None
    return got


def test_highs_binding_matches_linprog():
    # the binding is driven with the options linprog passes, so every answer
    # is linprog's: status code, point and value bit for bit, iterations
    statuses = set()
    for seed in range(1000):
        c, a_ub, b_ub = _random_ordered_lp(seed)
        for sign in (1.0, -1.0):
            statuses.add(_matches_linprog(sign * c, a_ub, b_ub).status)
        if seed % 50 == 0:
            # the recession LP over the unit box, and the phase-1 LP by ipm
            _matches_linprog(c, a_ub, np.zeros_like(b_ub), bounds=(-1.0, 1.0))
            a, b = ftvn.solvers.unit_rows(a_ub, b_ub)
            m, n = a.shape
            a1 = np.block([[a, -np.ones((m, 1))], [np.zeros((1, n)), -np.ones((1, 1))]])
            res = _matches_linprog(np.append(np.zeros(n), 1.0), a1, np.append(b, 0.0),
                                   method="highs-ipm")
            assert res.status == 0
    assert {0, 2, 3} <= statuses
    # the two HiGHS-Unknown cases: scipy's code 4, HiGHS's own status string
    for seed, sign in ((10986, 1.0), (19803, -1.0)):
        c, a_ub, b_ub = _random_ordered_lp(seed)
        res = _matches_linprog(sign * c, a_ub, b_ub)
        assert res.status == 4 and res.message == "Unknown"


def test_highs_keeps_no_state_between_calls(monkeypatch):
    # the process's one HiGHS object is cleared, and its options reset,
    # before each LP.  A, an LP in the cone's coordinates (per-column
    # bounds), is solved on a fresh object, then again right after itself,
    # after B, after an ipm LP, after an infeasible LP, after an unbounded LP
    # and after an ipm retry: the same point, value and iterations
    monkeypatch.setattr(ftvn.solvers, "_solver", None)
    spec = OrderedPolyhedron.from_halfspaces((((1.0, 0.0, 0.0), 3.0), ((0.0, 0.0, -1.0), 1.0),
                                              ((0.5, -1.0, 2.0), 1.5)))
    lp_a = (np.cumsum([2.0, -1.0, 0.5]), *spec.generator_rows())
    bounds = (np.array([0.0, 0.0, -np.inf]), None)
    lp_b = _random_ordered_lp(4)
    infeasible = (np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))
    unbounded = (np.array([1.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0]))
    first = solve_lp(*lp_a, maximize=True, bounds=bounds)
    assert first.status == "optimal"
    others = (lambda: solve_lp(*lp_a, maximize=True, bounds=bounds),
              lambda: solve_lp(*lp_b),
              lambda: ftvn.solvers._highs(*lp_b, method="highs-ipm"),
              lambda: solve_lp(*infeasible),
              lambda: solve_lp(*unbounded),
              # an infeasible LP said to be bounded: the dual simplex fails
              # and ipm is retried
              lambda: solve_lp(*infeasible, bounded=True))
    statuses = []
    for other in others:
        statuses.append(other().status)
        again = solve_lp(*lp_a, maximize=True, bounds=bounds)
        assert (again.status, again.value, again.iterations) == \
            (first.status, first.value, first.iterations)
        np.testing.assert_array_equal(again.x, first.x)
    assert statuses[3:] == ["infeasible", "unbounded", "unknown"]


def _ordered_polyhedron(rng, n, case):
    """A random ordered polyhedron in R^n: random cuts, or cuts whose prefix
    sums pass NORMAL_ENTRY_LIMIT though no entry does ("large"), or nonempty
    bounded sets whose cuts pair each entry with its near negative, so that
    every second prefix sum cancels to 1e-12..1e-4 against entries of order
    1 ("cancel")."""
    k = int(rng.integers(1, n + 2))
    normals = rng.standard_normal((k, n))
    offsets = rng.uniform(-1.0, 2.0, k)
    if case == "large":
        normals = 9e14 * np.sign(normals)
        normals[0] = 9e14
        offsets *= 9e14
    elif case == "cancel":
        pairs = n // 2
        tiny = 10.0 ** rng.uniform(-12, -4, (k, pairs))
        noise = tiny * rng.standard_normal((k, pairs))
        normals[:, 1:2 * pairs:2] = noise - normals[:, 0:2 * pairs:2]
        # a sorted point p strictly inside every cut, and q_1 <= 3 and
        # q_n >= -3: the set is nonempty and bounded
        p = np.sort(rng.uniform(-1.0, 2.0, n))[::-1]
        box = np.zeros((2, n))
        box[0, 0], box[1, -1] = 1.0, -1.0
        normals = np.vstack([normals, box])
        offsets = np.append(normals[:k] @ p + rng.uniform(0.1, 1.0, k), [3.0, 3.0])
    return OrderedPolyhedron(normals, offsets)


def test_cone_lp_matches_row_form(highs_calls):
    # the engine's LP route (on rn:n, whose lam is a sort) solves over the
    # cone's generator coordinates; HiGHS on the rows of the same set is the
    # reference.  Same status; values within tol (1 + |v|); q in the set by
    # its rows and exactly nonincreasing.  Every row and cost HiGHS sees,
    # the prefix sums of 9e14 entries too, was fitted into the window
    tol = 1e-8
    statuses = {}
    for seed in range(300):
        rng = np.random.default_rng([11, seed])
        case = ("random", "large", "cancel")[seed % 3]
        n = 32 if case == "large" and seed % 2 else int(rng.integers(1, 9))
        spec = _ordered_polyhedron(rng, n, case)
        a_ub, b_ub = spec.rows()
        if case == "large":
            # HiGHS fails on rows of 9e14 ("Not Set"); each row divided by
            # 2^50, which is exact, gives it the same set
            a_ub, b_ub = np.ldexp(a_ub, -50), np.ldexp(b_ub, -50)
        c = rng.standard_normal(n)
        for sense in ("max", "min"):
            # the W-side cost: lam(c) at sense max, -lam(-c) at sense min
            w = np.sort(c)[::-1] if sense == "max" else np.sort(c)
            ref = solve_lp(w, a_ub, b_ub, maximize=sense == "max")
            rep = reduce_solve_linear(get_instance(f"rn:{n}"), c, spec, sense=sense)
            status = ("infeasible" if rep.infeasible
                      else "unbounded" if math.isinf(rep.optimal_value) else "optimal")
            assert status == ref.status, (seed, sense)
            statuses[case, status] = statuses.get((case, status), 0) + 1
            if status != "optimal":
                continue
            assert abs(rep.optimal_value - ref.value) <= tol * (1.0 + abs(ref.value)), seed
            q = rep.optimizer_w
            assert np.all(np.diff(q) <= 0.0), seed
            slack = tol * (1.0 + np.abs(a_ub) @ np.abs(q) + np.abs(b_ub))
            assert np.all(a_ub @ q - b_ub <= slack), seed
    assert {status for _, status in statuses} == {"optimal", "infeasible", "unbounded"}
    assert all(statuses.get((case, "optimal"), 0) >= 20
               for case in ("random", "large", "cancel")), statuses
    assert_fitted_to_highs(highs_calls)


def test_lp_cost_near_1e19_is_solved():
    # below COST_LIMIT, so the engine takes it, but HiGHS's absolute
    # tolerances cannot solve it as given ("Solve error" unscaled)
    spec = OrderedPolyhedron.from_halfspaces((((1.0, 0.0, 0.0), 2.0), ((0.0, 0.0, -1.0), 1.0)))
    rep = reduce_solve_linear(get_instance("rn:3"), np.array([9e19, -9e19, 9e19]), spec,
                              sense="min")
    assert rep.attained and rep.optimal_value == pytest.approx(-3.6e20, rel=1e-12)
    np.testing.assert_array_equal(rep.optimizer_w, [2.0, -1.0, -1.0])


def test_cost_scaled_by_a_power_of_two_scales_the_result():
    # 2^k c for each k below has its LP cost outside [2^-10, 2^10), so
    # solve_lp fits all four to one cost: the same optimizer bit for bit, the
    # values exactly 2^k times one value, and that value the unscaled cost's
    # within tol (1 + |v|)
    tol = 1e-8
    ks = (-40, -20, 20, 40)
    optimal = 0
    for seed in range(60):
        rng = np.random.default_rng([29, seed])
        n = int(rng.integers(2, 9))
        spec = _ordered_polyhedron(rng, n, "random")
        c = rng.standard_normal(n)
        inst = get_instance(f"rn:{n}")
        for sense in ("max", "min"):
            base = reduce_solve_linear(inst, c, spec, sense=sense)
            reps = [reduce_solve_linear(inst, np.ldexp(c, k), spec, sense=sense) for k in ks]
            values = {math.ldexp(rep.optimal_value, -k) for k, rep in zip(ks, reps)}
            assert len(values) == 1, (seed, sense, values)
            v = values.pop()
            assert all(rep.infeasible == base.infeasible for rep in reps), seed
            if not math.isfinite(base.optimal_value):
                assert v == base.optimal_value, (seed, sense)
                continue
            optimal += 1
            assert abs(v - base.optimal_value) <= tol * (1.0 + abs(base.optimal_value)), seed
            assert all(np.array_equal(rep.optimizer_w, reps[0].optimizer_w) for rep in reps)
    assert optimal >= 20
    # the unscaled example: HiGHS's dual tolerance of 1e-7 called (0, 0, 0)
    # optimal, with value 0
    spec = OrderedPolyhedron.from_halfspaces((((1.0, 0.0, 0.0), 2.0), ((0.0, 0.0, -1.0), 1.0)))
    rep = reduce_solve_linear(get_instance("rn:3"), np.array([1e-12, 0.0, -1e-12]), spec)
    assert rep.optimal_value == pytest.approx(3e-12, rel=1e-12)
    assert (rep.optimizer_w[0], rep.optimizer_w[2]) == (2.0, -1.0)


def test_lp_flagship_polytope():
    # max q1 - q2 over {q1 in [1,2], q2 >= 0, q1 >= q2}
    a_ub = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]])
    b_ub = np.array([-1.0, 2.0, 0.0, 0.0])
    res = solve_lp(np.array([1.0, -1.0]), a_ub, b_ub, maximize=True)
    assert res.value == pytest.approx(2.0)
    np.testing.assert_allclose(res.x, [2.0, 0.0], atol=1e-9)


def test_projected_descent_simple_quadratic():
    target = np.array([3.0, -1.0])
    projs = ordered_polyhedron_projectors([(np.array([1.0, 0.0]), 1.0)], 2)
    project = lambda q: dykstra_project(q, projs)[0]
    f = lambda q: float(np.sum((q - target) ** 2))
    q, v, _ = projected_descent(f, project, [np.zeros(2), np.array([2.0, 2.0])])
    np.testing.assert_allclose(q, [1.0, -1.0], atol=1e-5)


def test_simplex_weight_grid():
    grid = list(simplex_weight_grid(2, 4))
    assert len(grid) == 5
    for w in grid:
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w >= 0)
    assert len(list(simplex_weight_grid(1, 32))) == 1
    assert len(list(simplex_weight_grid(3, 8))) == 45  # C(10, 2)
