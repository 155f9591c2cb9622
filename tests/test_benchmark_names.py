"""The names the benchmark's span tracer wraps must exist in the program.

``perfbench/spans.py`` replaces functions and instance fields by name; a name
that is gone leaves its per-layer metric null and the benchmark's last line
malformed.  This test reads the tracer's tables as they are and checks each
name against the code here.
"""

import dataclasses
import importlib
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import ftvn.reduce
import ftvn.serialize
from ftvn import axiom_suite, get_instance
from ftvn.solvers import ordered_polyhedron_projectors

from conftest import PERFBENCH, assert_fitted_to_highs, load_perfbench


def _resolve(module_name, attr):
    return getattr(importlib.import_module(module_name), attr)


def _api():
    # the functions perfbench/run.py's Api resolves
    serialize = ftvn.serialize
    return SimpleNamespace(problem_from_json=serialize.problem_from_json,
                           solve_report_json=serialize.solve_report_json,
                           axiom_report_json=serialize.axiom_report_json,
                           canonical_dumps=serialize.canonical_dumps, SCHEMA=serialize.SCHEMA,
                           reduce_solve=ftvn.reduce.reduce_solve, get_instance=get_instance,
                           axiom_suite=axiom_suite)


def test_traced_functions_resolve_and_return_work_counts():
    spans = load_perfbench("spans")
    # the per-layer metrics also read the Dykstra sweep cap
    assert isinstance(_resolve("ftvn.solvers", "DYKSTRA_MAX_SWEEPS"), int)
    fns = {name: _resolve(module, attr)
           for name, (module, attr, _) in spans.MODULE_TARGETS.items()}
    assert all(callable(fn) for fn in fns.values())

    square = lambda q: float(np.sum((q - 3.0) ** 2))
    # a box projection is also the projection in any diagonal metric
    box = lambda q, h=None: np.minimum(q, 1.0)
    samples = {
        "solvers.lp": [lambda f: f(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                                   maximize=True)],
        "solvers.dykstra": [lambda f: f(np.array([2.0, 0.0]), ordered_polyhedron_projectors(
            [(np.array([1.0, 0.0]), 1.0)], 2))],
        # finite differences, then projected Newton steps from the derivatives
        "solvers.descent": [
            lambda f: f(square, box, [np.zeros(2)]),
            lambda f: f(square, box, [np.zeros(2)], first_finite=True,
                        grad=lambda q: 2.0 * (q - 3.0),
                        hess_diag=lambda q: np.full(q.size, 2.0)),
        ],
    }
    extractors = {name: work for name, (_, _, work) in spans.MODULE_TARGETS.items()
                  if work is not None}
    assert set(extractors) == set(samples)
    for name, work in extractors.items():
        for sample in samples[name]:
            count = work(sample(fns[name]))
            assert math.isfinite(count) and count >= 1, name


def test_workload_instances_take_traced_fields():
    spans = load_perfbench("spans")
    workloads = load_perfbench("workloads")
    for _, _, names in workloads.WORKLOADS.values():
        for name in names:
            inst = get_instance(name)
            fields = {attr: getattr(inst, attr) for attr in spans.INSTANCE_FIELDS.values()}
            assert all(callable(fn) for fn in fields.values()), name
            dataclasses.replace(inst, **fields)


@pytest.mark.parametrize("workload", ["sym-solve", "wside-solve", "axiom-check"])
def test_traced_round_wraps_every_name_and_keeps_the_bytes(workload):
    # the first schedule round of the workload, run as the harness's traced
    # pass runs it: every wrapped name resolves (a missing one nulls its
    # metric), and the traced reports are the untraced bytes
    spans = load_perfbench("spans")
    workloads = load_perfbench("workloads")
    api = _api()
    make_op, period, _ = workloads.WORKLOADS[workload]
    ops = [make_op(1, i) for i in range(period)]
    plain = [workloads.execute(op, api, spans.NullTracer()) for op in ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for op in ops:
            tracer.begin_op(op.index)
            traced.append(workloads.execute(op, api, tracer))
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    assert traced == plain


@pytest.mark.parametrize("workload", ["sym-solve", "wside-solve"])
def test_benchmark_oracles_pass_two_rounds(workload):
    # the reports of the first two schedule rounds at seed 1, checked by the
    # benchmark's own oracles: a report the benchmark would count as an
    # incorrect output fails here first
    spans = load_perfbench("spans")
    workloads = load_perfbench("workloads")
    oracles = load_perfbench("oracles")
    make_op, period, _ = workloads.WORKLOADS[workload]
    api = _api()
    failures = {}
    for i in range(2 * period):
        op = make_op(1, i)
        reason = oracles.check(op, workloads.execute(op, api, spans.NullTracer()))
        if reason is not None:
            failures[f"{op.index} {op.label}/{op.oracle}"] = reason
    assert failures == {}


@pytest.mark.parametrize("workload", ["sym-solve", "wside-solve"])
def test_highs_sees_each_workload_lp_in_the_window(workload, highs_calls):
    # the first schedule round: every row and cost reaches HiGHS with its
    # largest entry in [2^-10, 2^10)
    spans = load_perfbench("spans")
    workloads = load_perfbench("workloads")
    make_op, period, _ = workloads.WORKLOADS[workload]
    api = _api()
    for i in range(period):
        workloads.execute(make_op(1, i), api, spans.NullTracer())
    assert_fitted_to_highs(highs_calls)


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py as it is, with perfbench/ on sys.path for its own
    imports; the BLAS thread variables it sets on import and the modules it
    imports from perfbench/ are put back as they were."""
    saved = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    modules = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield load_perfbench("run")
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        for name in set(sys.modules) - modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]


@pytest.mark.parametrize("workload", ["sym-solve", "wside-solve"])
def test_traced_round_ends_in_strict_json(workload, perfbench_run):
    # the harness's traced pass over the first schedule round, measured by
    # its own layer_metrics: a metric whose wrapped name is gone is null,
    # and a non-finite value is not strict JSON; either would leave the
    # run's last line no result
    run = perfbench_run
    make_op, period, _ = run.WORKLOADS[workload]
    ops = [make_op(1, i) for i in range(period)]
    api = run.Api()
    attempts = [run._attempt(op, api, run.NullTracer()) for op in ops]
    assert [err for _, err, _ in attempts] == [None] * period
    texts = [text for text, _, _ in attempts]
    tracer = run.Tracer()
    tracer.install()
    try:
        _, cal, errors = run.run_pass(ops, api, tracer, [run._pack(t) for t in texts])
    finally:
        tracer.uninstall()
    assert errors == [None] * period
    rows = run.layer_metrics(tracer.summary(), tracer.missing, ops, texts, run.factor(cal))
    assert {name: reason for name, (_, _, reason) in rows.items() if reason is not None} == {}
    for name, (value, _, _) in rows.items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)
    json.dumps({name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
               allow_nan=False)
