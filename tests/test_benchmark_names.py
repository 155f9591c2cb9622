"""The names the benchmark's span tracer wraps must exist in the program.

``perfbench/spans.py`` replaces functions and instance fields by name; a name
that is gone leaves its per-layer metric null and the benchmark's last line
malformed.  This test reads the tracer's tables as they are and checks each
name against the code here.
"""

import dataclasses
import importlib
import math

import numpy as np

from ftvn import get_instance
from ftvn.solvers import ordered_polyhedron_projectors

from conftest import load_perfbench


def _resolve(module_name, attr):
    return getattr(importlib.import_module(module_name), attr)


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
