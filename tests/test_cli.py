import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import OptimizeResult

import ftvn.cli
import ftvn.solvers
from ftvn import get_instance
from ftvn.cli import main
from ftvn.eja import sym_coords
from ftvn.serialize import (canonical_dumps, element_from_json, element_to_json,
                            fnum, problem_from_json, set_spec_for)
from ftvn.spectral_sets import FiniteSet, GridOracle, OrderedPolyhedron


def test_fnum_roundtrip():
    v = fnum(2.0)
    assert v == {"dec": 2.0, "hex": "0x1.0000000000000p+1"}
    assert float.fromhex(v["hex"]) == 2.0
    assert fnum(float("inf"))["dec"] == "inf"


def test_element_json_roundtrips():
    sym2 = get_instance("sym:2")
    x = sym_coords(np.array([[0.0, 1.0], [1.0, 0.0]]))
    obj = element_to_json(sym2, x)
    assert obj == {"kind": "sym", "n": 2, "data": [[0.0, 1.0], [1.0, 0.0]]}
    np.testing.assert_allclose(element_from_json(sym2, obj), x)

    spin = get_instance("spin:3")
    y = np.array([1.0, 0.5, -0.5, 2.0])
    obj = element_to_json(spin, y)
    assert obj["kind"] == "spin"
    np.testing.assert_allclose(element_from_json(spin, obj), y)

    prod = get_instance("product:rn:2+sym:2")
    z = np.concatenate([[1.0, 2.0], sym_coords(np.eye(2))])
    obj = element_to_json(prod, z)
    assert obj["kind"] == "product" and len(obj["parts"]) == 2
    np.testing.assert_allclose(element_from_json(prod, obj), z)

    svd = get_instance("svd:2x3")
    w = np.arange(6.0)
    obj = element_to_json(svd, w)
    assert obj["kind"] == "rect" and obj["m"] == 2 and obj["n"] == 3
    np.testing.assert_allclose(element_from_json(svd, obj), w)

    rn3 = get_instance("rn:3")
    np.testing.assert_allclose(element_from_json(rn3, [1, 2, 3]), [1.0, 2.0, 3.0])

    with pytest.raises(ValueError):
        element_from_json(sym2, {"kind": "sym", "n": 2, "data": [[1.0, 2.0, 3.0]]})
    with pytest.raises(KeyError):
        element_from_json(rn3, {"kind": "mystery", "data": [1, 2, 3]})


def test_asymmetric_matrix_rejected():
    sym2 = get_instance("sym:2")
    with pytest.raises(ValueError):
        element_from_json(sym2, {"kind": "sym", "n": 2, "data": [[0.0, 1.0], [0.5, 0.0]]})


def test_set_spec_json():
    rn2 = get_instance("rn:2")
    spec = set_spec_for(rn2, {"kind": "finite", "points": [[1, 0]],
                              "permutation_invariant": True})
    assert isinstance(spec, FiniteSet) and spec.permutation_invariant

    spec = set_spec_for(rn2, {"kind": "polyhedron", "halfspaces": [
        {"normal": [1, 0], "offset": 2}]})
    assert isinstance(spec, OrderedPolyhedron)

    spec = set_spec_for(rn2, {"kind": "grid", "box": [[-1, 1], [-1, 1]],
                              "resolution": 5,
                              "membership": {"kind": "ball", "center": [0, 0],
                                             "radius": 1.0}})
    assert isinstance(spec, GridOracle)
    assert spec.membership(np.zeros(2))
    assert not spec.membership(np.array([2.0, 0.0]))


def test_problem_from_json_full():
    parts = problem_from_json({
        "instance": "rn:2",
        "objective": {"kind": "max_affine",
                      "pieces": [{"c": [1, 0], "alpha": 0.5}, {"c": [-1, 0]}]},
        "spectral_fn": {"kind": "custom_table", "points": [[1, 0]], "values": [2.0]},
        "combiner": "sum",
        "set": {"kind": "orbit", "u": [0, 1]},
        "sense": "min",
        "tol": 1e-9,
        "seed": 7})
    assert parts["inst"].name == "rn:2"
    assert parts["sense"] == "min"
    assert parts["seed"] == 7
    np.testing.assert_allclose(parts["set_spec"].u, [0.0, 1.0])


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_cli_check_pass_and_fail(capsys):
    code, doc = _run(capsys, ["check", "--instance", "rn:3", "--samples", "200",
                              "--seed", "1"])
    assert code == 0
    assert doc["schema"] == "ftvn/1"
    assert doc["axioms"]["passed"] is True
    assert doc["manifest"]["command"] == "check"

    code, doc = _run(capsys, ["check", "--instance", "z-counterexample",
                              "--samples", "64", "--seed", "1"])
    assert code == 2
    assert doc["axioms"]["passed"] is False
    assert doc["axioms"]["a3_worst_gap"]["dec"] >= 0.1

    code, doc = _run(capsys, ["check", "--instance", "rot90", "--samples", "128",
                              "--seed", "1"])
    assert code == 0
    assert doc["axioms"]["commute_fraction"]["dec"] == 1.0


def test_cli_solve_flagship(tmp_path, capsys):
    problem = {
        "instance": "sym:2",
        "objective": {"kind": "linear",
                      "c": {"kind": "sym", "n": 2, "data": [[1, 0], [0, -1]]}},
        "spectral_fn": {"kind": "zero"},
        "combiner": "sum",
        "set": {"kind": "polyhedron", "halfspaces": [
            {"normal": [-1, 0], "offset": -1},
            {"normal": [1, 0], "offset": 2},
            {"normal": [0, -1], "offset": 0}]},
        "sense": "max",
        "tol": 1e-8,
        "seed": 42}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    rep = doc["report"]
    assert rep["optimal_value"]["dec"] == pytest.approx(2.0, abs=1e-9)
    assert rep["attained"] is True
    assert rep["commutation"]["verdict"] is True
    assert rep["optimizer_v"]["kind"] == "sym"


def test_cli_solve_flat_symmetric_list(tmp_path, capsys):
    # a symmetric matrix written as its flat row-major list solves like the
    # structured form
    problem = {
        "instance": "sym:2",
        "objective": {"kind": "linear", "c": [1, 0, 0, -1]},
        "set": {"kind": "polyhedron", "halfspaces": [
            {"normal": [-1, 0], "offset": -1},
            {"normal": [1, 0], "offset": 2},
            {"normal": [0, -1], "offset": 0}]},
        "sense": "max"}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(problem))
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    rep = doc["report"]
    assert rep["optimal_value"]["dec"] == pytest.approx(2.0, abs=1e-9)
    assert rep["commutation"]["verdict"] is True
    assert rep["commutation"]["witness_present"] is True


def test_cli_solve_orbit_problem(tmp_path, capsys):
    problem = {
        "instance": "rn:3",
        "objective": {"kind": "linear", "c": {"kind": "rn", "data": [1, 2, 3]}},
        "set": {"kind": "orbit", "u": {"kind": "rn", "data": [0, 1, 0]}},
        "sense": "max"}
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(problem))
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    assert doc["report"]["optimal_value"]["dec"] == pytest.approx(3.0)


def test_cli_solve_infeasible_exit3(tmp_path, capsys):
    for q_set in [
            {"kind": "finite", "points": [[0, 1]]},
            {"kind": "finite", "points": []},
            # q1 <= -1 and q2 >= 1 contradict q1 >= q2: the LP route finds it empty
            {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": -1},
                                                  {"normal": [0, -1], "offset": -1}]}]:
        problem = {
            "instance": "rn:2",
            "objective": {"kind": "linear", "c": {"kind": "rn", "data": [1, 0]}},
            "set": q_set,
            "sense": "max"}
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(problem))
        code, doc = _run(capsys, ["solve", str(path)])
        assert code == 3
        assert doc["report"]["infeasible"] is True
        assert doc["report"]["optimal_value"]["dec"] == "-inf"


def test_cli_distance_problem(tmp_path, capsys):
    problem = {
        "instance": "sym:2",
        "objective": {"kind": "distance",
                      "c": {"kind": "sym", "n": 2, "data": [[-1, 0], [0, 0]]}},
        "set": {"kind": "polyhedron", "halfspaces": [
            {"normal": [-1, 0], "offset": -1},
            {"normal": [1, 0], "offset": 2},
            {"normal": [0, -1], "offset": 0}]},
        "sense": "min"}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(problem))
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    assert doc["report"]["optimal_value"]["dec"] == pytest.approx(2 ** 0.5, abs=1e-8)
    assert doc["report"]["commutation"]["verdict"] is True


def test_cli_envelope(tmp_path, capsys):
    doc_in = {"instance": "rn:2",
              "pieces": [{"c": {"kind": "rn", "data": [1, 0]}, "alpha": 0},
                         {"c": {"kind": "rn", "data": [-1, 0]}, "alpha": 0}],
              "q": [1, -1]}
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc_in))
    code, doc = _run(capsys, ["envelope", str(path)])
    assert code == 0
    assert doc["h_upper"]["dec"] == 1.0
    assert doc["h_lower_affine"]["dec"] == -1.0
    assert doc["h_lower_exact"]["dec"] == 1.0
    assert doc["lower_exact_is_exact"] is True


def test_cli_hausdorff(tmp_path, capsys):
    doc_in = {"instance": "rn:2",
              "e": {"kind": "finite", "points": [[2, 0]]},
              "f": {"kind": "finite", "points": [[1, 0]]}}
    path = tmp_path / "haus.json"
    path.write_text(json.dumps(doc_in))
    code, doc = _run(capsys, ["hausdorff", str(path)])
    assert code == 0
    assert doc["distance"]["dec"] == 1.0


def test_cli_vi(tmp_path, capsys):
    doc_in = {"instance": "rn:2",
              "set": {"kind": "finite", "points": [[1, 0], [0, 1]]},
              "a": {"kind": "rn", "data": [1, 0]},
              "g": {"kind": "identity"}}
    path = tmp_path / "vi.json"
    path.write_text(json.dumps(doc_in))
    code, doc = _run(capsys, ["vi", str(path)])
    assert code == 0
    assert doc["report"]["vi_residual"]["dec"] == pytest.approx(-1.0)
    assert doc["report"]["exact"] is True


@pytest.mark.parametrize("command, field, value", [
    ("vi", "tol", [1]),
    ("vi", "g", 3),
    ("vi", "seed", None),
    ("envelope", "seed", None),
    ("envelope", "q", None),
])
def test_cli_vi_and_envelope_fields_are_typed(tmp_path, capsys, command, field, value):
    # a field of the wrong JSON type is a usage error naming the field: exit
    # 1 and one stderr line, not an internal error
    docs = {"vi": {"instance": "rn:2",
                   "set": {"kind": "finite", "points": [[1, 0], [0, 1]]},
                   "a": {"kind": "rn", "data": [1, 0]},
                   "g": {"kind": "identity"}},
            "envelope": {"instance": "rn:2",
                         "pieces": [{"c": {"kind": "rn", "data": [1, 0]}, "alpha": 0}],
                         "q": [1, -1]}}
    doc_in = {**docs[command], field: value}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc_in))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field}:"), lines


def test_cli_vi_empty_finite_set(tmp_path, capsys):
    # an empty set has the instance's width and no member: a is not in it
    doc_in = {"instance": "rn:2", "set": {"kind": "finite", "points": []},
              "a": {"kind": "rn", "data": [1, 0]}, "g": {"kind": "identity"}}
    path = tmp_path / "vi.json"
    path.write_text(json.dumps(doc_in))
    assert main(["vi", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: a does not belong to the spectral set "
                                         "(lam(a) not in Q)"]
    spec = set_spec_for(get_instance("rn:2"), doc_in["set"])
    assert spec.points.shape == (0, 2)


@pytest.mark.parametrize("command, doc_in, message", [
    ("solve", {"instance": "rn:2", "set": {"kind": "finite", "points": [[1, 0]]}},
     "error: missing field 'objective'"),
    ("vi", {"instance": "rn:2", "set": {"kind": "finite", "points": [[1, 0]]},
            "a": {"kind": "rn", "data": [1, 0]}},
     "error: missing field 'g'"),
    # a KeyError raised with a message keeps its text
    ("vi", {"instance": "rn:2", "set": {"kind": "finite", "points": [[1, 0]]},
            "a": {"kind": "rn", "data": [1, 0]}, "g": {"kind": "spiral"}},
     "error: \"unknown map kind 'spiral'\""),
])
def test_cli_missing_field_is_named(tmp_path, capsys, command, doc_in, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc_in))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["check", "--instance", "unknown:5"]) == 1
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    # malformed problem files: exit 1 with one stderr line, no traceback and
    # no warning
    box = {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": 1}]}
    rn_c = {"kind": "rn", "data": [1, 0]}
    cases = [
        # an empty polyhedron has no dimension
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "polyhedron", "halfspaces": []}}, "halfspace"),
        ({"instance": "rn:2", "objective": {"kind": "max_affine", "pieces": []},
          "set": box}, "piece"),
        ({"instance": "rn:2", "set": box,
          "objective": {"kind": "linear", "c": {"kind": "rn", "data": [1, 0, 3]}}},
         "expected 2"),
        ({"instance": "sym:2", "set": box,
          "objective": {"kind": "linear",
                        "c": {"kind": "sym", "n": 3, "data": np.eye(3).tolist()}}},
         "expected 4"),
        ({"instance": "sym:2", "set": box,
          "objective": {"kind": "linear",
                        "c": {"kind": "sym", "n": 2, "data": [[math.nan, 0], [0, 1]]}}},
         "non-finite"),
        ({"instance": "rn:2", "set": box,
          "objective": {"kind": "distance", "c": {"kind": "rn", "data": [math.inf, 0]}}},
         "non-finite"),
        # a flat coordinate list is checked like the structured forms: an
        # element its instance's projection moves is no element
        ({"instance": "sym:2", "set": box,
          "objective": {"kind": "linear", "c": [1, 2, 0, -1]}}, "element space"),
        ({"instance": "product:rn:2+sym:2",
          "set": {"kind": "polyhedron",
                  "halfspaces": [{"normal": [1, 0, 0, 0], "offset": 1}]},
          "objective": {"kind": "linear",
                        "c": {"kind": "product", "parts": [[1, 0], [1, 2, 0, -1]]}}},
         "element space"),
        ({"instance": "z-counterexample", "set": {"kind": "finite", "points": [[3, 2, 1]]},
          "objective": {"kind": "linear", "c": [0, 1, 0]}}, "element space"),
        # set specs are checked against the instance before any solver sees them
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "finite", "points": [[1, 0, 0]]}}, "finite set"),
        # checked before duplicates are merged, which would drop the NaN point
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "finite", "points": [[1, 0], [math.nan, 0]]}}, "finite set"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "polyhedron",
                  "halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}}, "polyhedron set"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "polyhedron",
                  "halfspaces": [{"normal": [math.nan, 0], "offset": 1}]}}, "polyhedron set"),
        # past HiGHS's limits: it reads an offset of 1e20 as infinite (this
        # max would read unbounded) and refuses a normal entry of 1e15
        ({"instance": "rn:1", "objective": {"kind": "linear", "c": [1]}, "sense": "max",
          "set": {"kind": "polyhedron", "halfspaces": [{"normal": [1], "offset": 1e20},
                                                       {"normal": [-1], "offset": 5}]}},
         "LP solver's limits"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "polyhedron",
                  "halfspaces": [{"normal": [1e308, 1e308], "offset": 1e308}]}},
         "LP solver's limits"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "grid", "box": [[-1, 1]], "resolution": 5,
                  "membership": {"kind": "ball", "center": [0, 0], "radius": 1}}},
         "grid set"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "grid", "box": [[-1, 1], [-1, math.inf]], "resolution": 5,
                  "membership": {"kind": "ball", "center": [0, 0], "radius": 1}}},
         "grid set"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "grid", "box": [[-1, 1], [-1, 1]], "resolution": 5,
                  "membership": {"kind": "ball", "center": [0, math.nan], "radius": 1}}},
         "grid set"),
        ({"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c},
          "set": {"kind": "grid", "box": [[-1, 1], [-1, 1]], "resolution": 5,
                  "membership": {"kind": "halfspaces",
                                 "halfspaces": [{"normal": [1, 0, 0], "offset": 1}]}}},
         "grid set"),
    ]
    for i, (problem, needle) in enumerate(cases):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(problem))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == 1, problem
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1 and needle in captured.err, captured.err
    # the other commands that read sets check them the same way
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"instance": "rn:2",
                                "e": {"kind": "finite", "points": [[1, 0, 0]]},
                                "f": {"kind": "finite", "points": [[1, 0]]}}))
    assert main(["hausdorff", str(sets)]) == 1
    assert capsys.readouterr().err.startswith("error: finite set")


def test_cli_wrong_json_types_are_usage_errors(tmp_path, capsys):
    # a field of the wrong JSON type is named in one line with exit 1, not
    # reported as an internal error
    rn_c = {"kind": "rn", "data": [1, 0]}
    box = {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": 1}]}
    base = {"instance": "rn:2", "objective": {"kind": "linear", "c": rn_c}, "set": box}
    cases = [
        ([1, 2], "top level"),
        ({**base, "set": [1, 2]}, "set: expected an object, got an array"),
        ({**base, "spectral_fn": [1]}, "spectral_fn: expected an object, got an array"),
        ({**base, "objective": None}, "objective: expected an object, got null"),
        ({**base, "objective": {"kind": "linear", "c": True}},
         "element: expected an object, got a boolean"),
        ({**base, "instance": 3}, "instance name is a string"),
    ]
    for i, (problem, needle) in enumerate(cases):
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", str(path)]) == 1, problem
        captured = capsys.readouterr()
        assert captured.out == "" and "internal error" not in captured.err
        assert len(captured.err.splitlines()) == 1 and needle in captured.err, captured.err


_BOX = [{"normal": [1, 0], "offset": 1}, {"normal": [0, -1], "offset": 1}]


@pytest.mark.parametrize("instance, halfspaces, c, message", [
    ("rn:2", [{"normal": ["1", True], "offset": 1}], [1, 0],
     "polyhedron set: halfspace 0 normal: expected numbers, got a string"),
    ("rn:2", _BOX + [{"normal": [1, True], "offset": 1}], [1, 0],
     "polyhedron set: halfspace 2 normal: expected numbers, got a boolean"),
    ("rn:2", [{"normal": [[1], [0]], "offset": 1}], [1, 0],
     "polyhedron set: halfspace 0 normal: expected numbers, got an array"),
    ("rn:2", _BOX + [{"normal": [1, 0], "offset": False}], [1, 0],
     "polyhedron set: halfspace 2 offset: expected a number, got a boolean"),
    ("rn:2", _BOX, ["1", False], "element: expected numbers, got a string"),
    ("rn:2", _BOX, [1, False], "element: expected numbers, got a boolean"),
    ("rn:2", _BOX, {"kind": "rn", "data": [True, 0]},
     "rn element: data: expected numbers, got a boolean"),
    ("sym:2", _BOX, {"kind": "sym", "n": 2, "data": [[1, "0"], ["0", 1]]},
     "sym element: data: expected numbers, got a string"),
    ("spin:2", _BOX, {"kind": "spin", "x0": 1, "xbar": [True, 0]},
     "spin element: xbar: expected numbers, got a boolean"),
    ("svd:2x2", _BOX, {"kind": "rect", "m": 2, "n": 2, "data": [[1, 0], [None, 1]]},
     "rect element: data: expected numbers, got null"),
], ids=["normal-string", "normal-boolean", "normal-nested", "offset-boolean", "c-string",
        "c-boolean", "rn-boolean", "sym-string", "spin-boolean", "rect-null"])
def test_cli_strings_and_booleans_are_no_numbers(tmp_path, capsys, instance, halfspaces, c,
                                                 message):
    # a string, a boolean or null where a number belongs is a usage error
    # naming the field, never read as the number 1 or 0
    problem = {"instance": instance, "objective": {"kind": "linear", "c": c}, "sense": "max",
               "set": {"kind": "polyhedron", "halfspaces": halfspaces}}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


def test_cli_hausdorff_refuses_a_polyhedron(tmp_path, capsys):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps({
        "instance": "rn:2", "e": {"kind": "finite", "points": [[1, 0]]},
        "f": {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": 1}]}}))
    assert main(["hausdorff", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error" not in captured.err
    assert captured.err.splitlines() == [
        "error: hausdorff takes finite, orbit and grid sets, whose images are finite "
        "lists, not a polyhedron"]


def test_cli_solve_lp_failure_exit2(tmp_path, capsys, monkeypatch):
    # a HiGHS status that is neither optimal, infeasible nor unbounded is a
    # solver failure: exit 2 with one stderr line, no report
    def failing(*args, **kwargs):
        return OptimizeResult(status=1, message="Iteration limit reached.",
                              x=None, fun=None, nit=0)

    monkeypatch.setattr(ftvn.solvers, "_highs", failing)
    problem = {
        "instance": "rn:2",
        "objective": {"kind": "linear", "c": {"kind": "rn", "data": [1, 0]}},
        "set": {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": 1}]},
        "sense": "max"}
    path = tmp_path / "lp.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: LP solve failed: Iteration limit reached."]


def test_cli_solve_tiny_normal(tmp_path, capsys):
    # HiGHS drops matrix entries of 1e-9 or less; the row is scaled by a power
    # of two before the LP, so the maximum is 1e9, not +inf
    problem = {
        "instance": "rn:1",
        "objective": {"kind": "linear", "c": [1]},
        "set": {"kind": "polyhedron", "halfspaces": [{"normal": [1e-9], "offset": 1}]},
        "sense": "max"}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(problem))
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    rep = doc["report"]
    assert rep["attained"] is True and rep["solver_trace"]["method"] == "lp_simplex"
    assert rep["optimal_value"]["dec"] == pytest.approx(1e9, rel=1e-12)


@pytest.mark.parametrize("c, sense", [([1e20, 0], "max"), ([1.7e308, -1.7e308], "min")])
def test_cli_solve_cost_past_lp_limit_exit1(tmp_path, capsys, c, sense):
    # HiGHS reads a cost of 1e20 or more as infinite and ends these bounded
    # LPs with model status Unknown; the engine refuses the cost first
    problem = {
        "instance": "rn:2",
        "objective": {"kind": "linear", "c": c},
        "set": {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": 1},
                                                     {"normal": [0, -1], "offset": 1}]},
        "sense": sense}
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "error: the LP cost lam(c) is past the LP solver's limit: each entry must be "
        "below 1e+20 in size"]


def test_cli_solve_cost_near_1e19_exit0(tmp_path, capsys):
    # a cost below COST_LIMIT but far outside HiGHS's tolerances is fitted
    # into [1, 2) by a power of two, and its value scaled back
    problem = {
        "instance": "rn:3",
        "objective": {"kind": "linear", "c": [9e19, -9e19, 9e19]},
        "set": {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0, 0], "offset": 2},
                                                     {"normal": [0, 0, -1], "offset": 1}]},
        "sense": "min"}
    path = tmp_path / "cost.json"
    path.write_text(json.dumps(problem))
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    rep = doc["report"]
    assert rep["attained"] is True and rep["solver_trace"]["method"] == "lp_simplex"
    assert rep["optimal_value"]["dec"] == pytest.approx(-3.6e20, rel=1e-12)


def test_cli_solve_eigenvalues_past_norm_overflow_exit1(tmp_path, capsys):
    # ||c|| overflows in x.dot(x); lam(c) is still (1e200, -1e200), not the
    # unrotated diagonal (0, 0), so the supremum 2e200 is refused as an LP
    # cost instead of being reported as an attained 0
    problem = {
        "instance": "sym:2",
        "objective": {"kind": "linear", "c": [0, 1e200, 1e200, 0]},
        "set": {"kind": "polyhedron", "halfspaces": [{"normal": [1, 0], "offset": 2},
                                                     {"normal": [0, -1], "offset": 0}]},
        "sense": "max"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(problem))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the LP cost lam(c) is past the LP solver's limit: each entry must be "
        "below 1e+20 in size"]


def test_cli_internal_error_exit2(tmp_path, capsys, monkeypatch):
    # an exception no handler expects is a defect: exit 2, not usage's exit
    # 1, with one stderr line and no traceback
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect\nsecond line")

    monkeypatch.setattr(ftvn.cli, "reduce_solve", broken)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "instance": "rn:2",
        "objective": {"kind": "linear", "c": {"kind": "rn", "data": [1, 0]}},
        "set": {"kind": "finite", "points": [[1, 0]]}}))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: RuntimeError: simulated defect second line"]
    assert "Traceback" not in captured.err


def test_cli_paperpack_deterministic(tmp_path):
    out1 = tmp_path / "p1.json"
    out2 = tmp_path / "p2.json"
    assert main(["paperpack", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["paperpack", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["passed"] is True
    names = {r["name"] for r in doc["results"]}
    assert "flagship-sym2" in names and "z-subspace-a3-gap" in names


def test_canonical_dumps_sorted_keys():
    text = canonical_dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# JSON-like documents: escaped and unicode strings, bool beside int, floats
# (non-finite ones too) and np.float64, lists of floats or strings alone,
# nested lists, tuples and dicts, empty containers, and keys of every type
# json.dumps takes
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.floats().map(np.float64))
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_DOCS = st.recursive(
    _SCALARS | st.lists(st.floats()) | st.lists(st.text()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_DOCS)
@example(doc=[1.0, -math.inf])
@example(doc={"a": [np.float64(math.inf)]})
@example(doc={"a": np.int64(1)})
@example(doc=[np.bool_(True)])
@example(doc={(1, 2): 3})
@example(doc={1: 2, "a": 3})
def test_canonical_dumps_is_json_dumps(doc):
    # json.dumps is the oracle: the same bytes, or the same exception type
    # (ValueError for a non-finite float, TypeError for a type JSON has not
    # or for keys that do not sort)
    try:
        want = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)):
            canonical_dumps(doc)
    else:
        assert canonical_dumps(doc) == want


_STARTUP_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    import ftvn
    from ftvn.cli import main
    for name in ("rn:3", "sym:3", "spin:3", "product:sym:2+rn:2", "svd:2x3",
                 "z-counterexample"):
        ftvn.get_instance(name)
    sym3 = ftvn.get_instance("sym:3")
    assert ftvn.axiom_suite(sym3, seed=1, n_samples=20).passed
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", "--instance", "sym:3", "--samples", "20"]) == 0
    assert not any(m.startswith("scipy") for m in sys.modules), "loaded before any solve"
    import numpy as np
    from ftvn.solvers import project_polyhedron, solve_lp
    rn2 = ftvn.get_instance("rn:2")
    box = ftvn.OrderedPolyhedron.from_halfspaces((((1.0, 0.0), 2.0), ((0.0, -1.0), 0.0)))
    ftvn.reduce_solve_linear(rn2, rn2.element([1.0, -1.0]), box, sense="max")
    ftvn.reduce_solve(rn2, ftvn.DistanceObjective(rn2.element([3.0, -1.0])), box)
    highs, nnls_lib = "scipy.optimize._highspy._core", "scipy.optimize._slsqplib"
    assert "scipy.optimize" not in sys.modules, "a solve imported scipy.optimize"
    assert highs in sys.modules and nnls_lib in sys.modules, "the kernels were not loaded"
    kernels = (sys.modules[highs], sys.modules[nnls_lib])
    a_ub, b_ub = box.rows()
    lp = solve_lp(np.array([1.0, -1.0]), a_ub, b_ub, maximize=True)
    q, certified = project_polyhedron(np.array([3.0, -1.0]), a_ub, b_ub)
    # scipy.optimize imported afterwards gives the same answers and uses the
    # same module objects
    from scipy.optimize import linprog, nnls
    import scipy.optimize._highspy._highs_wrapper as wrapper
    import scipy.optimize._nnls as nnls_wrapper
    assert (sys.modules[highs], sys.modules[nnls_lib]) == kernels
    assert wrapper._h is kernels[0] and nnls_wrapper._nnls is kernels[1].nnls
    want = linprog([-1.0, 1.0], A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                   method="highs-ds", options={"presolve": False})
    assert lp.status == "optimal" and want.status == 0
    assert list(lp.x) == list(want.x) and lp.value == -want.fun
    a, b = ftvn.solvers.unit_rows(a_ub, b_ub)
    h = a @ np.array([3.0, -1.0]) - b
    s = float(np.max(np.abs(h)))
    u, _ = nnls(np.vstack([-a.T, h / s]), np.array([0.0, 0.0, 1.0]))
    d = 1.0 - float(h @ u) / s
    assert certified and list(q) == list(np.array([3.0, -1.0]) - a.T @ ((s / d) * u))
""")


def test_scipy_optimize_loads_only_for_a_solve():
    # import, instance building and the axiom suite need only numpy; an LP
    # and a projection load two compiled kernels of scipy's, not
    # scipy.optimize (most of the start-up time and memory)
    src = os.path.dirname(os.path.dirname(ftvn.solvers.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Mutated problem files: the README's flagship document and one small document
# per other set kind, each with one key dropped or one value (the whole
# document included) replaced by null, a list, a bool, a string or a number
_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_PROBLEMS = [
    json.loads(re.search(r"```json\n(.*?)```", _README, flags=re.S).group(1)),
    {"instance": "rn:2", "objective": {"kind": "distance", "c": {"kind": "rn", "data": [3, 0]}},
     "spectral_fn": {"kind": "custom_table", "points": [[2, 1], [1, 0.5]], "values": [1, 2]},
     "set": {"kind": "finite", "points": [[2, 1], [1, 0.5]]}, "sense": "min"},
    {"instance": "sym:2", "combiner": "sum",
     "objective": {"kind": "max_affine",
                   "pieces": [{"c": {"kind": "sym", "n": 2, "data": [[1, 0.5], [0.5, 0]]},
                               "alpha": 0.5}]},
     "set": {"kind": "orbit", "u": [2, 0, 0, -1]}, "sense": "max", "seed": 3},
    {"instance": "rn:2", "objective": {"kind": "linear", "c": [1, -1]}, "tol": 1e-8,
     "set": {"kind": "grid", "box": [[-1, 1], [-1, 1]], "resolution": 5,
             "membership": {"kind": "ball", "center": [0, 0], "radius": 1}}},
]
_DROP = object()
_HUGE = [1e308, -1e308]
_VALUES = [None, [], [1, 2], [[1, 2]], True, False, "", "x", 0, -1, 0.5, 3] + _HUGE


def _paths(doc, path=()):
    # every path of keys and indices into doc, the empty one first
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, path + (key,))


def _element_entry(path):
    # an entry of an element's coordinates: an array index below a "c" or "u" key
    return bool(path) and isinstance(path[-1], int) and any(k in ("c", "u") for k in path[:-1])


def _mutated(doc, path, value):
    # doc with the value at path replaced, or dropped
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _mutated_problems(draw):
    doc = draw(st.sampled_from(_PROBLEMS))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from(_VALUES + [_DROP] if path else _VALUES))
    # test_cli_solve_huge_element_entries holds these
    assume(not (_element_entry(path) and value in _HUGE))
    dropped = path[-1] if value is _DROP and isinstance(path[-1], str) else None
    return _mutated(doc, path, value), dropped


def _check_solve(problem, tmp_path_factory, dropped=None):
    # an exit code of the documented four, one stderr line with no traceback,
    # internal error or warning, and stdout empty or canonical JSON.  A
    # usage error after a dropped field names the field
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(problem))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["solve", str(path)])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and not caught, (lines, [str(w.message) for w in caught])
    assert "Traceback" not in lines[0] and "internal error" not in lines[0], lines[0]
    if dropped is not None and code == 1:
        assert lines[0] == f"error: missing field {dropped!r}", lines[0]
    text = out.getvalue()
    assert text == "" or canonical_dumps(json.loads(text)) == text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutant=_mutated_problems())
def test_cli_solve_survives_mutated_problem_files(mutant, tmp_path_factory):
    problem, dropped = mutant
    _check_solve(problem, tmp_path_factory, dropped)


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: an element entry near 1e308 "
                   "overflows in numpy arithmetic, which prints RuntimeWarnings")
def test_cli_solve_huge_element_entries(tmp_path_factory):
    # each entry of each element of the documents above set to +-1e308
    for doc in _PROBLEMS:
        for path in filter(_element_entry, _paths(doc)):
            for value in _HUGE:
                _check_solve(_mutated(doc, path, value), tmp_path_factory)
