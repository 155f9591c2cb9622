"""JSON encoding of elements, problem files, and reports.

Every numeric value is emitted twice (decimal and hexfloat) so reports
round-trip bit-exactly.  ``canonical_dumps`` fixes key order; identical
inputs therefore give byte-identical reports.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import (AxiomReport, CommutationCert, DimensionMismatch, FtvnInstance,
                   check_element_space, get_instance)
from .eja import JordanAlgebra, sym_coords
from .nds import RectMatrixSpace
from .reduce import (DistanceObjective, LinearObjective, MaxAffineObjective,
                     SolveReport, VIReport)
from .spectral_sets import (Combiner, FiniteSet, GridOracle, OrbitOf,
                            OrderedPolyhedron, PRODUCT, SUM,
                            SpectralFunctionSpec, ZERO_FN, neg_logdet_fn,
                            table_fn)

SCHEMA = "ftvn/1"


def fnum(x) -> dict:
    x = float(x)
    if math.isfinite(x):
        return {"dec": x, "hex": x.hex()}
    return {"dec": repr(x), "hex": x.hex()}  # 'inf', '-inf', 'nan' as strings


def farr(arr) -> dict:
    vals = [float(v) for v in np.asarray(arr, dtype=float).ravel()]
    return {"dec": vals, "hex": [v.hex() for v in vals]}


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# JSON types of input fields

_NUMBER = (int, float)
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", _NUMBER: "a number",
               int: "a number", float: "a number", bool: "a boolean", type(None): "null"}


def _typed(value, kind, field: str):
    """value, when it has the JSON type `kind`; otherwise a usage error
    (ValueError) that names the field.  A boolean is no number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{field}: expected {_JSON_TYPES[kind]}, got {got}")
    return value


def _number(value, field: str) -> float:
    if not math.isfinite(_typed(value, _NUMBER, field)):
        raise ValueError(f"{field}: expected a finite number, got {value}")
    return float(value)


# Every number of a finite set's point, a grid or a table, and every
# max_affine alpha, is below this in size: a product of three such numbers,
# summed over thousands of terms, stays finite.  Elements are bounded only
# where an LP reads them, by COST_LIMIT.
_SIZE_LIMIT = 1e100


def _check_size(values, what: str) -> None:
    if not np.all(np.abs(values) < _SIZE_LIMIT):
        raise ValueError(f"{what} has a non-finite entry or one of {_SIZE_LIMIT:g} "
                         f"or more in size")


# ---------------------------------------------------------------------------
# elements

def _checked_element(inst: FtvnInstance, coords) -> np.ndarray:
    # a malformed element in an input file is a usage error (ValueError), not
    # the DimensionMismatch, a solver failure, that a library caller gets
    try:
        v = inst.check_element(coords)
    except DimensionMismatch as exc:
        raise ValueError(str(exc)) from None
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{inst.name}: element has a non-finite entry")
    check_element_space(inst, v)
    return v


def element_from_json(inst: FtvnInstance, obj) -> np.ndarray:
    if isinstance(obj, (list, tuple)):
        return _checked_element(inst, obj)
    kind = _typed(obj, dict, "element")["kind"]
    if kind == "rn":
        coords = np.asarray(obj["data"], dtype=float)
    elif kind == "sym":
        coords = sym_coords(np.asarray(obj["data"], dtype=float))
    elif kind == "spin":
        coords = np.concatenate([[_number(obj["x0"], "spin element: x0")],
                                 np.asarray(obj["xbar"], dtype=float)])
    elif kind == "rect":
        coords = np.asarray(obj["data"], dtype=float).ravel()
    elif kind == "product":
        alg = inst.backend
        if not isinstance(alg, JordanAlgebra) or alg.kind != "product":
            raise ValueError("product element for a non-product instance")
        parts = _typed(obj["parts"], list, "product element: parts")
        coords = np.concatenate([element_from_json(part.instance, part_obj)
                                 for part, part_obj in zip(alg.parts, parts)])
    else:
        raise KeyError(f"unknown element kind {kind!r}")
    return _checked_element(inst, coords)


def element_to_json(inst: FtvnInstance, coords) -> dict:
    coords = np.asarray(coords, dtype=float)
    backend = inst.backend
    if isinstance(backend, JordanAlgebra):
        if backend.kind == "sym":
            n = int(round(math.sqrt(coords.size)))
            return {"kind": "sym", "n": n,
                    "data": coords.reshape(n, n).tolist()}
        if backend.kind == "spin":
            return {"kind": "spin", "x0": float(coords[0]), "xbar": coords[1:].tolist()}
        if backend.kind == "product":
            parts = []
            offset = 0
            for part in backend.parts:
                parts.append(element_to_json(part.instance,
                                             coords[offset:offset + part.dim_v]))
                offset += part.dim_v
            return {"kind": "product", "parts": parts}
        return {"kind": "rn", "data": coords.tolist()}
    if isinstance(backend, RectMatrixSpace):
        return {"kind": "rect", "m": backend.m, "n": backend.n,
                "data": coords.reshape(backend.m, backend.n).tolist()}
    return {"kind": "rn", "data": coords.tolist()}


# ---------------------------------------------------------------------------
# problem pieces

def set_spec_for(inst: FtvnInstance, obj) -> Any:
    """A set spec read from JSON, each kind checked as it is built against
    the instance's W-side dimension; an orbit's element is read on the
    instance itself.

    A set of the wrong width, with a non-finite entry, with an entry past
    ``_SIZE_LIMIT`` or with a field of the wrong JSON type is a usage error
    (``ValueError`` naming the set), not an empty set or a solver failure.
    """
    n = inst.dim_w
    kind = _typed(obj, dict, "set")["kind"]
    if kind == "finite":
        points = np.atleast_2d(np.asarray(obj["points"], dtype=float))
        if points.size:
            if points.shape[1] != n:
                raise ValueError(f"finite set: points have {points.shape[1]} "
                                 f"coordinates, expected {n}")
            _check_size(points, "finite set: a point")
        return FiniteSet(points=points,
                         permutation_invariant=bool(obj.get("permutation_invariant", False)))
    if kind == "polyhedron":
        hs = tuple((np.asarray(a, dtype=float), b)
                   for a, b in _halfspaces(obj["halfspaces"], "polyhedron set"))
        for i, (normal, _) in enumerate(hs):
            if normal.shape != (n,):
                raise ValueError(f"polyhedron set: halfspace {i} has a normal of "
                                 f"length {normal.size}, expected {n}")
        if not np.isfinite([a for a, _ in hs]).all():
            raise ValueError("polyhedron set: a halfspace has a non-finite entry")
        return OrderedPolyhedron(halfspaces=hs)
    if kind == "orbit":
        return OrbitOf(element_from_json(inst, obj["u"]))
    if kind == "grid":
        box = np.asarray(obj["box"], dtype=float)
        if box.shape != (n, 2):
            raise ValueError(f"grid set: box has shape {box.shape}, expected ({n}, 2)")
        _check_size(box, "grid set: the box")
        member = _typed(obj["membership"], dict, "grid set: membership")
        if member["kind"] == "ball":
            center = _grid_vector("ball center", member["center"], n)
            radius = _number(member["radius"], "grid set: ball radius")
            fn = lambda q: bool(np.linalg.norm(q - center) <= radius)
        elif member["kind"] == "halfspaces":
            hs = [(_grid_vector(f"halfspace {i} normal", a, n), b)
                  for i, (a, b) in enumerate(_halfspaces(member["halfspaces"], "grid set"))]
            fn = lambda q: all(float(np.dot(a, q)) <= b + 1e-12 for a, b in hs)
        else:
            raise KeyError(f"unknown grid membership {member['kind']!r}")
        return GridOracle(membership=fn, box=box,
                          resolution=int(_number(obj["resolution"], "grid set: resolution")))
    raise KeyError(f"unknown set kind {kind!r}")


def _halfspaces(value, field: str) -> list[tuple[Any, float]]:
    """(normal, offset) of each halfspace object in the array value."""
    out = []
    for i, h in enumerate(_typed(value, list, f"{field}: halfspaces")):
        at = f"{field}: halfspace {i}"
        out.append((_typed(h, dict, at)["normal"], _number(h["offset"], f"{at} offset")))
    return out


def _grid_vector(name: str, obj, n: int) -> np.ndarray:
    vec = np.asarray(obj, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"grid set: {name} has length {vec.size}, expected {n}")
    _check_size(vec, f"grid set: {name}")
    return vec


def phi_from_json(obj) -> SpectralFunctionSpec:
    if obj is None:
        return ZERO_FN
    kind = _typed(obj, dict, "spectral_fn")["kind"]
    if kind == "zero":
        return ZERO_FN
    if kind == "neg_logdet":
        return neg_logdet_fn()
    if kind == "custom_table":
        points = np.atleast_2d(np.asarray(obj["points"], dtype=float))
        values = np.asarray(obj["values"], dtype=float)
        if values.shape != points.shape[:1]:
            raise ValueError("custom_table spectral_fn: values must be numbers, one per point")
        _check_size(points, "custom_table spectral_fn: a point")
        _check_size(values, "custom_table spectral_fn: a value")
        return table_fn(points, values)
    raise KeyError(f"unknown spectral_fn kind {kind!r}")


def combiner_from_json(name) -> Combiner:
    if name in (None, "sum"):
        return SUM
    if name == "product":
        return PRODUCT
    raise KeyError(f"unknown combiner {name!r}")


def objective_from_json(inst: FtvnInstance, obj):
    kind = _typed(obj, dict, "objective")["kind"]
    if kind == "linear":
        return LinearObjective(element_from_json(inst, obj["c"]))
    if kind == "distance":
        return DistanceObjective(element_from_json(inst, obj["c"]))
    if kind == "max_affine":
        pieces = []
        for i, p in enumerate(_typed(obj["pieces"], list, "max_affine objective: pieces")):
            at = f"max_affine objective: piece {i}"
            alpha = _number(_typed(p, dict, at).get("alpha", 0.0), f"{at} alpha")
            _check_size(alpha, f"{at} alpha")
            pieces.append((element_from_json(inst, p["c"]), alpha))
        return MaxAffineObjective(tuple(pieces))
    raise KeyError(f"unknown objective kind {kind!r}")


def problem_from_json(obj: dict) -> dict:
    inst = get_instance(obj["instance"])
    spec = set_spec_for(inst, obj["set"])
    tol = _number(obj.get("tol", 1e-8), "tol")
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol: expected a number at least 0 and below 1, got {tol}")
    return {
        "inst": inst,
        "objective": objective_from_json(inst, obj["objective"]),
        "phi": phi_from_json(obj.get("spectral_fn")),
        "combiner": combiner_from_json(obj.get("combiner")),
        "set_spec": spec,
        "sense": obj.get("sense", "max"),
        "tol": tol,
        "seed": int(_number(obj.get("seed", 0), "seed")),
    }


# ---------------------------------------------------------------------------
# reports

def cert_json(cert: CommutationCert | None) -> Any:
    if cert is None:
        return None
    return {
        "residual_inner": fnum(cert.residual_inner),
        "residual_dist": fnum(cert.residual_dist),
        "residual_addnorm": fnum(cert.residual_addnorm),
        "residual_addvec": fnum(cert.residual_addvec),
        "verdict": bool(cert.verdict),
        "witness_present": cert.witness is not None,
    }


def solve_report_json(inst: FtvnInstance, report: SolveReport) -> dict:
    return {
        "sense": report.sense,
        "optimal_value": fnum(report.optimal_value),
        "optimizer_w": None if report.optimizer_w is None else farr(report.optimizer_w),
        "optimizer_v": None if report.optimizer_v is None
                       else element_to_json(inst, report.optimizer_v),
        "commutation": cert_json(report.commutation),
        "commutes_with": report.commutes_with,
        "attained": report.attained,
        "infeasible": report.infeasible,
        "reduction_gap": fnum(report.reduction_gap),
        "solver_trace": report.solver_trace,
    }


def axiom_report_json(report: AxiomReport) -> dict:
    out = {
        "instance": report.instance,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "tol": fnum(report.tol),
        "a1_max": fnum(report.a1_max),
        "a2_violation": fnum(report.a2_violation),
        "a2_min_gap": fnum(report.a2_min_gap),
        "homogeneity_max": fnum(report.homogeneity_max),
        "sandwich_inner_violation": fnum(report.sandwich_inner_violation),
        "sandwich_dist_violation": fnum(report.sandwich_dist_violation),
        "a3_max_lambda_residual": fnum(report.a3_max_lambda_residual),
        "a3_max_inner_residual": fnum(report.a3_max_inner_residual),
        "a3_worst_gap": fnum(report.a3_worst_gap),
        "a3_failures": report.a3_failures,
        "commute_fraction": fnum(report.commute_fraction),
        "passed": report.passed,
        "notes": list(report.notes),
    }
    if report.a3_worst_pair is not None:
        c, q = report.a3_worst_pair
        out["a3_worst_pair"] = {"c": farr(c), "q": farr(q)}
    return out


def vi_report_json(report: VIReport) -> dict:
    return {
        "membership_ok": report.membership_ok,
        "vi_residual": fnum(report.vi_residual),
        "worst_point": None if report.worst_point is None else farr(report.worst_point),
        "commutation": cert_json(report.cert),
        "exact": report.exact,
        "consistent": report.consistent,
    }
