"""Command line front end.

Subcommands: check | solve | paperpack | envelope | hausdorff | vi.
Reports are canonical JSON (schema "ftvn/1", every number in decimal and
hexfloat); identical (input, seed) pairs produce byte-identical reports.
Wall time goes to stderr only, so it never perturbs report bytes.

Exit codes: 0 success, 1 usage/IO error, 2 property or solver failure or an
internal error, 3 infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

import numpy as np

from .core import FtvnError, MonotonicityError, WitnessError, axiom_suite, get_instance
from .reduce import (envelope_lower_affine, envelope_lower_exact, envelope_upper,
                     hausdorff_spectral, reduce_solve, vi_commutation_check)
from .regressions import run_pack
from .serialize import (SCHEMA, axiom_report_json, canonical_dumps,
                        element_from_json, farr, fnum, objective_from_json,
                        problem_from_json, set_spec_for, solve_report_json,
                        vi_report_json)
from .spectral_sets import OrderedPolyhedron

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_INFEASIBLE = 3


def _manifest(command: str, input_path, seed, tol, output) -> dict:
    # the output path (like wall time) is environment, not input: identical
    # (input, seed) runs must stay byte-identical, so both go to stderr only
    if output not in (None, "-"):
        print(f"writing report to {output}", file=sys.stderr)
    return {"command": command, "input": input_path, "seed": seed,
            "tol": None if tol is None else fnum(tol), "output": None}


def _emit(doc: dict, out_path) -> None:
    text = canonical_dumps(doc)
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return doc


def _cmd_check(args) -> int:
    inst = get_instance(args.instance)
    report = axiom_suite(inst, seed=args.seed, n_samples=args.samples, tol=args.tol)
    doc = {"schema": SCHEMA,
           "manifest": _manifest("check", args.instance, args.seed, args.tol, args.out),
           "axioms": axiom_report_json(report)}
    _emit(doc, args.out)
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_solve(args) -> int:
    obj = _load_json(args.problem)
    parts = problem_from_json(obj)
    inst = parts["inst"]
    report = reduce_solve(inst, parts["objective"], parts["set_spec"],
                          phi=parts["phi"], combiner=parts["combiner"],
                          sense=parts["sense"], tol=parts["tol"], seed=parts["seed"])
    doc = {"schema": SCHEMA,
           "manifest": _manifest("solve", args.problem, parts["seed"],
                                 parts["tol"], args.out),
           "report": solve_report_json(inst, report)}
    _emit(doc, args.out)
    return EXIT_INFEASIBLE if report.infeasible else EXIT_OK


def _cmd_paperpack(args) -> int:
    pack = run_pack(seed=args.seed)
    doc = {"schema": SCHEMA,
           "manifest": _manifest("paperpack", None, args.seed, None, args.out),
           "passed": bool(pack.passed),
           "results": [{"name": r.name, "passed": bool(r.passed),
                        "details": _jsonable(r.details)} for r in pack.results]}
    _emit(doc, args.out)
    return EXIT_OK if pack.passed else EXIT_PROPERTY


def _jsonable(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return farr(value)
    return fnum(value)


def _cmd_envelope(args) -> int:
    obj = _load_json(args.input)
    inst = get_instance(obj["instance"])
    objective = objective_from_json(inst, {"kind": "max_affine", "pieces": obj["pieces"]})
    q = np.asarray(obj["q"], dtype=float)
    upper = envelope_upper(inst, objective.pieces, q)
    lower_affine = envelope_lower_affine(inst, objective.pieces, q)
    lower_exact, exact = envelope_lower_exact(inst, partial(objective.value_v, inst), q,
                                              seed=int(obj.get("seed", 0)))
    doc = {"schema": SCHEMA,
           "manifest": _manifest("envelope", args.input, obj.get("seed", 0), None, args.out),
           "q": farr(q),
           "h_upper": fnum(upper),
           "h_lower_affine": fnum(lower_affine),
           "h_lower_exact": fnum(lower_exact),
           "lower_exact_is_exact": exact}
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_hausdorff(args) -> int:
    obj = _load_json(args.input)
    inst = get_instance(obj["instance"])
    spec_e = set_spec_for(inst, obj["e"])
    spec_f = set_spec_for(inst, obj["f"])
    if isinstance(spec_e, OrderedPolyhedron) or isinstance(spec_f, OrderedPolyhedron):
        raise ValueError("hausdorff takes finite, orbit and grid sets, whose images are "
                         "finite lists, not a polyhedron")
    try:
        value = hausdorff_spectral(inst, spec_e, spec_f)
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    doc = {"schema": SCHEMA,
           "manifest": _manifest("hausdorff", args.input, None, None, args.out),
           "distance": fnum(value)}
    _emit(doc, args.out)
    return EXIT_OK


def _make_field(inst, obj):
    kind = obj["kind"]
    if kind == "constant":
        c = element_from_json(inst, obj["c"])
        return lambda x: c
    if kind == "identity":
        return lambda x: x
    if kind == "affine":
        mat = np.asarray(obj["matrix"], dtype=float)
        b = np.asarray(obj["b"], dtype=float)
        return lambda x: mat @ x + b
    raise KeyError(f"unknown map kind {kind!r}")


def _cmd_vi(args) -> int:
    obj = _load_json(args.input)
    inst = get_instance(obj["instance"])
    spec = set_spec_for(inst, obj["set"])
    a = element_from_json(inst, obj["a"])
    field = _make_field(inst, obj["g"])
    tol = float(obj.get("tol", 1e-8))
    seed = int(obj.get("seed", 0))
    report = vi_commutation_check(inst, field, spec, a, tol=tol, seed=seed)
    doc = {"schema": SCHEMA,
           "manifest": _manifest("vi", args.input, seed, tol, args.out),
           "report": vi_report_json(report)}
    _emit(doc, args.out)
    return EXIT_OK if report.consistent else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftvn",
        description="Spectral-set optimization over eigenvalue-map systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom suite on an instance")
    p.add_argument("--instance", required=True,
                   help="e.g. rn:3, sym:2, spin:4, svd:3x2, product:rn:2+sym:2, "
                        "rot90, z-counterexample, hyp:prod:3")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("problem")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("paperpack", help="run the known-value regression pack")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_paperpack)

    p = sub.add_parser("envelope", help="evaluate convex envelopes at a point")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("hausdorff", help="Hausdorff distance of two finite spectral sets")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_hausdorff)

    p = sub.add_parser("vi", help="variational-inequality commutation check")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_vi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    started = time.perf_counter()
    try:
        code = args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WitnessError, MonotonicityError) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except FtvnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except Exception as exc:  # a defect, not an input error: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_PROPERTY
    elapsed = time.perf_counter() - started
    print(f"{args.command}: done in {elapsed:.3f}s (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
