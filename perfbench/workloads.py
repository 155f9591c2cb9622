"""Seeded op streams for the three workloads, and the code that runs one op.

Op ``i`` of a run depends only on ``(seed, i)``, so a faster commit runs a
longer prefix of the same stream, never different inputs.  Each workload
cycles a fixed schedule of op kinds, so every run, whatever its seed, has the
same mix; the seed only draws the numbers inside each problem.  Why each
workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Every polyhedron bounds q_1 <= HI and q_N >= LO.  LO > 0 keeps singular-value
# targets nonnegative and neg_logdet finite on the whole set.
LO, HI = 0.5, 4.0


@dataclass(frozen=True)
class Op:
    """One unit of work: a problem document for ``solve`` ops, or the
    (instance, seed, samples) triple of ``ftvn check`` for ``axiom`` ops.

    ``feasible_point`` is for the oracle only: the generator's strictly
    feasible point of the polyhedron, which the program never sees.
    """

    index: int
    kind: str            # "solve" | "axiom"
    label: str           # instance name, e.g. "sym:24"
    oracle: str          # "lp" | "distance" | "descent" | "axiom"
    text: str = ""       # solve: the problem document as JSON text
    seed: int = 0        # axiom: the suite seed
    n_samples: int = 0   # axiom: the suite sample count
    feasible_point: tuple = ()


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _polyhedron(rng, n: int, k: int) -> tuple[dict, np.ndarray]:
    """Bounds on q_1 and q_N plus k random halfspaces, all strictly satisfied
    at a random sorted point p, so the set is bounded and never empty."""
    p = -np.sort(-rng.uniform(LO + 0.3, HI - 0.3, n))
    top = np.zeros(n)
    top[0] = 1.0
    bottom = np.zeros(n)
    bottom[-1] = -1.0
    hs = [{"normal": top.tolist(), "offset": HI},
          {"normal": bottom.tolist(), "offset": -LO}]
    for _ in range(k):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        hs.append({"normal": a.tolist(), "offset": float(a @ p + rng.uniform(0.1, 1.0))})
    return {"kind": "polyhedron", "halfspaces": hs}, p


def _solve_op(index: int, instance: str, objective: dict, poly: dict, p: np.ndarray,
              sense: str, oracle: str, phi: str, op_seed: int) -> Op:
    doc = {"instance": instance, "objective": objective,
           "spectral_fn": {"kind": phi}, "combiner": "sum", "set": poly,
           "sense": sense, "tol": 1e-8, "seed": op_seed}
    return Op(index=index, kind="solve", label=instance, oracle=oracle,
              text=json.dumps(doc), feasible_point=tuple(p.tolist()))


# ---------------------------------------------------------------------------
# sym-solve: linear objectives over bounded ordered polyhedra, where the
# spectral kernel does nearly all the work

# Per round of 8: one sym:8 and one svd:12x8 below the median, two sym:24
# above it, so op_p50_ms is the middle of the sym:16 ops and op_tail_ms falls
# inside the sym:24 ops.  The second round flips every sense.
_SYM_ROUND = [("sym", 16, "max"), ("sym", 24, "max"), ("sym", 8, "max"),
              ("sym", 16, "min"), ("svd", (12, 8), "min"), ("sym", 16, "max"),
              ("sym", 24, "min"), ("sym", 16, "min")]
SYM_SCHEDULE = _SYM_ROUND + [(f, n, "min" if s == "max" else "max") for f, n, s in _SYM_ROUND]


def sym_solve_op(seed: int, index: int) -> Op:
    family, size, sense = SYM_SCHEDULE[index % len(SYM_SCHEDULE)]
    rng = _rng(seed, index)
    if family == "sym":
        g = rng.standard_normal((size, size))
        c = {"kind": "sym", "n": size, "data": (0.5 * (g + g.T)).tolist()}
        instance, rank = f"sym:{size}", size
    else:
        m, n = size
        c = {"kind": "rect", "m": m, "n": n, "data": rng.standard_normal((m, n)).tolist()}
        instance, rank = f"svd:{m}x{n}", min(m, n)
    poly, p = _polyhedron(rng, rank, 3)
    return _solve_op(index, instance, {"kind": "linear", "c": c}, poly, p, sense,
                     "lp", "zero", int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# wside-solve: rn instances (lam is a sort), so the W-side solvers do the work

# Per round of 12: the four rn:16 distance ops sit below the median and the
# rn:32 ops and two descents above it, so op_p50_ms is the middle of the rn:16
# LPs and op_tail_ms falls inside the descent ops.
WSIDE_SCHEDULE = [("lp", 16, "max"), ("distance", 16, "min"), ("lp", 32, "max"),
                  ("distance", 16, "min"), ("descent", 3, "min"), ("lp", 16, "min"),
                  ("distance", 32, "min"), ("lp", 16, "max"), ("distance", 16, "min"),
                  ("descent", 4, "min"), ("lp", 16, "min"), ("distance", 16, "min")]


def wside_solve_op(seed: int, index: int) -> Op:
    kind, n, sense = WSIDE_SCHEDULE[index % len(WSIDE_SCHEDULE)]
    rng = _rng(seed, index)
    instance = f"rn:{n}"
    op_seed = int(rng.integers(2**31))
    if kind == "lp":
        poly, p = _polyhedron(rng, n, n)
        c = (3.0 * rng.standard_normal(n)).tolist()
        return _solve_op(index, instance, {"kind": "linear", "c": c}, poly, p, sense,
                         "lp", "zero", op_seed)
    if kind == "distance":
        # c near the polyhedron: a few halfspaces are active at the projection
        poly, p = _polyhedron(rng, n, n)
        c = rng.permutation(p + 0.5 * rng.standard_normal(n)).tolist()
        return _solve_op(index, instance, {"kind": "distance", "c": c}, poly, p, sense,
                         "distance", "zero", op_seed)
    # neg_logdet is not affine, so this takes the projected-descent route.
    # c in [0.6, 1] puts the unconstrained minimizer (q_i = 1/c_i) well inside
    # the box.  No random halfspace here: with one, the cost of a descent op is
    # heavy-tailed (0.1 s to 15 s over 30 draws), which no run length steadies.
    poly, p = _polyhedron(rng, n, 0)
    c = rng.uniform(0.6, 1.0, n).tolist()
    return _solve_op(index, instance, {"kind": "linear", "c": c}, poly, p, sense,
                     "descent", "neg_logdet", op_seed)


# ---------------------------------------------------------------------------
# axiom-check: thousands of tiny lam / witness calls, no solver calls

AXIOM_SCHEDULE = [("sym:4", 100), ("svd:4x3", 100), ("spin:16", 100),
                  ("product:rn:3+sym:3", 100), ("z-counterexample", 20)]


def axiom_check_op(seed: int, index: int) -> Op:
    label, n_samples = AXIOM_SCHEDULE[index % len(AXIOM_SCHEDULE)]
    rng = _rng(seed, index)
    return Op(index=index, kind="axiom", label=label, oracle="axiom",
              seed=int(rng.integers(2**31)), n_samples=n_samples)


WORKLOADS = {
    "sym-solve": (sym_solve_op, len(SYM_SCHEDULE),
                  ["sym:8", "sym:16", "sym:24", "svd:12x8"]),
    "wside-solve": (wside_solve_op, len(WSIDE_SCHEDULE),
                    ["rn:16", "rn:32", "rn:3", "rn:4"]),
    "axiom-check": (axiom_check_op, len(AXIOM_SCHEDULE),
                    [label for label, _ in AXIOM_SCHEDULE]),
}


# ---------------------------------------------------------------------------
# running one op

def execute(op: Op, api, tracer) -> str:
    """Run one op the way the ``ftvn solve`` / ``ftvn check`` commands do,
    in-process, and return the canonical report text."""
    if op.kind == "solve":
        with tracer.span("serialize.parse"):
            parts = api.problem_from_json(json.loads(op.text))
        inst = tracer.instrument_instance(parts["inst"])
        with tracer.span("reduce.solve"):
            report = api.reduce_solve(inst, parts["objective"], parts["set_spec"],
                                      phi=parts["phi"], combiner=parts["combiner"],
                                      sense=parts["sense"], tol=parts["tol"],
                                      seed=parts["seed"])
        with tracer.span("serialize.emit"):
            return api.canonical_dumps({"schema": api.SCHEMA,
                                        "report": api.solve_report_json(inst, report)})
    inst = tracer.instrument_instance(api.get_instance(op.label))
    with tracer.span("core.axiom_suite"):
        report = api.axiom_suite(inst, seed=op.seed, n_samples=op.n_samples)
    with tracer.span("serialize.emit"):
        return api.canonical_dumps({"schema": api.SCHEMA,
                                    "axioms": api.axiom_report_json(report)})
