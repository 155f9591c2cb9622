"""ftvn benchmark: one workload, one process, a closed loop with one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload sym-solve --seed 1 --seconds 15 --trace 0

Phases of a run:

1. set-up: fresh child interpreters import ``ftvn`` from ``src/`` and build the
   workload's instances (``setup_s``); with ``--trace 1`` also a bare
   interpreter (``cli.interp_ms``).
2. warm-up: ops from the seeded stream run until ``--seconds`` have passed
   and the schedule's round is complete; their reports are kept.
3. timed window: the same ops run again, each starting when the previous one
   returned.  Every report must match its warm-up bytes.  The calibration
   loop of ``clock.py`` runs after each op, outside its time, and every time
   is reported at reference speed.
4. with ``--trace 1``: the same ops once more with span wrappers installed,
   for the per-layer metrics and the tracing overhead; the spans are written
   to ``perfbench/out/``.
5. oracles: every report is checked against numpy / scipy.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Lines before it record the environment and the
human-readable table, including ``fail_frac``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from importlib.metadata import version
from pathlib import Path

# One BLAS thread: the loop has one caller, and the machine's cores are shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"


import numpy as np  # noqa: E402  (after the BLAS setting)

from clock import calibrate, factor, round_factors  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, execute  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10

# A child interpreter that imports ftvn and builds the given instances, then
# times the calibration loop (numpy is loaded by then) in the same process.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ftvn
t1 = time.perf_counter()
for name in sys.argv[3:]:
    ftvn.get_instance(name)
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from clock import calibrate
cal = [calibrate() for _ in range(7)]
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "cal_ms": cal}))
"""


def _child_wall(args: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


def measure_setup(instances: list[str], trace: bool) -> dict:
    """Median wall time of fresh interpreters that import ftvn and build the
    instances, each scaled by its own calibration.  One unmeasured child
    first compiles the bytecode."""
    setup_args = ["-c", _SETUP_CHILD, str(SRC), str(HERE), *instances]
    _child_wall(setup_args)
    raw, scaled, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        wall, out = _child_wall(setup_args)
        child = json.loads(out.strip().splitlines()[-1])
        scale = factor(child["cal_ms"])
        raw.append(wall)
        scaled.append(wall * scale)
        imports.append(1e3 * child["import_s"] * scale)
    out = {"setup_s": statistics.median(scaled), "setup_raw_s": statistics.median(raw),
           "import_ms": statistics.median(imports)}
    if trace:
        # a bare interpreter cannot time the loop itself: calibrate just before
        interp = []
        for _ in range(SETUP_REPEATS):
            scale = factor([calibrate() for _ in range(7)])
            interp.append(1e3 * _child_wall(["-c", "pass"])[0] * scale)
        out["interp_ms"] = statistics.median(interp)
    return out


def environment(seed: int) -> dict:
    return {"seed": seed, "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "openblas_threads": _openblas_threads()}


def _openblas_threads() -> int | str:
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(str(lib)), fn)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            return int(get())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (env; library not found)"


class Api:
    """The public ftvn functions an op calls, resolved once."""

    def __init__(self):
        import ftvn
        from ftvn import reduce, serialize
        self.problem_from_json = serialize.problem_from_json
        self.solve_report_json = serialize.solve_report_json
        self.axiom_report_json = serialize.axiom_report_json
        self.canonical_dumps = serialize.canonical_dumps
        self.SCHEMA = serialize.SCHEMA
        self.reduce_solve = reduce.reduce_solve
        self.get_instance = ftvn.get_instance
        self.axiom_suite = ftvn.axiom_suite


def _attempt(op, api, tracer) -> tuple[str | None, str | None, float]:
    """Run one op: (report text or None, error or None, seconds)."""
    tracer.begin_op(op.index)
    start = time.perf_counter()
    try:
        text, err = execute(op, api, tracer), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        text, err = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    # Each op starts from a collected heap, as each ftvn command starts in a
    # fresh process.  Otherwise cycles that hold a z-counterexample's 2.4 MB
    # grid live until the collector happens to run, and the peak RSS of
    # identical runs differs by up to 20%.
    gc.collect()
    return text, err, elapsed


def _pack(text: str | None) -> bytes | None:
    # kept reports are compressed so that their number barely moves the peak RSS
    return None if text is None else zlib.compress(text.encode())


def run_pass(ops, api, tracer, reference: list):
    """Run ops in order, closed loop, timing the calibration loop after each;
    each report must equal its packed reference.  Returns (latencies s,
    calibration ms, per-op error or None)."""
    latencies, cal_ms, errors = [], [], []
    for op, ref in zip(ops, reference):
        text, err, elapsed = _attempt(op, api, tracer)
        latencies.append(elapsed)
        cal_ms.append(calibrate())
        if err is None and _pack(text) != ref:
            err = "report bytes differ from the warm-up run"
        errors.append(err)
    return latencies, cal_ms, errors


def warm_up(make_op, period: int, seed: int, seconds: float, api, tracer):
    """Run the op stream until `seconds` have passed and the schedule round is
    complete; return the ops, their packed reports and errors."""
    ops, packed, errors = [], [], []
    start = time.perf_counter()
    while len(ops) % period or time.perf_counter() - start < seconds:
        op = make_op(seed, len(ops))
        text, err, _ = _attempt(op, api, tracer)
        ops.append(op)
        packed.append(_pack(text))
        errors.append(err)
    return ops, packed, errors


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_MIN_BEYOND timed ops beyond it, and
    its value: the (TAIL_MIN_BEYOND + 1)-th largest latency."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1]


def layer_metrics(summary: dict, missing: dict, ops, texts, scale: float) -> dict:
    """Per-layer metrics from the traced pass, per op (or per call for work
    counts) so commits that fit different op counts compare; times are at
    reference speed (seconds times `scale`)."""
    n_ops = len(ops)
    per_op_ms = 1e3 * scale / n_ops
    n_solves = sum(op.kind == "solve" for op in ops)

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": []})

    out: dict[str, tuple] = {}

    def put(metric, value, unit, needs=()):
        gone = [missing[n] for n in needs if n in missing]
        out[metric] = (None, unit, gone[0]) if gone else (value, unit, None)

    for name in ("linalg.eigh", "linalg.svd", "eja.lam", "eja.witness", "nds.lam",
                 "nds.witness", "core.commute_check", "solvers.lp", "solvers.dykstra",
                 "solvers.descent"):
        r = row(name)
        put(f"{name}.calls", r["calls"] / n_ops, "1/op", (name,))
        put(f"{name}.self_ms", r["self_s"] * per_op_ms, "ms/op", (name,))
    decomps = row("linalg.eigh")["calls"] + row("linalg.svd")["calls"]
    put("reduce.decomps_per_solve", decomps / n_solves if n_solves else 0.0, "1/solve",
        ("linalg.eigh", "linalg.svd"))
    for name, metric in (("solvers.lp", "solvers.lp.iterations"),
                         ("solvers.dykstra", "solvers.dykstra.sweeps"),
                         ("solvers.descent", "solvers.descent.iterations")):
        work = row(name)["work"]
        put(metric, statistics.fmean(work) if work else 0.0, "1/call", (name, f"{name}.work"))
    import ftvn.solvers
    cap = getattr(ftvn.solvers, "DYKSTRA_MAX_SWEEPS", None)
    if cap is None:
        missing = {**missing, "solvers.dykstra.cap": "ftvn.solvers has no DYKSTRA_MAX_SWEEPS"}
    sweeps = row("solvers.dykstra")["work"]
    capped = sum(s >= cap for s in sweeps) if cap is not None else 0
    put("solvers.dykstra.converged_frac", 1.0 - capped / len(sweeps) if sweeps else 1.0,
        "fraction", ("solvers.dykstra", "solvers.dykstra.work", "solvers.dykstra.cap"))
    put("core.axiom_suite.self_ms", row("core.axiom_suite")["self_s"] * per_op_ms, "ms/op")
    put("spectral_sets.probe.self_ms", row("spectral_sets.probe")["self_s"] * per_op_ms,
        "ms/op", ("spectral_sets.probe",))
    put("reduce.self_ms", row("reduce.solve")["self_s"] * per_op_ms, "ms/op")
    put("serialize.parse_ms", row("serialize.parse")["total_s"] * per_op_ms, "ms/op")
    put("serialize.emit_ms", row("serialize.emit")["total_s"] * per_op_ms, "ms/op")
    routes = {"lp_simplex": 0, "dykstra_projection": 0, "projected_descent": 0, "other": 0}
    for op, text in zip(ops, texts):
        if op.kind == "solve" and text is not None:
            method = json.loads(text)["report"]["solver_trace"].get("method")
            routes[method if method in routes else "other"] += 1
    for method, count in routes.items():
        put(f"reduce.route.{method}", count, "count")
    put("trace.ops", n_ops, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ftvn" / "__init__.py").is_file():
        print(f"error: no ftvn sources under {SRC}", file=sys.stderr)
        return 2
    make_op, period, instances = WORKLOADS[args.workload]
    trace = bool(args.trace)

    # set-up first, before this process imports scipy or ftvn
    setup = measure_setup(instances, trace)
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace, **env}, sort_keys=True))

    api = Api()
    null = NullTracer()
    gc.collect()
    gc.freeze()  # the collection after each op then scans only the op's objects
    ops, packed, errors = warm_up(make_op, period, args.seed, args.seconds, api, null)
    texts = [None if p is None else zlib.decompress(p).decode() for p in packed]
    lat, cal, timed_errors = run_pass(ops, api, null, packed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [a or b for a, b in zip(errors, timed_errors)]
    lat_ms = [1e3 * x * f for x, f in zip(lat, round_factors(cal, period))]

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_lat, traced_cal, traced_errors = run_pass(ops, api, tracer, packed)
        finally:
            tracer.uninstall()
        errors = [a or b for a, b in zip(errors, traced_errors)]
        traced_ms = [1e3 * x * f for x, f in zip(traced_lat, round_factors(traced_cal, period))]

    from oracles import check  # imports scipy, so only after the peak RSS is read
    for i, (op, text) in enumerate(zip(ops, texts)):
        if errors[i] is None:
            errors[i] = check(op, text)
    failed = [(op, err) for op, err in zip(ops, errors) if err is not None]
    for op, err in failed[:20]:
        print(f"FAILED op {op.index} ({op.label}, {op.oracle}): {err}")

    attempted = len(ops)
    pct, tail_ms = tail(lat_ms)
    fail_frac = len(failed) / attempted
    print(f"timed ops {attempted} in {sum(lat):.3f} s raw, {sum(lat_ms) / 1e3:.3f} s at "
          f"reference speed; op_tail_ms is p{pct:.1f} over {attempted} ops; "
          f"fail_frac {fail_frac:.6g} ({len(failed)}/{attempted}); "
          f"setup_s raw {setup['setup_raw_s']:.4f}")
    by_label: dict[str, list] = {}
    for op, ms in zip(ops, lat_ms):
        by_label.setdefault(f"{op.label}/{op.oracle}", []).append(ms)
    for label, values in sorted(by_label.items()):
        print(f"  {label:32s} ops {len(values):4d}  p50 {statistics.median(values):9.3f} ms  "
              f"max {max(values):9.3f} ms")
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json.gz"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        rows = layer_metrics(tracer.summary(), tracer.missing, ops, texts,
                             factor(traced_cal))
        rows["trace.overhead_pct"] = (100.0 * (sum(traced_ms) / sum(lat_ms) - 1.0), "%", None)
        rows["cli.interp_ms"] = (setup["interp_ms"], "ms", None)
        rows["cli.import_ms"] = (setup["import_ms"], "ms", None)
    else:
        # the median over schedule rounds: one slow stretch of a shared
        # machine moves it less than the whole-window mean
        rounds = [sum(lat_ms[i:i + period]) / 1e3 for i in range(0, attempted, period)]
        rows = {"ops_per_s": (period / statistics.median(rounds), "1/s", None),
                "op_p50_ms": (statistics.median(lat_ms), "ms", None),
                "op_tail_ms": (tail_ms, "ms", None),
                "ok_frac": (1.0 - fail_frac, "fraction", None),
                "setup_s": (setup["setup_s"], "s", None),
                "peak_rss_mb": (peak_rss_mb, "MB", None)}
    metrics = {}
    for name, (value, unit, reason) in rows.items():
        metrics[name] = {"value": value, "unit": unit}
        if reason is not None:
            metrics[name]["missing"] = reason
        shown = "missing: " + reason if reason is not None else f"{value:.6g}"
        print(f"{name:34s} {shown} {unit}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
