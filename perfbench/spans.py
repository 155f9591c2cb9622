"""Span tracing from outside the program.

The traced run replaces the public functions each layer calls at run time
with wrappers that record a span (name, start, end, parent span, op id) and,
where the function returns one, a work count (LP iterations, Dykstra sweeps,
descent iterations).  Spans stay in memory until the run ends, then go to a
file.  Self time is a span's duration minus the time its direct child spans
cover.

A wrapped name that no longer exists is reported as missing, with the reason,
instead of crashing the run or reading as zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import json
import math
import time
from array import array
from collections import defaultdict

_NULL = contextlib.nullcontext()

# span name -> (module, attribute, work extractor)
MODULE_TARGETS = {
    "linalg.eigh": ("ftvn.eja", "eigh_desc", None),
    "linalg.svd": ("ftvn.nds", "svd_jacobi", None),
    "solvers.lp": ("ftvn.reduce", "solve_lp", lambda out: out.iterations),
    "solvers.dykstra": ("ftvn.reduce", "dykstra_project", lambda out: out[1]),
    "solvers.descent": ("ftvn.reduce", "projected_descent", lambda out: out[2]),
    "core.commute_check": ("ftvn.reduce", "commute_check", None),
    "spectral_sets.probe": ("ftvn.reduce", "probe_monotone", None),
}
INSTANCE_FIELDS = {"lam": "lam", "witness": "a3_witness"}
EJA_FAMILIES = ("rn", "sym", "spin", "product")
NDS_FAMILIES = ("svd", "z", "rot90")


class NullTracer:
    """Tracing off: no wrappers, no spans."""

    def span(self, name):
        return _NULL

    def instrument_instance(self, inst):
        return inst

    def begin_op(self, index):
        pass


class Tracer:
    def __init__(self):
        # one entry per span, in typed arrays: the garbage collector, which
        # the harness runs after every op, has nothing here to traverse
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("d")   # NaN where the function returns no count
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []
        self.missing: dict[str, str] = {}

    # -- recording -----------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.work.append(math.nan)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                try:
                    self.work[idx] = work(out)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.missing[f"{name}.work"] = f"no work count in the result: {exc}"
            return out
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        for name, (module_name, attr, work) in MODULE_TARGETS.items():
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module_name}.{attr}: {exc}"
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def instrument_instance(self, inst):
        """A copy of the instance whose lam and A3 witness record spans under
        the layer (eja or nds) that implements the instance's family."""
        family = getattr(inst, "family", "")
        layer = "eja" if family in EJA_FAMILIES else "nds" if family in NDS_FAMILIES else "other"
        changes = {}
        for short, attr in INSTANCE_FIELDS.items():
            fn = getattr(inst, attr, None)
            if not callable(fn):
                self.missing[f"{layer}.{short}"] = f"FtvnInstance has no callable {attr!r}"
                continue
            changes[attr] = self._wrap(f"{layer}.{short}", fn)
        try:
            return dataclasses.replace(inst, **changes)
        except (TypeError, ValueError) as exc:
            for short in INSTANCE_FIELDS:
                self.missing[f"{layer}.{short}"] = f"cannot wrap instance fields: {exc}"
            return inst

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, column by column, as gzipped JSON; times are
        perf_counter seconds, parent -1 marks a root span."""
        doc = {"names": self._names,
               "columns": {"name": self.name.tolist(), "start": self.start.tolist(),
                           "end": self.end.tolist(), "parent": self.parent.tolist(),
                           "op": self.op.tolist(),
                           "work": [None if math.isnan(w) else w for w in self.work]}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total duration, self time (seconds) and the
        work count of each call that returned one."""
        child_time = defaultdict(float)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[idx] - self.start[idx]
        out: dict[str, dict] = {}
        for idx, name_id in enumerate(self.name):
            row = out.setdefault(self._names[name_id],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": []})
            duration = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[idx]
            if not math.isnan(self.work[idx]):
                row["work"].append(self.work[idx])
        return out
