"""Times at a reference machine speed.

On a shared machine the speed of one core drifts: the same 16x16 Jacobi
eigendecomposition, timed in 2 s blocks over 50 s, had block medians from
3.2 ms to 6.0 ms.  The drift lasts seconds to tens of seconds, so it does not
average out within one run.  The harness therefore times a fixed calibration
loop after every op and scales each time by ``CAL_REF_MS`` over the loop's
median time in the same schedule round: a time then reads as it would on a
machine where the loop takes ``CAL_REF_MS``.  Raw times are printed beside
the scaled ones.  The loop mixes the program's three kinds of work: pure-Python
float arithmetic on nested lists (as in the Jacobi kernel), many small numpy
calls (as in the simplex, PAV and Dykstra solvers) and a sort of a larger
array (as in the z-counterexample's grid search).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CAL_REF_MS = 1.0

_ROWS = [[math.sin(12 * i + j) for j in range(12)] for i in range(12)]
_VEC = np.linspace(0.5, 1.5, 48)
_GRID = np.sin(np.arange(24000.0)).reshape(8000, 3)
# scale factors come from at least this many calibration samples
MIN_SAMPLES = 12


def _loop() -> float:
    rows = [r[:] for r in _ROWS]
    for p in range(11):
        rp = rows[p]
        for q in range(p + 1, 12):
            rq = rows[q]
            for r in range(12):
                x1 = rp[r]
                x2 = rq[r]
                rp[r] = 0.8 * x1 - 0.6 * x2
                rq[r] = 0.6 * x1 + 0.8 * x2
    v = _VEC.copy()
    m = np.outer(v[:12], v[:12])
    for _ in range(40):
        v = np.sqrt(v * v + 1.0) - 1.0
        m = m - np.dot(m[0], m[1]) * 1e-3
        v[int(np.argmax(v))] = float(np.linalg.norm(v)) * 1e-3
    g = np.sort(-_GRID, axis=1)
    return rows[0][0] + float(v[0]) + float(m[0, 0]) + float(g[0, 0])


def calibrate() -> float:
    """Time one run of the calibration loop, in ms."""
    start = time.perf_counter()
    _loop()
    return 1e3 * (time.perf_counter() - start)


def factor(cal_ms: list[float]) -> float:
    """Scale from measured to reference speed, given calibration samples."""
    return CAL_REF_MS / statistics.median(cal_ms)


def round_factors(cal_ms: list[float], period: int) -> list[float]:
    """One scale per op: the factor of the schedule rounds it ran in, taken
    together until they hold MIN_SAMPLES ops."""
    size = period * -(-MIN_SAMPLES // period)
    out = []
    for start in range(0, len(cal_ms), size):
        chunk = cal_ms[start:start + size]
        out.extend([factor(chunk)] * len(chunk))
    return out
