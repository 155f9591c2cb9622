import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import ftvn.reduce
import ftvn.solvers
from ftvn import get_instance
from ftvn.eja import JordanAlgebra
from ftvn.linalg import eigh_desc
from ftvn.nds import RectMatrixSpace


@pytest.fixture(scope="session")
def rn2():
    return get_instance("rn:2")


@pytest.fixture(scope="session")
def rn3():
    return get_instance("rn:3")


@pytest.fixture(scope="session")
def sym2():
    return get_instance("sym:2")


@pytest.fixture(scope="session")
def sym3():
    return get_instance("sym:3")


@pytest.fixture(scope="session")
def spin4():
    return get_instance("spin:4")


@pytest.fixture
def highs_calls(monkeypatch):
    """Every (cost, rows) pair HiGHS is given during the test, as
    ``ftvn.solvers._highs`` receives it."""
    real = ftvn.solvers._highs
    calls = []

    def recording(c, a_ub, *args, **kwargs):
        calls.append((np.array(c), np.array(a_ub)))
        return real(c, a_ub, *args, **kwargs)

    monkeypatch.setattr(ftvn.solvers, "_highs", recording)
    return calls


@pytest.fixture
def projection_calls(monkeypatch):
    """The point of every ``project_polyhedron`` call ``ftvn.reduce`` makes
    during the test: a work count for the projected descent."""
    real = ftvn.reduce.project_polyhedron
    calls = []

    def recording(w, *args, **kwargs):
        calls.append(np.array(w))
        return real(w, *args, **kwargs)

    monkeypatch.setattr(ftvn.reduce, "project_polyhedron", recording)
    return calls


def assert_fitted_to_highs(calls):
    """Every nonzero row and nonzero cost HiGHS saw has its largest entry in
    [2^-10, 2^10) in size."""
    assert calls
    for c, a_ub in calls:
        tops = np.abs(np.vstack([c, a_ub])).max(axis=1)
        assert np.all((tops == 0.0) | ((2.0 ** -10 <= tops) & (tops < 2.0 ** 10))), tops


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A module of the benchmark harness, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# independent oracles (never reuse the code paths under test)

def brute_orbit_rn(q):
    """All points with the same sorted coordinates: plain permutation listing."""
    return np.array(sorted(set(itertools.permutations(np.asarray(q, float).tolist()))))


def brute_v_rn(f, points, phi=lambda q: 0.0, combine=lambda t, s: t + s, sense="max"):
    """The exact V-side optimum over E = {x : sort(x) in Q} on rn:n (n <= 3)
    for a finite Q: the best combine(f(x), phi(sort x)) over every
    permutation x of every member whose decreasing sort is a member.
    Returns (value, x)."""
    members = {tuple(p) for p in np.asarray(points, float).tolist()}
    best = None
    for p in members:
        for x in brute_orbit_rn(p):
            q = tuple(sorted(x.tolist(), reverse=True))
            if q not in members:
                continue
            v = combine(f(x), phi(np.array(q)))
            if best is None or (v > best[0] if sense == "max" else v < best[0]):
                best = (v, x)
    return best


def enumerate_polytope_vertices(a_ub, b_ub, tol=1e-9):
    """Vertex enumeration for {q : A q <= b}: solve every n x n subsystem and
    keep feasible solutions.  Exponential, test-scale only."""
    a_ub = np.asarray(a_ub, float)
    b_ub = np.asarray(b_ub, float)
    m, n = a_ub.shape
    verts = []
    for rows in itertools.combinations(range(m), n):
        sub = a_ub[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b_ub[list(rows)])
        if np.all(a_ub @ v <= b_ub + tol * (1.0 + np.abs(b_ub))):
            verts.append(v)
    return np.array(verts) if verts else np.zeros((0, n))


def haar_batch(rng, count, n):
    """``count`` Haar-random n x n orthogonal matrices: QR of Gaussian
    matrices, with the signs of R's diagonal moved into Q."""
    z = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    d = np.sign(np.einsum("kii->ki", r))
    d[d == 0] = 1.0
    return q * d[:, None, :]


def _jordan_orbit_rows(alg, rows, rng):
    """One element of ``alg`` per row of eigenvalues, on an independent
    random frame; a product first shuffles each row across its parts."""
    count, rank = rows.shape
    if alg.kind == "rn":
        return np.take_along_axis(rows, np.argsort(rng.random(rows.shape), axis=1), axis=1)
    if alg.kind == "sym":
        qm = haar_batch(rng, count, rank)
        return np.einsum("kij,kj,klj->kil", qm, rows, qm).reshape(count, rank * rank)
    if alg.kind == "spin":
        axes = rng.standard_normal((count, alg.dim_v - 1))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        hi, lo = rows.max(axis=1), rows.min(axis=1)
        return np.column_stack([0.5 * (hi + lo), 0.5 * (hi - lo)[:, None] * axes])
    mixed = np.take_along_axis(rows, np.argsort(rng.random(rows.shape), axis=1), axis=1)
    offsets = np.cumsum([0] + [p.rank for p in alg.parts])
    return np.concatenate([_jordan_orbit_rows(p, mixed[:, lo:hi], rng)
                           for p, lo, hi in zip(alg.parts, offsets, offsets[1:])], axis=1)


def reference_orbit_sample(inst, q, rng, count):
    """``count`` points of the orbit of q, stacked as rows, built from
    Haar-random frames and uniform permutations without the instance's
    decompose/rebuild hooks: the independent reference for
    ``inst.sample_orbit``, and the cheap sampler for bulk orbit tests."""
    q = np.asarray(q, dtype=float)
    backend = inst.backend
    if isinstance(backend, JordanAlgebra):
        return _jordan_orbit_rows(backend, np.tile(q, (count, 1)), rng)
    if isinstance(backend, RectMatrixSpace):
        m, n, k = backend.m, backend.n, backend.k
        diag = np.zeros((count, m, n))
        diag[:, np.arange(k), np.arange(k)] = q
        mats = haar_batch(rng, count, m) @ diag @ np.transpose(haar_batch(rng, count, n), (0, 2, 1))
        return mats.reshape(count, m * n)
    if inst.name == "rot90":
        # the orbit of q under the rotation is the single point R^T q
        return np.tile(np.array([q[1], -q[0]]), (count, 1))
    raise TypeError(f"no reference orbit sampler for {inst.name}")


def _complete_orthonormal(u_cols: list[np.ndarray], m: int, count: int) -> list[np.ndarray]:
    # extend a partial orthonormal set by Gram-Schmidt over coordinate axes
    out = []
    basis = list(u_cols)
    for k in range(m):
        if len(out) == count:
            break
        cand = np.zeros(m)
        cand[k] = 1.0
        for b in basis:
            cand -= np.dot(b, cand) * b
        for b in basis:  # second pass for numerical orthogonality
            cand -= np.dot(b, cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            cand /= nrm
            basis.append(cand)
            out.append(cand)
    if len(out) < count:
        raise RuntimeError("failed to complete orthonormal basis")
    return out


def offdiag_norm(a: np.ndarray) -> float:
    """The Frobenius norm of a's off-diagonal part, summed directly over the
    off-diagonal entries: the subtraction form ||A||^2 - ||diag||^2 cancels
    catastrophically near convergence."""
    off = a[~np.eye(a.shape[0], dtype=bool)]
    return float(np.sqrt(np.sum(off * off)))


def svd_jacobi(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``x = u @ diag(s) @ v.T`` with s nonincreasing and nonnegative:
    the independent oracle for the LAPACK kernel ``ftvn.linalg.svd_desc``.

    Computed from the Jacobi eigendecomposition of the smaller Gram matrix;
    left vectors for (near) zero singular values are completed from
    coordinate axes.  Column signs follow the largest-entry-positive rule on
    the right vectors of x, or of x^T when m < n.

    Accuracy: the Gram matrix squares the condition number.  Its eigenvalues
    carry an absolute error of about eps * s_1^2, so a singular value below
    about sqrt(eps) * s_1 (1.5e-8 s_1) keeps no reliable digits: with
    singular values (1, 1e-3, 1e-6, 1e-9) the last comes back as 0, and
    1e-12 next to 1 comes back as 2e-10.  Larger singular values are
    re-measured as ||x v_i||; in such examples they came back within
    1e-13 s_1.  Tolerances on singular values from here must allow for this.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if m < n:
        u, s, v = svd_jacobi(x.T)
        return v, s, u
    w, v = eigh_desc(x.T @ x)
    s = np.sqrt(np.clip(w, 0.0, None))
    cutoff = 1e-12 * (1.0 + (s[0] if n else 0.0))
    u_cols = []
    null_at = []
    for i in range(n):
        if s[i] > cutoff:
            col = x @ v[:, i]
            nrm = np.linalg.norm(col)
            s[i] = nrm  # re-measured singular value is slightly more accurate
            u_cols.append(col / nrm)
        else:
            s[i] = 0.0
            u_cols.append(None)
            null_at.append(i)
    if null_at:
        fills = _complete_orthonormal([c for c in u_cols if c is not None], m, len(null_at))
        for i, col in zip(null_at, fills):
            u_cols[i] = col
    u = np.column_stack(u_cols) if n else np.zeros((m, 0))
    return u, s, v


def random_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)
