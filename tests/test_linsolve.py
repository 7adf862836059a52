import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf

from nlsground import (ActionParams, DomainSpec, Grid, NoConvergence,
                       ground_state, lambda1)
from nlsground import linsolve
from nlsground.linsolve import (_dst2, _tridiagonal_solve, newton,
                                shifted_solver, solve_tridiagonal_longdouble)

# Independent oracle: the assembled dense stencil matrix, solved by LAPACK
# through numpy.  Row-major flattening puts the x index first, so the x
# operator acts on the first kron factor.


def dense_operator(grid, c):
    def second_difference(h):
        n = grid.n
        return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)

    if grid.dimension == 1:
        return second_difference(grid.h[0]) + c * np.eye(grid.n)
    eye = np.eye(grid.n)
    return (np.kron(second_difference(grid.h[0]), eye)
            + np.kron(eye, second_difference(grid.h[1]))
            + c * np.eye(grid.size))


GRIDS = {
    "interval-31": (DomainSpec.interval(0.0, 1.0), 31),
    "rectangle-12": (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 12),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("shift", ["near-threshold", "zero", "positive"])
def test_matches_dense_solve(name, shift):
    grid = Grid(*GRIDS[name])
    c = {"near-threshold": -0.9 * lambda1(grid), "zero": 0.0,
         "positive": 10.0}[shift]
    b = np.random.default_rng(7).standard_normal(grid.size)
    x = shifted_solver(grid, c).solve(b)
    ref = np.linalg.solve(dense_operator(grid, c), b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_indefinite_shift_raises(name):
    grid = Grid(*GRIDS[name])
    lam1 = lambda1(grid)
    for c in (-lam1, -1.5 * lam1):
        with pytest.raises(NoConvergence):
            shifted_solver(grid, c)


def test_zero_rhs_gives_zero():
    grid = Grid(*GRIDS["rectangle-12"])
    x = shifted_solver(grid, 1.0).solve(np.zeros(grid.size))
    assert not np.any(x)


def test_solve_is_one_back_substitution(grid2047):
    # the direct solve is backward stable: one back-substitution lands
    # near the rounding floor at n=2047
    solver = shifted_solver(grid2047, 10.0)
    raw = solver._raw_solve
    calls = []

    def counted(b):
        calls.append(b.size)
        return raw(b)

    solver._raw_solve = counted
    b = np.sin(np.pi * grid2047.coords[0]) ** 3
    x = solver.solve(b)
    assert calls == [b.size]
    r = b - (grid2047.laplacian(x) + 10.0 * x)
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


def _thomas_longdouble(diag, off, rhs):
    """Unpivoted Thomas algorithm in long double, the reference solve."""
    n = diag.size
    dd = np.empty(n, dtype=np.longdouble)
    bb = np.empty(n, dtype=np.longdouble)
    dd[0] = diag[0]
    bb[0] = rhs[0]
    for i in range(1, n):
        m = off[i - 1] / dd[i - 1]
        dd[i] = diag[i] - m * off[i - 1]
        bb[i] = rhs[i] - m * bb[i - 1]
    x = np.empty(n, dtype=np.longdouble)
    x[-1] = bb[-1] / dd[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (bb[i] - off[i] * x[i + 1]) / dd[i]
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_longdouble_solve_on_indefinite_jacobian(unit_interval, seed):
    # the linearization 2/h^2 + lambda - 3u^2 at a p=4 ground state has
    # one negative eigenvalue; mixed-precision refinement must leave a
    # long-double residual no larger than the Thomas loop's
    grid = Grid(unit_interval, 4095)
    lam = 10.0
    u = ground_state(grid, ActionParams(4.0, lam)).u.values
    u = u.astype(np.longdouble)
    h2 = np.longdouble(grid.h[0]) ** 2
    diag = 2.0 / h2 + np.longdouble(lam) - 3.0 * u * u
    off = np.full(grid.n - 1, -1.0 / h2, dtype=np.longdouble)
    assert dpttrf(diag.astype(float), off.astype(float))[2] > 0  # indefinite
    rhs = np.random.default_rng(seed).standard_normal(grid.n)
    rhs = rhs.astype(np.longdouble)

    def residual(x):
        r = rhs - diag * x
        r[:-1] -= off * x[1:]
        r[1:] -= off * x[:-1]
        return np.max(np.abs(r))

    x = solve_tridiagonal_longdouble(diag, off, rhs)
    assert x.dtype == np.longdouble
    assert residual(x) <= residual(_thomas_longdouble(diag, off, rhs))


def test_newton_names_its_stop(grid511, monkeypatch):
    p, lam = 4.0, 10.0
    u = ground_state(grid511, ActionParams(p, lam)).u.values
    assert newton(grid511, u, p, lam, 1e-8)[2:] == (0, "tol")
    # below the rounding floor a step eventually fails to lower the residual
    assert newton(grid511, u, p, lam, 1e-16)[3] == "stall"
    monkeypatch.setattr(linsolve, "_NEWTON_STEPS", 1)
    assert newton(grid511, 1.02 * u, p, lam, 1e-16)[2:] == (1, "step-cap")
    # a step that crosses zero at a node keeps the iterate it started from
    v = u.copy()
    v[0] = -1e-3
    out, _, steps, reason = newton(grid511, v, p, lam, 1e-16)
    assert reason == "sign-flip" and steps == 1 and np.array_equal(out, v)


def test_tridiagonal_solve_matches_dense_on_indefinite_system():
    rng = np.random.default_rng(3)
    n = 255
    diag = 3.0 * rng.standard_normal(n)
    off = rng.standard_normal(n - 1)
    b = rng.standard_normal(n)
    kept = (diag.copy(), off.copy(), b.copy())
    x = _tridiagonal_solve(diag, off, b)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert all(np.array_equal(a, k) for a, k in zip((diag, off, b), kept))


def test_singular_linearization_is_reported(unit_interval):
    # an exactly singular tridiagonal system raises LinAlgError ...
    with pytest.raises(np.linalg.LinAlgError):
        _tridiagonal_solve(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0]),
                           np.ones(3))
    # ... and Newton names it: the zero middle node is cut from both of
    # its neighbours, and lambda = -2/h^2 zeroes its diagonal entry
    grid = Grid(unit_interval, 3)
    lam = -2.0 / grid.h[0] ** 2
    u = np.array([1.0, 0.0, 1.0])
    out, _, steps, reason = newton(grid, u, 4.0, lam, 1e-8)
    assert (steps, reason) == (1, "singular")
    assert np.array_equal(out, u)


def _sine_matrix(n):
    # 2 sin(pi j k/(n+1)), its argument reduced exactly mod 2 pi first
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
    return 2.0 * np.sin(np.pi * jk / (n + 1))


@pytest.mark.parametrize("n", [3, 4, 31, 64, 255])
def test_dst2_matches_dense_sine_matrix(n):
    u = np.random.default_rng(n).standard_normal((n, n))
    s = _sine_matrix(n)
    ref = s @ u @ s
    got = _dst2(u, np.empty_like(u))
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    # out may be the input itself
    assert np.array_equal(_dst2(u, u), got)


def test_dst2_fallback_is_bitwise_equal(monkeypatch, tmp_path):
    # without pocketfft's extension file, scipy.fft.dstn runs the kernel
    u = np.random.default_rng(5).standard_normal((127, 127))
    loaded = _dst2(u, np.empty_like(u))
    find_spec = importlib.util.find_spec
    missing = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        missing if name == "scipy" else find_spec(name, *args)))
    linsolve._pocketfft_dst.cache_clear()
    try:
        kernel = linsolve._pocketfft_dst()
        fallback = _dst2(u, np.empty_like(u))
        v = u.copy()
        _dst2(v, v)
    finally:
        linsolve._pocketfft_dst.cache_clear()
    assert kernel is not sys.modules["scipy.fft._pocketfft.pypocketfft"].dst
    assert np.array_equal(fallback, loaded)
    assert np.array_equal(v, loaded)


LAZY_LOAD_SCRIPT = """
import sys
import nlsground as nls

name = "scipy.fft._pocketfft.pypocketfft"
params = nls.ActionParams(4.0, 10.0)
nls.ground_state(nls.Grid(nls.DomainSpec.interval(0.0, 1.0), 63), params)
print(name in sys.modules)
nls.ground_state(nls.Grid(nls.DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0),
                                15), params)
from scipy.fft._pocketfft import basic
print(name in sys.modules, basic.pfft is sys.modules[name])
"""


def test_sine_transform_loads_only_for_2d_solves():
    # 1D processes never map pocketfft; a later import of scipy.fft finds
    # the module a 2D solve loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", LAZY_LOAD_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True", "True"]


def test_cold_2d_solve_makes_24_sine_solves(unit_square, monkeypatch):
    raw = linsolve.OperatorSolver._raw_solve
    calls = []

    def counted(self, b):
        calls.append(b.size)
        return raw(self, b)

    monkeypatch.setattr(linsolve.OperatorSolver, "_raw_solve", counted)
    ground_state(Grid(unit_square, 63), ActionParams(4.0, 10.0))
    assert len(calls) == 24
