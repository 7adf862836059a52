import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, Field, Grid, NlsgroundError,
                       NoConvergence, ground_state, lambda1, lambda2,
                       nodal_ground_state)
from nlsground import linsolve
from nlsground.action import mass_slope, tangent_predictor
from nlsground.linsolve import (DIAGONAL, EVEN, ODD, TRANSPOSE, _dst_axes,
                                _tridiagonal_solve, newton, parity_class,
                                shifted_solver)

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


def test_newton_names_its_stop(grid511, monkeypatch):
    p, lam = 4.0, 10.0
    u = ground_state(grid511, ActionParams(p, lam)).u.values
    assert newton(grid511, u, p, lam, 1e-8)[2:4] == (0, "tol")
    # below the rounding floor a step eventually fails to lower the residual
    assert newton(grid511, u, p, lam, 1e-16)[3] == "stall"
    monkeypatch.setattr(linsolve, "_NEWTON_STEPS", 1)
    assert newton(grid511, 1.02 * u, p, lam, 1e-16)[2:4] == (1, "step-cap")
    # a step that crosses zero at a node keeps the iterate it started from
    v = u.copy()
    v[0] = -1e-3
    out, _, steps, reason, _ = newton(grid511, v, p, lam, 1e-16)
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
    # ... and Newton names it: at u = (1, 0, 1), p = 4, lambda = 3 - 2/h^2
    # zeroes both end diagonals 2/h^2 + lambda - 3 u^2, so the first and
    # last rows of the Jacobian are equal
    grid = Grid(unit_interval, 3)
    lam = 3.0 - 2.0 / grid.h[0] ** 2
    u = np.array([1.0, 0.0, 1.0])
    out, _, steps, reason, _ = newton(grid, u, 4.0, lam, 1e-8)
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
    got = _dst_axes(u, [1, 1], np.empty_like(u))
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    # out may be the input itself
    assert np.array_equal(_dst_axes(u, [1, 1], u), got)


def _grid_solve(solver, b):
    """The solve of the grid field b's part in the solver's class: b is
    projected onto the class and restricted to the solver's space, and
    the solve is mirrored back onto the grid."""
    space = solver.space
    return space.unfold(solver.solve(space.restrict(solver.project(b))))


def test_dst2_fallback_is_bitwise_equal(monkeypatch, tmp_path):
    # without pocketfft's extension file, scipy.fft.dstn runs the kernel
    u = np.random.default_rng(5).standard_normal((127, 127))
    loaded = _dst_axes(u, [1, 1], np.empty_like(u))
    find_spec = importlib.util.find_spec
    missing = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        missing if name == "scipy" else find_spec(name, *args)))
    # the folded solves' DST-II and DST-III, on a strided block and along
    # one axis or both, and a folded solve itself
    grid = Grid(DomainSpec.rectangle(0.0, 1.2, 0.0, 1.0), 127)
    b = u.reshape(-1)
    folded = _grid_solve(shifted_solver(grid, 10.0, (EVEN, ODD)), b)

    def folds(dst):
        out = []
        for kind in (2, 3):
            for axes in ((0, 1), (0,), (1,)):
                out.append(np.empty((64, 63)))
                dst(u[:64, :63], kind, axes, 0, out[-1], 1)
        return out

    loaded_folds = folds(linsolve._pocketfft_dst())
    linsolve._pocketfft_dst.cache_clear()
    try:
        kernel = linsolve._pocketfft_dst()
        fallback = _dst_axes(u, [1, 1], np.empty_like(u))
        v = u.copy()
        _dst_axes(v, [1, 1], v)
        fallback_folds = folds(kernel)
        fallback_folded = _grid_solve(shifted_solver(grid, 10.0, (EVEN, ODD)),
                                      b)
    finally:
        linsolve._pocketfft_dst.cache_clear()
    assert kernel is not sys.modules["scipy.fft._pocketfft.pypocketfft"].dst
    assert np.array_equal(fallback, loaded)
    assert np.array_equal(v, loaded)
    assert all(np.array_equal(a, b)
               for a, b in zip(fallback_folds, loaded_folds))
    assert np.array_equal(fallback_folded, folded)


def test_dst2_unloadable_file_falls_back(monkeypatch, tmp_path):
    # a pocketfft file that fails to load by itself falls back the same way
    u = np.random.default_rng(6).standard_normal((63, 63))
    loaded = _dst_axes(u, [1, 1], np.empty_like(u))
    module = "scipy.fft._pocketfft.pypocketfft"
    folder = tmp_path / "fft" / "_pocketfft"
    folder.mkdir(parents=True)
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    (folder / f"pypocketfft{suffix}").write_bytes(b"not a library")
    find_spec = importlib.util.find_spec
    moved = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        moved if name == "scipy" else find_spec(name, *args)))
    real = sys.modules[module].dst
    monkeypatch.delitem(sys.modules, module)
    linsolve._pocketfft_dst.cache_clear()
    try:
        kernel = linsolve._pocketfft_dst()
        fallback = _dst_axes(u, [1, 1], np.empty_like(u))
    finally:
        linsolve._pocketfft_dst.cache_clear()
    assert kernel is not real
    assert np.array_equal(fallback, loaded)


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


BOXES = {"square": (0.0, 1.0, 0.0, 1.0), "wide": (0.0, 1.2, 0.0, 1.0),
         "tall": (0.0, 1.0, 0.0, 1.2)}


def _class_part(a, parity):
    """(a + s flip a) / 2 along each axis with a parity s."""
    for axis, s in enumerate(parity):
        a = 0.5 * (a + s * np.flip(a, axis))
    return a


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("n", [3, 5, 63, 255])
def test_folded_solve_matches_full_solve(box, n):
    # the quarter-block solve against the full DST-I solve projected onto
    # the class; the folded result is exactly in the class
    grid = Grid(DomainSpec.rectangle(*BOXES[box]), n)
    full = shifted_solver(grid, 10.0)
    rng = np.random.default_rng(n)
    m = n // 2
    for parity in [(EVEN, EVEN), (EVEN, ODD), (ODD, EVEN), (ODD, ODD)]:
        b = _class_part(rng.standard_normal(grid.shape), parity).reshape(-1)
        solver = shifted_solver(grid, 10.0, parity)
        assert solver._folded
        x = _grid_solve(solver, b).reshape(grid.shape)
        ref = _dst_axes(b.reshape(grid.shape), [1, 1], np.empty(grid.shape))
        ref *= full._factor
        ref = _class_part(_dst_axes(ref, [1, 1], ref), parity)
        assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
        assert parity_class(grid, x) == parity
        for axis, s in enumerate(parity):
            if s == ODD:
                assert not np.any(np.take(x, m, axis=axis))


@pytest.mark.parametrize("n", [3, 5, 63, 255])
def test_diagonal_solve_matches_full_solve(n):
    # the half-turn block's solve, one quarter-block transform pair,
    # against the full DST-I solve projected onto the fields odd under
    # the transpose and the half-turn; the result is exactly in that
    # class
    grid = Grid(DomainSpec.rectangle(*BOXES["square"]), n)
    full = shifted_solver(grid, 10.0)
    solver = shifted_solver(grid, 10.0, DIAGONAL)
    assert solver.space is grid.block(DIAGONAL) and solver._folded
    a = np.random.default_rng(n).standard_normal(grid.shape)
    a = a - a.T
    b = (a - a[::-1, ::-1]).reshape(-1)
    assert parity_class(grid, b) == DIAGONAL
    x = _grid_solve(solver, b)
    ref = _dst_axes(b.reshape(grid.shape), [1, 1], np.empty(grid.shape))
    ref *= full._factor
    ref = _dst_axes(ref, [1, 1], ref)
    ref = 0.5 * (ref - ref.T)
    ref = 0.5 * (ref - ref[::-1, ::-1]).reshape(-1)
    assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
    assert parity_class(grid, x) == DIAGONAL
    # definite on the class down to -lambda_2, as the transpose's odd
    # fields are; even n keeps the full transform and the transpose's
    # projection, whose result is exactly odd under it
    with pytest.raises(NoConvergence):
        shifted_solver(grid, -lambda2(grid), DIAGONAL)
    even = Grid(grid.spec, n + 1)
    solver = shifted_solver(even, 10.0, DIAGONAL)
    assert solver.space is even
    y = solver.solve(np.random.default_rng(n).standard_normal(even.size))
    y = y.reshape(even.shape)
    assert np.any(y) and np.array_equal(y, -y.T)


def test_transpose_odd_warm_state_stays_odd(unit_square):
    # a raw warm field of the square at n=31, odd under the transpose but
    # not under the half-turn, lies in no class that folds: its nodal
    # Newton runs on the grid, preconditioned on the class TRANSPOSE, and
    # the state and its tangent are exactly odd under the transpose
    grid = Grid(unit_square, 31)
    params = ActionParams(4.0, 10.0)
    cold = nodal_ground_state(grid, params)
    x = grid.meshes()[0]
    a = cold.u.values.reshape(grid.shape) * (1.0 + 1e-3 * (x + x.T))
    assert np.array_equal(a, -a.T) and parity_class(grid, a) == (0, 0)
    st = nodal_ground_state(grid, params,
                            init_field=Field(grid, a.reshape(-1)))
    assert [label for label, _ in st.multistart] == ["warm"]
    assert st.residual <= 1e-8 and st.u.parity is None
    v = st.u.values.reshape(grid.shape)
    assert np.any(v) and np.array_equal(v, -v.T)
    assert parity_class(grid, v) == (0, 0)
    du = tangent_predictor(st, 10.5).values.reshape(grid.shape)
    assert np.any(du) and np.array_equal(du, -du.T)
    # a field may record the class; a signed warm start reads no parity
    # per axis from it
    field = Field(grid, st.u.values, TRANSPOSE)
    assert ground_state(grid, params, init_field=field).residual <= 1e-8
    # the grid answers a Block's protocol: it is its own grid and stores a
    # field whole, and both sum a field of the class alike up to rounding
    u = cold.u.values
    assert grid.grid is grid and grid.restrict(u) is u
    copy = grid.unfold(u)
    assert np.array_equal(copy, u) and not np.shares_memory(copy, u)
    block = grid.block(DIAGONAL)
    ub = block.restrict(u)
    assert block.grid is grid and cold.u.parity == block.parity == DIAGONAL
    for got, ref in ((block.l2_sq(ub), grid.l2_sq(u)),
                     (block.grad_sq(ub), grid.grad_sq(u)),
                     (block.lp_p(ub, 4.0), grid.lp_p(u, 4.0))):
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_recorded_class_that_cannot_fold_is_read_from_values():
    # a field may record the class of no parity at odd n while its values
    # are exactly in a class that folds; a warm start and a mass slope
    # from it are solved on that class's block
    grid = Grid(DomainSpec.rectangle(*BOXES["wide"]), 31)
    st = nodal_ground_state(grid, ActionParams(4.0, 10.0))
    assert st.u.parity == (ODD, EVEN)
    field = Field(grid, st.u.values, (0, 0))
    assert linsolve.field_class(field) == (ODD, EVEN)
    warm = nodal_ground_state(grid, ActionParams(4.0, 10.5), init_field=field)
    assert [label for label, _ in warm.multistart] == ["warm"]
    assert warm.residual <= 1e-8 and warm.u.parity == (ODD, EVEN)
    assert mass_slope(replace(st, u=field)) == mass_slope(st)


def _solve_all(grid, cases):
    """(outcome, iterations, labels, level, values) of each cold case."""
    out = []
    for kind, p, lam in cases:
        solve = ground_state if kind == "signed" else nodal_ground_state
        try:
            st = solve(grid, ActionParams(p, lam))
        except NlsgroundError as exc:
            out.append((type(exc).__name__, None, None, None, None))
            continue
        labels = [label for label, _ in st.multistart or ()]
        out.append(("ok", st.iterations, labels, st.action_value, st))
    return out


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("n", [31, 63])
def test_folded_solves_keep_every_state(box, n, monkeypatch):
    # cold signed and nodal solves with folded sine solves against the
    # same solves with none folded: full transforms, projected onto the
    # odd axes
    grid = Grid(DomainSpec.rectangle(*BOXES[box]), n)
    cases = [(kind, p, lam) for kind in ("signed", "nodal")
             for p, lam in [(4.0, 10.0), (3.0, 400.0), (6.0, 150.0)]]
    folded = _solve_all(grid, cases)
    # every state is exactly in the class of the start it came from
    midline = (EVEN, ODD) if box == "tall" else (ODD, EVEN)
    for (kind, _, _), (outcome, _, labels, _, st) in zip(cases, folded):
        if outcome != "ok":
            continue
        a = st.u.values.reshape(grid.shape)
        if kind == "signed":
            assert parity_class(grid, a) == (EVEN, EVEN)
        elif min(st.multistart, key=lambda rec: rec[1])[0] == "midline":
            assert parity_class(grid, a) == midline
        else:
            assert np.array_equal(a, -a.T)
    monkeypatch.setattr(linsolve, "_folds", lambda grid: False)
    full = _solve_all(grid, cases)
    for got, ref in zip(folded, full):
        assert got[:3] == ref[:3]
        if got[0] == "ok":
            assert got[3] == pytest.approx(ref[3], rel=1e-13, abs=0.0)


def test_warm_signed_start_folds_only_in_its_class(unit_square, monkeypatch):
    # a warm field off the even class gets full-size transforms, so MINRES
    # keeps a definite preconditioner; the state itself and its tangent
    # fold onto the 32 x 32 quarter block at n=63
    grid = Grid(unit_square, 63)
    params = ActionParams(4.0, 10.0)
    st = ground_state(grid, params)
    kernel = linsolve._pocketfft_dst()
    shapes = []

    def recorded(u, *args):
        shapes.append(u.shape)
        return kernel(u, *args)

    monkeypatch.setattr(linsolve, "_pocketfft_dst", lambda: recorded)
    x = grid.meshes()[0].reshape(-1)
    off = st.u.values * (1.0 + 1e-3 * x)
    assert parity_class(grid, off) == (0, EVEN)
    warm = ground_state(grid, params, init_field=Field(grid, off))
    assert warm.residual <= 1e-8
    assert warm.action_value == pytest.approx(st.action_value, rel=1e-12)
    assert shapes and set(shapes) == {(63, 63)}
    shapes.clear()
    predictor = tangent_predictor(st, 11.0)
    assert shapes and set(shapes) == {(32, 32)}
    assert parity_class(grid, predictor.values) == (EVEN, EVEN)
    shapes.clear()
    step = ground_state(grid, ActionParams(4.0, 11.0), init_field=predictor)
    assert shapes and set(shapes) == {(32, 32)}
    assert step.residual <= 1e-8
    assert parity_class(grid, step.u.values) == (EVEN, EVEN)
