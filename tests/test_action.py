import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, Field, Grid, InvalidSpec,
                       LambdaBelowThreshold, NoConvergence,
                       NonpositiveQuotient, SolverOptions, ZeroField, action,
                       dirichlet_eigenpairs, energy, ground_state, kappa,
                       lambda1, lambda2, mass_slope, nehari_project,
                       nehari_scale, nodal_ground_state, norms, pde_residual,
                       ray_action)
from nlsground.action import _viterbi_rounding, tangent_predictor

from conftest import tridiag_eigenvalue

ACTION = importlib.import_module("nlsground.action")


def _phi1(grid):
    return dirichlet_eigenpairs(grid, 1)[0].vector


def test_action_energy_zero_field(grid255):
    zero = Field(grid255, np.zeros(grid255.size))
    assert action(zero, ActionParams(4.0, 3.0)) == 0.0
    assert energy(zero, 4.0) == 0.0
    assert pde_residual(zero, ActionParams(4.0, 3.0)) == 0.0


def test_params_validation():
    with pytest.raises(InvalidSpec):
        ActionParams(2.0, 1.0)
    with pytest.raises(InvalidSpec):
        ActionParams(4.0, np.inf)


def test_energy_action_identity(grid255):
    # E = J - (lambda/2) ||u||_2^2 for every field, algebraically
    rng = np.random.default_rng(5)
    for lam in (-3.0, 0.0, 7.5):
        vals = rng.standard_normal(grid255.size)
        u = Field(grid255, vals)
        params = ActionParams(4.0, lam)
        e = energy(u, 4.0)
        j = action(u, params)
        l2 = grid255.l2_sq(vals)
        assert e == pytest.approx(j - 0.5 * lam * l2, rel=1e-12, abs=1e-12)


def test_first_mode_projection_value(grid511):
    # p=4, lambda=0: projecting sqrt(2) sin(pi x) lands exactly at
    # (lambda_1^h)^2 / 6 because the discrete trig sums are exact
    # (continuum limit pi^4/6)
    p = 4.0
    params = ActionParams(p, 0.0)
    phi = grid511.sample(lambda x: np.sqrt(2.0) * np.sin(np.pi * x))
    lam1 = tridiag_eigenvalue(1, grid511.n)
    scale = nehari_scale(phi, params)
    assert scale == pytest.approx(np.sqrt(lam1 / 1.5), rel=5e-12)
    assert scale == pytest.approx(np.sqrt(2.0 * np.pi**2 / 3.0), rel=1e-4)
    projected = nehari_project(phi, params)
    val = action(projected, params)
    assert val == pytest.approx(lam1**2 / 6.0, rel=5e-12)
    assert val == pytest.approx(np.pi**4 / 6.0, rel=1e-4)
    assert ray_action(phi, params) == pytest.approx(val, rel=1e-12)


def test_projection_identity_case(grid255):
    params = ActionParams(6.0, 2.0)
    u = grid255.sample(lambda x: np.sin(np.pi * x) * (1.0 + 0.3 * x))
    w = nehari_project(u, params)
    assert nehari_scale(w, params) == pytest.approx(1.0, rel=1e-12)
    l2, lp, gr = norms(w, 6.0)
    assert abs(gr + 2.0 * l2 - lp) <= 1e-10 * lp


def test_projection_errors(grid255):
    phi = _phi1(grid255)
    lam1 = dirichlet_eigenpairs(grid255, 1)[0].value
    with pytest.raises(NonpositiveQuotient):
        nehari_project(phi, ActionParams(4.0, -2.0 * lam1))
    with pytest.raises(ZeroField):
        nehari_project(Field(grid255, np.zeros(grid255.size)), ActionParams(4.0, 0.0))


def test_tiny_start_vector_raises_zero_field(grid255):
    # its L^p norm underflows to 0: both solvers raise before any division
    tiny = Field(grid255, np.full(grid255.size, 1e-200))
    for solve in (ground_state, nodal_ground_state):
        with pytest.raises(ZeroField):
            solve(grid255, ActionParams(4.0, 10.0), init_field=tiny)


def test_ground_state_beats_first_mode(grid511):
    # the first eigenmode is admissible but not optimal
    st = ground_state(grid511, ActionParams(4.0, 0.0))
    lam1 = tridiag_eigenvalue(1, grid511.n)
    assert st.action_value < lam1**2 / 6.0


def test_ground_state_contracts(grid511):
    p, lam = 6.0, 5.0
    st = ground_state(grid511, ActionParams(p, lam))
    l2, lp, gr = norms(st.u, p)
    assert abs(gr + lam * l2 - lp) <= 1e-10 * lp
    assert st.action_value == pytest.approx(kappa(p) * lp, rel=1e-12)
    assert st.energy == pytest.approx(st.action_value - 0.5 * lam * st.mass,
                                      rel=1e-12)
    assert st.residual <= 1e-8
    assert pde_residual(st.u, ActionParams(p, lam)) <= 1e-8
    assert st.node_count == 0
    assert np.all(st.u.values >= 0.0)


def test_ground_state_init_invariance(grid255):
    params = ActionParams(4.0, 3.0)
    base = ground_state(grid255, params)
    scaled_init = Field(grid255, 7.25 * _phi1(grid255).values)
    st2 = ground_state(grid255, params, init_field=scaled_init)
    assert st2.action_value == pytest.approx(base.action_value, rel=1e-9)
    draw = np.random.default_rng(4).standard_normal(grid255.size)
    st3 = ground_state(grid255, params,
                       init_field=Field(grid255, np.abs(draw) + 1e-3))
    assert st3.action_value == pytest.approx(base.action_value, rel=1e-8)


def test_threshold_refusal(grid255):
    lam1 = dirichlet_eigenpairs(grid255, 1)[0].value
    for lam in (-lam1, -lam1 + 1e-9, -2 * lam1):
        with pytest.raises(LambdaBelowThreshold):
            ground_state(grid255, ActionParams(4.0, lam))


def test_level_vanishes_at_threshold(grid511):
    # J(lambda) decreases to zero as lambda comes down to -lambda_1
    lam1 = dirichlet_eigenpairs(grid511, 1)[0].value
    values = [ground_state(grid511, ActionParams(4.0, -lam1 + d)).action_value
              for d in (4.0, 2.0, 1.0, 0.5)]
    assert all(b < a for a, b in zip(values, values[1:]))
    # quadratic decay for p=4: J ~ delta^{p/(p-2)} = delta^2
    assert values[-1] <= values[0] * (0.5 / 4.0) ** 2 * 1.5


def test_soliton_limit_large_interval():
    # closed-form bound state at unit frequency, p=6:
    #   u(x) = 3^(1/4) sech(2x)^(1/2),
    #   mass = sqrt(3) pi / 2,  level = sqrt(3) pi / 4 (quadrature oracle)
    grid = Grid(DomainSpec.interval(-10.0, 10.0), 2047)
    st = ground_state(grid, ActionParams(6.0, 1.0), SolverOptions(tol=1e-9))
    assert st.action_value == pytest.approx(np.sqrt(3.0) * np.pi / 4.0, rel=1e-4)
    assert st.mass == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, rel=1e-4)


def test_2d_ground_state_and_p_cap(unit_square):
    grid = Grid(unit_square, 31)
    p, lam = 4.0, 5.0
    st = ground_state(grid, ActionParams(p, lam), SolverOptions(tol=1e-9))
    l2, lp, gr = norms(st.u, p)
    assert abs(gr + lam * l2 - lp) <= 1e-10 * lp
    assert st.node_count == 0
    # no cap on p in 2D: a large exponent meets tol as well
    st = ground_state(grid, ActionParams(11.0, 5.0))
    assert st.residual <= 1e-8 and st.node_count == 0


def _fixed_point_steps(monkeypatch):
    """Counter of fixed-point steps: each makes one shifted solve."""
    from nlsground.linsolve import OperatorSolver

    calls = []
    solve = OperatorSolver.solve
    monkeypatch.setattr(OperatorSolver, "solve",
                        lambda self, b: calls.append(1) or solve(self, b))
    return calls


def _nehari_gaps(st):
    """(|J - kappa ||u||_p^p| / J, |Q(u) - ||u||_p^p| / ||u||_p^p)."""
    p, lam = st.params.p, st.params.lam
    l2, lp, gr = norms(st.u, p)
    return (abs(st.action_value - kappa(p) * lp) / st.action_value,
            abs(gr + lam * l2 - lp) / lp)


def test_2d_newton_polish_meets_tol(unit_square, monkeypatch):
    # four fixed-point steps stop far above tol; Newton on the linearized
    # solve (MINRES in 2D) finishes the state, and its steps are counted
    grid = Grid(unit_square, 63)
    params = ActionParams(4.0, 10.0)
    steps = _fixed_point_steps(monkeypatch)
    st = ground_state(grid, params, SolverOptions(max_iter=4))
    assert len(steps) == 4 < st.iterations
    assert st.residual <= 1e-8
    assert pde_residual(st.u, params) <= 1e-8
    assert st.node_count == 0
    full = ground_state(grid, params)
    assert st.action_value == pytest.approx(full.action_value, rel=1e-12)


def test_2d_signed_state_switches_to_newton(unit_square, monkeypatch):
    # the fixed point alone takes 33 linearly converging steps at n = 63,
    # 127 and 255; Newton takes over after four and lands on the tightly
    # converged level
    grid = Grid(unit_square, 63)
    params = ActionParams(4.0, 10.0)
    steps = _fixed_point_steps(monkeypatch)
    st = ground_state(grid, params)
    assert len(steps) <= 4
    assert st.residual <= 1e-8
    assert _nehari_gaps(st)[0] <= 1e-12
    tight = ground_state(grid, params, SolverOptions(tol=1e-11))
    assert st.action_value == pytest.approx(tight.action_value, rel=1e-12)


def test_newton_finished_state_is_nehari_exact(grid511):
    # Newton lowers the residual but does not keep the constraint; the
    # rescale after it puts the state back on the manifold
    st = ground_state(grid511, ActionParams(4.0, 10.0), SolverOptions(max_iter=4))
    assert st.residual <= 1e-8
    j_gap, nehari_gap = _nehari_gaps(st)
    assert j_gap <= 1e-12
    assert nehari_gap <= 1e-13


def _factorizations(monkeypatch):
    """Counter of shifted-operator factorizations."""
    from nlsground.linsolve import OperatorSolver

    calls = []
    factorize = OperatorSolver._factorize
    monkeypatch.setattr(OperatorSolver, "_factorize",
                        lambda self: calls.append(1) or factorize(self))
    return calls


def test_warm_start_goes_straight_to_newton(grid255, monkeypatch):
    # from its own converged state a warm solve, signed or nodal, is a
    # continuation step of length zero: Newton accepts the init, no
    # fixed-point step runs and in 1D nothing is factored; the warm ray
    # and Newton's result are each evaluated once, so the stencil is
    # applied at most 5 times (signed) and 7 times (nodal, which also
    # counts the state's nodal domains)
    params = ActionParams(4.0, 10.0)
    for solve, stencils in ((ground_state, 5), (nodal_ground_state, 7)):
        st = solve(grid255, params)
        with monkeypatch.context() as patch:
            steps = _fixed_point_steps(patch)
            factored = _factorizations(patch)
            applied = []
            laplacian = Grid.laplacian
            patch.setattr(Grid, "laplacian", lambda self, v, space=None:
                          applied.append(1) or laplacian(self, v, space))
            warm = solve(grid255, params, init_field=st.u)
        assert steps == [] and factored == []
        assert len(applied) <= stencils
        assert warm.iterations <= 1
        assert warm.action_value == pytest.approx(st.action_value, rel=1e-12)
        assert warm.residual <= 1e-8


def _no_parity_class(patch):
    """Make every detection of a class from a field's values raise."""
    from nlsground import linsolve

    def detect(grid, x):
        raise AssertionError("a class was detected from values")

    patch.setattr(linsolve, "parity_class", detect)


def test_warm_signed_sample_work(grid255, monkeypatch):
    # a warm sample of check-all's signed sweep at n=255, p=4 applies the
    # stencil 5 times: the warm ray, Newton's start and two steps, and
    # the rescaled state's residual, whose image also gives the level;
    # the predictor and the warm start take the class from the state
    lams = np.linspace(-lambda1(grid255) + 0.5, 120.0, 60)
    st = ground_state(grid255, ActionParams(4.0, lams[1]))
    laplacian = Grid.laplacian
    applied = []
    with monkeypatch.context() as patch:
        _no_parity_class(patch)
        patch.setattr(Grid, "laplacian", lambda self, v, space=None:
                      applied.append(1) or laplacian(self, v, space))
        warm = ground_state(grid255, ActionParams(4.0, lams[2]),
                            init_field=tangent_predictor(st, lams[2]))
    assert warm.iterations == 2 and warm.residual <= 1e-8
    assert len(applied) == 5


def test_class_travels_with_the_state(unit_interval, unit_square,
                                      monkeypatch):
    # a state's field records the class it was solved on, so warm steps,
    # tangents and mass slopes take it from there and never compare
    # values: whole 1D signed and nodal sweeps at n=255 (their first and
    # every 10th sample are cold), and warm steps from the 2D diagonal,
    # midline and signed states at n=31
    from nlsground.curves import sweep

    grid = Grid(unit_interval, 255)
    with monkeypatch.context() as patch:
        _no_parity_class(patch)
        for kind, floor in (("signed", lambda1), ("nodal", lambda2)):
            lams = np.linspace(-floor(grid) + 0.5, 40.0, 12)
            curve = sweep(grid, 4.0, lams, kind)
            assert all(curve.ok(i) for i in range(lams.size)), curve.flags
            assert mass_slope(curve.states[-1]) > 0.0

    square = Grid(unit_square, 31)
    rectangle = Grid(DomainSpec.rectangle(0.0, 1.2, 0.0, 1.0), 31)
    cases = [(ground_state, square, "signed"),
             (nodal_ground_state, square, "diagonal"),
             (nodal_ground_state, rectangle, "midline")]
    for solve, grid, label in cases:
        # a nodal step is the first of test_2d_nodal_sweep_flags_nothing's
        lam0, lam1 = ((10.0, 12.0) if solve is ground_state else
                      np.linspace(-lambda2(grid) + 1.0, 100.0, 20)[:2])
        st = solve(grid, ActionParams(3.0, lam0))
        assert solve is ground_state or st.multistart[0][0] == label
        inits = [tangent_predictor(st, lam1)]
        if solve is nodal_ground_state:
            inits.append(st.u)
        with monkeypatch.context() as patch:
            _no_parity_class(patch)
            for init in inits:
                warm = solve(grid, ActionParams(3.0, lam1), init_field=init)
                assert warm.residual <= 1e-8
                assert (solve is ground_state
                        or warm.multistart == (("warm", warm.action_value),))
            mass_slope(st)


def test_states_record_their_class(unit_interval, unit_square):
    # the class a state's field records is the one its values are
    # exactly in: EVEN or ODD at odd n, none at even n, and on the square
    # (EVEN, EVEN), a midline's and DIAGONAL; so is its tangent's
    from nlsground.linsolve import DIAGONAL, EVEN, ODD, parity_class

    states = []
    for n in (255, 256):
        grid = Grid(unit_interval, n)
        for solve in (ground_state, nodal_ground_state):
            st = solve(grid, ActionParams(4.0, 10.0))
            init = st.u if solve is nodal_ground_state else (
                tangent_predictor(st, 12.0))
            states += [st, solve(grid, ActionParams(4.0, 12.0),
                                 init_field=init)]
    for spec in (unit_square, DomainSpec.rectangle(0.0, 1.2, 0.0, 1.0)):
        grid = Grid(spec, 31)
        for solve in (ground_state, nodal_ground_state):
            states.append(solve(grid, ActionParams(4.0, 10.0)))
    grid = Grid(unit_square, 31)
    lam = -lambda2(grid) + 1.0
    states.append(nodal_ground_state(grid, ActionParams(3.0, lam)))
    classes = set()
    for st in states:
        grid, cls = st.u.grid, st.u.parity
        assert cls is not None and cls == parity_class(grid, st.u.values)
        predictor = tangent_predictor(st, st.params.lam + 0.5)
        assert predictor.parity == parity_class(grid, predictor.values) == cls
        classes.add(cls)
    assert classes == {(EVEN,), (ODD,), (0,), (EVEN, EVEN), (ODD, EVEN),
                       DIAGONAL}


def _stages():
    """The names of the functions that called the caller, up the stack."""
    frame, names = sys._getframe(2), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def test_cold_2d_solve_runs_on_the_quarter_block(unit_square, monkeypatch):
    # a cold signed solve at odd n stays in the (EVEN, EVEN) class on its
    # 32 x 32 quarter block at n=63: every stencil and sine transform of
    # the fixed point, Newton and MINRES acts on the block, only the eigen
    # start's stencil on the grid, the level takes the stencil image that
    # the state's residual applied, and the state is mirrored onto the
    # grid once
    from nlsground import grid as grid_module
    from nlsground import linsolve

    grid = Grid(unit_square, 63)
    laplacian = Grid.laplacian
    kernel = linsolve._pocketfft_dst()
    unfold = grid_module.unfold
    stencils, transforms, unfolds = [], [], []

    def recorded_laplacian(self, v, space=None):
        stencils.append((v.size, _stages()))
        return laplacian(self, v, space)

    def recorded_kernel(u, *args):
        transforms.append((u.shape, _stages()))
        return kernel(u, *args)

    monkeypatch.setattr(Grid, "laplacian", recorded_laplacian)
    monkeypatch.setattr(linsolve, "_pocketfft_dst", lambda: recorded_kernel)
    monkeypatch.setattr(grid_module, "unfold",
                        lambda *args: unfolds.append(1) or unfold(*args))
    st = ground_state(grid, ActionParams(4.0, 10.0))
    assert st.residual <= 1e-8
    assert len(unfolds) == 1
    steps = {"_fixed_point_newton", "newton", "_minres"}
    for stage in steps:
        assert any(stage in names for _, names in stencils), stage
        assert any(stage in names for _, names in transforms), stage
    assert not any("finalize_state" in names for _, names in stencils)
    for size, names in stencils:
        if "dirichlet_eigenpairs" in names:
            assert size == grid.size
        else:
            assert size == 32 * 32 and names & steps, names
    assert {shape for shape, _ in transforms} == {(32, 32)}


def test_cold_diagonal_solve_runs_on_the_half_block(unit_square,
                                                    monkeypatch):
    # a cold nodal solve at n=63 runs the diagonal start, odd under the
    # transpose and the half-turn, on its 32 x 63 half-turn block and the
    # midline start on its 31 x 32 quarter block: every stencil of the
    # fixed point, Newton and MINRES acts on one of them, the level
    # applies none, and every sine transform acts on the 31 x 32 quarter
    # block; only the state's
    # sign parts are stencilled on the grid, outside
    # `least_action_state`.  Each state is mirrored onto the grid once,
    # and each residual's norm is the grid's, of the unfolded residual.
    # A warm step of a nodal sweep from the diagonal state stays on the
    # half-turn block, its tangent included
    from nlsground import grid as grid_module
    from nlsground import linsolve

    laplacian = Grid.laplacian
    kernel = linsolve._pocketfft_dst()
    unfold = grid_module.unfold
    stencils, transforms, unfolds = [], [], []

    def recorded_laplacian(self, v, space=None):
        stencils.append((v.size, _stages()))
        return laplacian(self, v, space)

    def recorded_kernel(u, *args):
        transforms.append((u.shape, _stages()))
        return kernel(u, *args)

    monkeypatch.setattr(Grid, "laplacian", recorded_laplacian)
    monkeypatch.setattr(linsolve, "_pocketfft_dst", lambda: recorded_kernel)
    monkeypatch.setattr(grid_module, "unfold", lambda *args:
                        unfolds.append(_stages()) or unfold(*args))
    grid = Grid(unit_square, 63)
    st = nodal_ground_state(grid, ActionParams(4.0, 10.0))
    assert [label for label, _ in st.multistart] == ["diagonal", "midline"]
    assert st.residual == pde_residual(st.u, st.params) <= 1e-8
    assert [names for names in unfolds if "residual" not in names] == [
        names for names in unfolds if "finalize_state" in names]
    assert sum("finalize_state" in names for names in unfolds) == 2
    steps = {"_fixed_point_newton", "newton", "_minres"}
    for stage in steps:
        assert any(stage in names for _, names in stencils), stage
        assert any(stage in names for _, names in transforms), stage
    assert not any("finalize_state" in names for _, names in stencils)
    sizes = set()
    for size, names in stencils:
        if "least_action_state" in names:
            assert names & steps, names
            sizes.add(size)
        else:
            assert size == grid.size, names
    assert sizes == {32 * 63, 31 * 32}
    assert {shape for shape, _ in transforms} == {(31, 32)}

    # the second sample of the sweep in test_2d_nodal_sweep_flags_nothing
    grid = Grid(unit_square, 31)
    lam0, lam1 = np.linspace(-lambda2(grid) + 1.0, 100.0, 20)[:2]
    st = nodal_ground_state(grid, ActionParams(3.0, lam0))
    assert st.multistart[0][0] == "diagonal"
    stencils.clear()
    transforms.clear()
    warm = nodal_ground_state(grid, ActionParams(3.0, lam1),
                              init_field=tangent_predictor(st, lam1))
    assert warm.multistart == (("warm", warm.action_value),)
    assert {size for size, names in stencils
            if "least_action_state" in names or "_tangent" in names} == {
                16 * 31}
    assert {shape for shape, _ in transforms} == {(15, 16)}


@pytest.mark.parametrize("solve, n, tol", [
    (ground_state, 255, 1e-8),
    (nodal_ground_state, 255, 1e-8),
    # nested: the fine Newton stalls above tol and the rounding polish
    # finishes
    (ground_state, 32767, 3.5e-7),
])
def test_cold_1d_solve_runs_on_the_half_block(unit_interval, monkeypatch,
                                              solve, n, tol):
    # at odd n a cold signed solve stays in the EVEN class on its first
    # n // 2 + 1 nodes, a nodal one in the ODD class on its first n // 2:
    # every stencil of the fixed point, Newton and the polish, and every
    # shifted and linearized solve, acts on that half block, and the
    # level applies none; only the eigen start and the nodal state's
    # sign parts are stencilled on the grid.  On 32767 nodes the start
    # runs so on the 1023-node grid first, and the fine grid runs no
    # fixed point: only Newton and the polish, on its half block.  Each
    # grid's state is mirrored onto it once; each residual's norm is the
    # grid's, of the unfolded residual, so the state reports its
    # field's residual
    from nlsground import grid as grid_module
    from nlsground import linsolve

    grid = Grid(unit_interval, n)
    grids = [grid] if n < 8191 else [Grid(unit_interval, 1023), grid]
    halves = {g.n // 2 + (solve is ground_state): g for g in grids}
    laplacian = Grid.laplacian
    unfold = grid_module.unfold
    stencils, solves, unfolds = [], [], []

    def recorded_laplacian(self, v, space=None):
        stencils.append((v.size, _stages()))
        return laplacian(self, v, space)

    def recorded(patch, name, rhs):
        # the LAPACK routine name, whose right-hand side is argument rhs
        routine = getattr(linsolve, name)

        def call(*args):
            solves.append((args[rhs].size, _stages()))
            return routine(*args)

        patch.setattr(linsolve, name, call)

    with monkeypatch.context() as patch:
        patch.setattr(Grid, "laplacian", recorded_laplacian)
        recorded(patch, "dgtsv", 3)
        recorded(patch, "dpttrs", 2)
        patch.setattr(grid_module, "unfold", lambda x, *args:
                      unfolds.append((x.size, _stages())) or unfold(x, *args))
        st = solve(grid, ActionParams(4.0, 10.0), SolverOptions(tol=tol))
    assert st.residual == pde_residual(st.u, st.params) <= tol
    assert [names for _, names in unfolds if "residual" not in names] == [
        names for _, names in unfolds if "finalize_state" in names]
    assert [size for size, names in unfolds if "finalize_state" in names] == [
        g.size for g in grids]
    assert not any("finalize_state" in names for _, names in stencils)
    for size, names in stencils:
        if "dirichlet_eigenpairs" in names:
            assert size == grids[0].size  # the start, on the coarsest grid
        elif "least_action_state" in names:
            assert size in halves, names
        else:
            assert size == grid.size, names
    assert {size for size, _ in solves} == set(halves)
    for half, g in halves.items():
        names = [names for size, names in stencils + solves if size == half]
        steps = {"newton"}
        if g is grids[0]:
            steps.add("_fixed_point_newton")
        else:
            assert not any("_fixed_point_newton" in ns for ns in names)
            steps.add("_rounding_polish")
        for stage in steps:
            assert any(stage in ns for ns in names), (g, stage)


def test_rejected_warm_newton_runs_fixed_point(grid255, monkeypatch):
    # a warm Newton result that does not meet tol is dropped, and the
    # fixed point runs as it would from a cold start: a signed one from
    # the init, a nodal one from the reflections
    params = ActionParams(4.0, 10.0)
    newton = ACTION.newton
    for solve in (ground_state, nodal_ground_state):
        cold = solve(grid255, params)
        calls = []

        def first_makes_no_step(grid, u, *args):
            calls.append(1)
            if len(calls) == 1:
                return u, np.inf, 0, "sign-flip", None
            return newton(grid, u, *args)

        # not even about the centre, nor is its even part the state's ray
        init = Field(grid255,
                     cold.u.values * (1.0 + 0.2 * grid255.coords[0] ** 2))
        with monkeypatch.context() as patch:
            patch.setattr(ACTION, "newton", first_makes_no_step)
            steps = _fixed_point_steps(patch)
            st = solve(grid255, params, init_field=init)
        assert len(calls) == 2 and len(steps) == 4
        assert st.residual <= 1e-8
        assert st.action_value == pytest.approx(cold.action_value, rel=1e-12)
        assert st.multistart == cold.multistart


@pytest.mark.parametrize("dim", [1, 2])
def test_tangent_predictor_is_second_order(unit_interval, unit_square, dim):
    # the Euler predictor misses the branch by O(dlambda^2): halving the
    # step quarters the error
    grid = (Grid(unit_interval, 255) if dim == 1
            else Grid(unit_square, 31))
    p, lam, tight = 4.0, 10.0, SolverOptions(tol=1e-10)
    st = ground_state(grid, ActionParams(p, lam), tight)
    errors = []
    for step in (0.4, 0.2):
        exact = ground_state(grid, ActionParams(p, lam + step), tight).u.values
        guess = tangent_predictor(st, lam + step).values
        errors.append(np.max(np.abs(guess - exact)))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_rejected_newton_resumes_fixed_point(monkeypatch):
    # Newton from the fourth step stalls at the rounding floor above tol on
    # this fine grid, so the rounding polish follows it at once and
    # finishes without further fixed-point steps; the state is on the
    # manifold all the same
    grid = Grid(DomainSpec.interval(0.0, 1.0), 4096)
    steps = _fixed_point_steps(monkeypatch)
    st = ground_state(grid, ActionParams(4.0, 100.0))
    assert len(steps) == 4
    assert st.residual <= 1e-8
    assert max(_nehari_gaps(st)) <= 1e-13


def test_newton_rejected_without_stall_resumes_fixed_point(monkeypatch):
    # only a stall sends the switch's Newton on to the rounding polish; a
    # result rejected for another reason lets the fixed point go on, and
    # the final stage still polishes its best iterate to tol
    grid = Grid(DomainSpec.interval(0.0, 1.0), 4096)
    newton = ACTION.newton
    monkeypatch.setattr(ACTION, "newton", lambda *args: (
        lambda out: out[:3] + ("sign-flip",) + out[4:])(newton(*args)))
    steps = _fixed_point_steps(monkeypatch)
    st = ground_state(grid, ActionParams(4.0, 100.0))
    assert len(steps) > 4
    assert st.residual <= 1e-8
    assert pde_residual(st.u, st.params) <= 1e-8
    assert max(_nehari_gaps(st)) <= 1e-13


@pytest.mark.parametrize("solve, n, p, lam, iterations, level", [
    (ground_state, 4096, 4.0, 10.0, 7, 61.68377883883685),
    (nodal_ground_state, 512, 3.0, 400.0, 11, 7699061.755442034),
    (nodal_ground_state, 511, 3.0, 400.0, 10, 7699060.393143617),
])
def test_newton_continues_after_the_rescale(unit_interval, monkeypatch, solve,
                                            n, p, lam, iterations, level):
    # Newton from the fourth fixed-point step stops on tol, and the exact
    # rescale onto the manifold lifts the residual back above it; Newton
    # continues once from the rescaled state (the nodal ones stall), and
    # its result meets tol once rescaled again.  The fixed point no
    # longer creeps on to its own stall (30, 608 and 63 iterations, to
    # the same levels)
    newton = ACTION.newton
    reasons = []
    monkeypatch.setattr(ACTION, "newton", lambda *args: (
        lambda out: reasons.append(out[3]) or out)(newton(*args)))
    steps = _fixed_point_steps(monkeypatch)
    st = solve(Grid(unit_interval, n), ActionParams(p, lam))
    assert len(steps) == 4 and len(reasons) == 2 and reasons[0] == "tol"
    assert st.iterations == iterations
    assert st.residual == pde_residual(st.u, st.params) <= 1e-8
    assert st.action_value == pytest.approx(level, rel=1e-15)


@pytest.mark.parametrize("p, lam, tol, polished", [
    (4.0, 10.0, 3.5e-7, 2.6e-7),
    # the narrow soliton's Jacobian is nearly singular along its
    # translation mode; each long-double Newton step still lands
    (6.0, 2500.0, 2e-7, 1.25e-7),
])
def test_fine_grid_rounding_polish_work(monkeypatch, p, lam, tol, polished):
    # at n = 32767 the start's four fixed-point steps run on the 1023-node
    # grid, whose Newton meets tol; on the fine grid Newton from the
    # prolonged state stalls at the rounding floor above tol, and the
    # rounding polish finishes with its three long-double Newton steps,
    # one double solve each
    from nlsground.linsolve import OperatorSolver

    grid = Grid(DomainSpec.interval(0.0, 1.0), 32767)
    solve = ACTION.solve_tridiagonal_longdouble
    calls = []
    monkeypatch.setattr(ACTION, "solve_tridiagonal_longdouble",
                        lambda *args: calls.append(1) or solve(*args))
    shifted = OperatorSolver.solve
    steps = []
    monkeypatch.setattr(OperatorSolver, "solve", lambda self, b:
                        steps.append(self.grid.n) or shifted(self, b))
    st = ground_state(grid, ActionParams(p, lam), SolverOptions(tol=tol))
    assert steps == [1023] * 4
    assert len(calls) == 3
    assert st.residual <= polished
    assert pde_residual(st.u, st.params) == st.residual


def _viterbi_reference(eps_lo, eps_hi, mirror=False):
    """The rounding choices by a scalar dynamic program over choice pairs.

    If mirror, the last node is closed by e_n = e_{n-2} and weighted 1/2.
    """
    n = eps_lo.size
    e = (eps_lo.tolist(), eps_hi.tolist())
    # dp[a][b]: best cost with choice a at node i-1 and b at node i;
    # the cost of node i couples (i-1, i, i+1), zero padding at the walls.
    dp = [[0.0, 0.0], [0.0, 0.0]]
    for a in range(2):
        for b in range(2):
            r = 2.0 * e[a][0] - e[b][1]
            dp[a][b] = r * r
    back = []
    for i in range(1, n - 1):
        ndp = [[0.0, 0.0], [0.0, 0.0]]
        bk = [[0, 0], [0, 0]]
        for b in range(2):
            for c in range(2):
                r0 = 2.0 * e[b][i] - e[0][i - 1] - e[c][i + 1]
                r1 = 2.0 * e[b][i] - e[1][i - 1] - e[c][i + 1]
                c0 = dp[0][b] + r0 * r0
                c1 = dp[1][b] + r1 * r1
                if c0 <= c1:
                    ndp[b][c] = c0
                    bk[b][c] = 0
                else:
                    ndp[b][c] = c1
                    bk[b][c] = 1
        dp = ndp
        back.append(bk)
    best = np.inf
    state = (0, 0)
    for a in range(2):
        for b in range(2):
            r = 2.0 * e[b][n - 1] - e[a][n - 2]
            if mirror:
                r -= e[a][n - 2]
            tot = dp[a][b] + (0.5 if mirror else 1.0) * r * r
            if tot < best:
                best = tot
                state = (a, b)
    choices = np.zeros(n, dtype=np.int8)
    choices[n - 2], choices[n - 1] = state
    for i in range(n - 3, -1, -1):
        choices[i] = back[i][choices[i + 1]][choices[i + 2]]
    return choices


def _rounding_cost(eps_lo, eps_hi, choices, mirror=False):
    chosen = np.where(choices == 0, eps_lo, eps_hi)
    after = chosen[-2:-1] if mirror else [0.0]
    e = np.concatenate(([0.0], chosen, after))
    r = 2.0 * e[1:-1] - e[:-2] - e[2:]
    cost = r * r
    if mirror:
        cost[-1] *= 0.5
    return float(np.sum(cost))


def _check_viterbi(n, errors, mirror):
    # errors as the rounding polish makes them: the two neighbouring
    # doubles of a long-double value lie one ulp apart around it
    ulp = 2.0 ** -52
    rng = np.random.default_rng(n)
    eps_lo = (-ulp * rng.random(n) if errors == "random"
              else np.full(n, -0.5 * ulp))
    eps_hi = eps_lo + ulp
    got = _viterbi_rounding(eps_lo, eps_hi, mirror)
    ref = _viterbi_reference(eps_lo, eps_hi, mirror)
    assert got.dtype == np.int8 and got.shape == (n,)
    assert _rounding_cost(eps_lo, eps_hi, got, mirror) == pytest.approx(
        _rounding_cost(eps_lo, eps_hi, ref, mirror), rel=1e-12)
    if errors == "random":
        # the optimum is unique; symmetric errors tie every path with its
        # flip, so there only the cost is defined
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 1000, 4096])
@pytest.mark.parametrize("errors", ["random", "symmetric"])
def test_viterbi_rounding_matches_scalar_reference(n, errors):
    _check_viterbi(n, errors, mirror=False)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 1000, 4096])
@pytest.mark.parametrize("errors", ["random", "symmetric"])
def test_viterbi_mirror_closure_matches_scalar_reference(n, errors):
    # the half block of an even field ends on its centre, closed by the
    # mirror e_n = e_{n-2} and standing for one grid node, the others
    # for two; an odd field's half block ends next to the zero centre,
    # as at a wall
    _check_viterbi(n, errors, mirror=True)


@pytest.mark.parametrize("mirror", [False, True])
def test_viterbi_rounding_is_the_least_cost(mirror):
    # every choice vector on a few nodes, one node included
    ulp = 2.0 ** -52
    rng = np.random.default_rng(5)
    for n in range(1 + mirror, 9):
        eps_lo = -ulp * rng.random(n)
        eps_hi = eps_lo + ulp
        least = min(_rounding_cost(eps_lo, eps_hi, np.array(c), mirror)
                    for c in itertools.product((0, 1), repeat=n))
        got = _viterbi_rounding(eps_lo, eps_hi, mirror)
        assert _rounding_cost(eps_lo, eps_hi, got, mirror) == least


def test_2d_solve_memory_stays_near_fixed_point(unit_square):
    # Newton's MINRES shares the fixed point's shifted solver as its
    # preconditioner and the sine transform writes into a field-sized
    # output (in place for the second one), so the peak stays within a
    # few field-sized arrays of the fixed point's own
    import tracemalloc

    grid = Grid(unit_square, 127)
    params = ActionParams(4.0, 10.0)
    ground_state(grid, params)
    tracemalloc.start()
    try:
        ground_state(grid, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * grid.size * 8


@pytest.mark.parametrize("kind, dim", [("signed", 1), ("nodal", 1), ("signed", 2),
                                       ("nodal", 2)])
def test_mass_slope_matches_resolved_masses(unit_interval, unit_square, kind, dim):
    # 2 h^N <u, u'> with u' the linearized solve of -u, against central
    # differences of the masses of states re-solved at lambda -+ 1e-3
    grid = (Grid(unit_interval, 255) if dim == 1
            else Grid(unit_square, 63))
    solve = ground_state if kind == "signed" else nodal_ground_state
    p, lam, step = 4.0, 10.0, 1e-3
    slope = mass_slope(solve(grid, ActionParams(p, lam)))
    up, down = (solve(grid, ActionParams(p, lam + s)).mass for s in (step, -step))
    assert slope == pytest.approx((up - down) / (2.0 * step), rel=1e-7)


def test_unscaled_mode_is_not_a_solution(grid255):
    # the linear mode solves only the linear problem; without the right
    # amplitude the nonlinear residual stays bounded away from zero
    phi = _phi1(grid255)
    lam1 = dirichlet_eigenpairs(grid255, 1)[0].value
    res = pde_residual(phi, ActionParams(4.0, -lam1))
    lp = grid255.lp_p(phi.values, 4.0)
    assert res > 0.1 * lp


@pytest.mark.parametrize("dim", [1, 2])
def test_unreachable_tolerance_names_every_stage(unit_square, grid511, dim):
    # the error says where the fixed point, Newton and (in 1D) the
    # rounding polish stopped
    grid = grid511 if dim == 1 else Grid(unit_square, 31)
    with pytest.raises(NoConvergence) as err:
        ground_state(grid, ActionParams(4.0, 10.0), SolverOptions(tol=1e-16))
    msg = str(err.value)
    assert "the fixed point stopped on stall" in msg
    assert "then Newton on stall" in msg
    assert ("rounding polish" in msg) == (dim == 1)


def test_unreachable_tolerance_is_reported(grid511):
    # storage rounding bounds the attainable residual; an impossible
    # tolerance must surface as a failure, not a silent loose answer
    with pytest.raises(Exception) as err:
        ground_state(grid511, ActionParams(4.0, 10.0), SolverOptions(tol=1e-16))
    assert "residual" in str(err.value)


BLAS_THREADS_SCRIPT = """
import hashlib
import nlsground as nls

grid = nls.Grid(nls.DomainSpec.interval(0.0, 1.0), 32767)
st = nls.ground_state(grid, nls.ActionParams(6.0, 2500.0),
                      nls.SolverOptions(tol=2e-7))
print(hashlib.sha256(st.u.values.tobytes()).hexdigest(), repr(st.residual))
"""


def test_fine_grid_state_independent_of_blas_threads():
    # BLAS splits long dot products across its threads; every reduction
    # the solver makes must round the same way under any thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.strip())
    assert outs[0] == outs[1]
