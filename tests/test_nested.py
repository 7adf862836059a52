"""Nested iteration: cold 1D solves on fine grids start from the 1023-node
grid's state and finish with Newton; every outcome matches the fine
grid's own fixed point."""

import importlib

import numpy as np
import pytest

from nlsground import (ActionParams, Grid, NoConvergence,
                       SolverOptions, estimate_mu_N, ground_state, lambda1,
                       lambda2, nodal_ground_state, pde_residual)

ACTION = importlib.import_module("nlsground.action")

# the fine-1d benchmark's frequencies, each at its tolerance there
CASES = [((4.0, 10.0), 3.5e-7), ((6.0, 2500.0), 1e-6), ((8.0, 10.0), 1e-8),
         ((6.0, 100.0), 1e-6)]
SOLVES = [ground_state, nodal_ground_state]


def _unnested(patch):
    """Make every cold solve run its start on its own grid only."""
    patch.setattr(ACTION, "_NEST_FROM", np.inf)


def _outcome(solve, grid, params, opts):
    try:
        return solve(grid, params, opts)
    except NoConvergence as exc:
        return str(exc)


def _fixed_points(patch):
    """The node counts of the grids the fixed point runs on."""
    fixed_point = ACTION._fixed_point_newton
    grids = []
    patch.setattr(ACTION, "_fixed_point_newton", lambda params, opts, u, s:
                  grids.append(s.grid.n) or fixed_point(params, opts, u, s))
    return grids


def _assert_same_state(st, ref):
    assert np.array_equal(st.u.values, ref.u.values)
    assert (st.action_value, st.residual, st.multistart) == (
        ref.action_value, ref.residual, ref.multistart)


@pytest.mark.parametrize("n", [8191, 8192, 16383, 32767])
def test_nested_states_match_the_fine_path(unit_interval, monkeypatch, n):
    # a nested state meets tol, keeps its start's label and node count
    # and has the fine grid's own level to 1e-12; where the fine path
    # raises, the nested one raises the same (its start fell back)
    grid = Grid(unit_interval, n)
    for solve in SOLVES:
        for (p, lam), tol in CASES:
            params, opts = ActionParams(p, lam), SolverOptions(tol=tol)
            with monkeypatch.context() as patch:
                fine = _fixed_points(patch)
                st = _outcome(solve, grid, params, opts)
            with monkeypatch.context() as patch:
                _unnested(patch)
                ref = _outcome(solve, grid, params, opts)
            if isinstance(ref, str):
                assert st == ref
                continue
            assert fine == [1023]  # the start was nested
            assert st.residual == pde_residual(st.u, params) <= tol
            assert st.node_count == ref.node_count == (
                solve is nodal_ground_state)
            assert [label for label, _ in st.multistart or ()] == [
                label for label, _ in ref.multistart or ()]
            assert st.action_value == pytest.approx(ref.action_value,
                                                    rel=1e-12)


def test_mu_n_nested_matches_the_fine_path(monkeypatch):
    # the largest box of 82 reaches 8191 nodes, where both its solves nest
    boxes = [8.0, 16.0, 82.0]
    with monkeypatch.context() as patch:
        fine = _fixed_points(patch)
        report = estimate_mu_N(1, boxes)
    assert fine.count(1023) == 2 and 8191 not in fine
    with monkeypatch.context() as patch:
        _unnested(patch)
        ref = estimate_mu_N(1, boxes)
    assert report.box_values == pytest.approx(ref.box_values, rel=1e-12)
    assert report.scaling_ratio == pytest.approx(ref.scaling_ratio, rel=1e-12)
    assert report.scaling_ok and ref.scaling_ok


@pytest.mark.parametrize("solve, coarse_steps", [(ground_state, 9),
                                                 (nodal_ground_state, 8)])
def test_fine_grid_runs_two_newton_steps(unit_interval, monkeypatch, solve,
                                         coarse_steps):
    # at n=32767, p=6, lambda=2500 the start's 1023-node state, prolonged
    # onto the fine half block, needs 2 Newton steps there and no
    # fixed-point step, against 4 fixed-point and 5 (signed) or 4 (nodal)
    # Newton steps from the cold start; the state's iterations count
    # the steps on both grids
    grid = Grid(unit_interval, 32767)
    newton = ACTION.newton
    steps = []
    monkeypatch.setattr(ACTION, "newton", lambda space, u, *args: (
        lambda out: steps.append((u.size, out[2])) or out)(
            newton(space, u, *args)))
    fine = _fixed_points(monkeypatch)
    st = solve(grid, ActionParams(6.0, 2500.0), SolverOptions(tol=1e-6))
    assert st.residual <= 1e-6 and fine == [1023]
    fine_steps = sum(k for size, k in steps if size > 1023)
    assert fine_steps <= 2
    assert st.iterations == coarse_steps + fine_steps


@pytest.mark.parametrize("solve", SOLVES)
def test_rejected_nested_newton_falls_back(unit_interval, monkeypatch, solve):
    # if the fine Newton's result is rejected, the start runs the fine
    # grid's fixed point as it would without nesting: the same state,
    # bitwise, with the coarse and the rejected steps counted as well
    grid = Grid(unit_interval, 32767)
    params, opts = ActionParams(6.0, 2500.0), SolverOptions(tol=1e-6)
    with monkeypatch.context() as patch:
        _unnested(patch)
        ref = solve(grid, params, opts)
    attempt = ACTION._newton_attempt
    monkeypatch.setattr(ACTION, "_newton_attempt",
                        lambda *args: (None, attempt(*args)[1]))
    fine = _fixed_points(monkeypatch)
    st = solve(grid, params, opts)
    assert fine == [1023, 32767]
    _assert_same_state(st, ref)
    assert st.iterations > ref.iterations


@pytest.mark.parametrize("solve, bottom", [(ground_state, lambda1),
                                           (nodal_ground_state, lambda2)])
def test_frequency_below_the_coarse_threshold(unit_interval, monkeypatch,
                                              solve, bottom):
    # the coarse grid's lambda_1 and lambda_2 lie below the fine grid's,
    # so a frequency just above the fine threshold may be at or below
    # the coarse one: the start then runs on the fine grid only and
    # returns the fine path's state, bitwise
    grid = Grid(unit_interval, 8191)
    coarse = Grid(unit_interval, 1023)
    fine_floor, coarse_floor = (ACTION.threshold_floor(bottom(g))
                                for g in (grid, coarse))
    assert fine_floor < coarse_floor
    params = ActionParams(4.0, 0.5 * (fine_floor + coarse_floor))
    with monkeypatch.context() as patch:
        _unnested(patch)
        ref = solve(grid, params)
    fine = _fixed_points(monkeypatch)
    st = solve(grid, params)
    assert fine == [8191]
    _assert_same_state(st, ref)
    assert st.iterations == ref.iterations


def test_coarse_failure_leaves_the_fine_outcome(unit_interval, monkeypatch):
    # signed p=3, lambda=1500 raises on the 1023-node grid at tol 1e-8;
    # the start falls back to the fine grid, whose own outcome, and the
    # message naming how it stopped there, are returned unchanged
    grid = Grid(unit_interval, 8191)
    params = ActionParams(3.0, 1500.0)
    with pytest.raises(NoConvergence):
        ground_state(Grid(unit_interval, 1023), params)
    with monkeypatch.context() as patch:
        _unnested(patch)
        ref = _outcome(ground_state, grid, params, SolverOptions())
    fine = _fixed_points(monkeypatch)
    st = _outcome(ground_state, grid, params, SolverOptions())
    assert fine == [1023, 8191]
    if isinstance(ref, str):
        assert st == ref and "n=8191" in st and "n=1023" not in st
    else:
        _assert_same_state(st, ref)
