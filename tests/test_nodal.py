import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, Grid, LambdaBelowThreshold,
                       NlsgroundError, NoConvergence, SolverOptions,
                       dirichlet_eigenpairs, ground_state, kappa, lambda2,
                       nodal_ground_state, norms, pde_residual, split, sweep)


def test_kappa_values():
    assert kappa(6.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert kappa(4.0) == pytest.approx(0.25, rel=1e-15)


def test_ground_state_contracts(grid511):
    p, lam = 4.0, 10.0
    st = nodal_ground_state(grid511, ActionParams(p, lam))
    assert st.node_count >= 1
    for part in split(st.u):
        l2, lp, gr = norms(part, p)
        assert abs(gr + lam * l2 - lp) <= 1e-10 * lp
        assert lp ** (1.0 / p) > 1e-3
    assert st.residual == pde_residual(st.u, ActionParams(p, lam)) <= 1e-8
    assert st.part_masses is not None
    assert st.mass == pytest.approx(sum(st.part_masses), rel=1e-12)
    assert st.action_value == pytest.approx(sum(st.part_actions), rel=1e-12)
    assert [label for label, _ in st.multistart] == ["midpoint"]
    signed = ground_state(grid511, ActionParams(p, lam))
    assert st.action_value >= 2.0 * signed.action_value - 1e-8


def test_warm_hint_reproduces(grid511):
    params = ActionParams(4.0, 10.0)
    cold = nodal_ground_state(grid511, params)
    warm = nodal_ground_state(grid511, params, init_field=cold.u)
    assert [label for label, _ in warm.multistart] == ["warm"]
    assert warm.action_value == pytest.approx(cold.action_value, rel=1e-12)


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("p", [4.0, 8.0])
@pytest.mark.parametrize("lam", [10.0, 2500.0])
def test_midpoint_walk_reaches_scanned_minimum(n, p, lam):
    # no split with a zero node at m (the left part the signed state on
    # m - 1 nodes, the right one on n - m) lies below the nodal level
    grid = Grid(DomainSpec.interval(0.0, 1.0), n)
    params = ActionParams(p, lam)
    st = nodal_ground_state(grid, params)
    h = grid.h[0]
    f = {}
    for k in range(3, n - 3):
        side = Grid(DomainSpec.interval(0.0, (k + 1) * h), k)
        try:
            f[k] = ground_state(side, params).action_value
        except NlsgroundError:
            f[k] = np.inf
    best = min(f[m - 1] + f[n - m] for m in range(4, n - 2))
    assert np.isfinite(best)
    assert st.action_value <= best * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("p, lam", [(4.0, 10.0), (8.0, 2500.0), (4.0, None)])
def test_1d_nodal_residual_is_the_full_residual(n, p, lam):
    # on even n no node lies at the midpoint: the state solves the full
    # discrete system across the middle edge, near the threshold too
    grid = Grid(DomainSpec.interval(0.0, 1.0), n)
    params = ActionParams(p, -lambda2(grid) + 0.5 if lam is None else lam)
    st = nodal_ground_state(grid, params)
    assert st.residual == pde_residual(st.u, params) <= SolverOptions().tol
    assert st.node_count == 1


def _assert_ignores_seed(grid):
    params = ActionParams(4.0, 10.0)
    states = [nodal_ground_state(grid, params, SolverOptions(seed=seed))
              for seed in range(4)]
    for st in states[1:]:
        assert st.u.values.tobytes() == states[0].u.values.tobytes()
        assert st.multistart == states[0].multistart
        assert st.iterations == states[0].iterations


def test_1d_nodal_state_ignores_seed(grid511):
    _assert_ignores_seed(grid511)


def test_2d_nodal_state_ignores_seed(unit_square):
    _assert_ignores_seed(Grid(unit_square, 31))


def test_threshold_refusal(grid255):
    lam2_h = lambda2(grid255)
    with pytest.raises(LambdaBelowThreshold):
        nodal_ground_state(grid255, ActionParams(4.0, -lam2_h))
    with pytest.raises(LambdaBelowThreshold):
        nodal_ground_state(grid255, ActionParams(4.0, -1.5 * lam2_h))


def test_second_mode_upper_bound_near_threshold(grid2047):
    # the projected second eigenfunction caps the level:
    # J_nod(-lambda_2 + delta) <= C1 delta^{p/(p-2)} with C1 from phi_2
    pairs = dirichlet_eigenpairs(grid2047, 2)
    lam2_h = pairs[1].value
    phi2 = pairs[1].vector
    for p in (4.0, 6.0):
        c1 = 0.0
        for part in split(phi2):
            l2, lp, _ = norms(part, p)
            c1 += (np.sqrt(l2) / lp ** (1.0 / p)) ** (2.0 * p / (p - 2.0))
        c1 *= kappa(p)
        for delta in (1.0, 0.5, 0.25):
            st = nodal_ground_state(grid2047, ActionParams(p, -lam2_h + delta))
            assert st.action_value <= c1 * delta ** (p / (p - 2.0))
            assert st.action_value > 0.0


def test_two_bump_limit_large_interval():
    # far-separated opposite bumps: twice the unit-frequency level and
    # twice the soliton mass (quadrature oracle, see test_action)
    grid = Grid(DomainSpec.interval(-20.0, 20.0), 4095)
    st = nodal_ground_state(grid, ActionParams(6.0, 1.0), SolverOptions(tol=1e-9))
    assert st.action_value == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, rel=1e-4)
    assert st.mass == pytest.approx(np.sqrt(3.0) * np.pi, rel=1e-4)


def test_2d_descent(unit_square):
    grid = Grid(unit_square, 31)
    p, lam = 4.0, 30.0
    opts = SolverOptions(tol=1e-5, max_iter=300)
    st = nodal_ground_state(grid, ActionParams(p, lam), opts)
    for part in split(st.u):
        l2, lp, gr = norms(part, p)
        assert lp > 0.0
        assert abs(gr + lam * l2 - lp) <= 1e-10 * lp
    signed = ground_state(grid, ActionParams(p, lam))
    assert st.action_value >= 2.0 * signed.action_value - 1e-8
    assert st.action_value == pytest.approx(sum(st.part_actions), rel=1e-12)
    assert st.node_count >= 1


def _own_partwise_residual(vals: np.ndarray, h: float, p: float, lam: float) -> float:
    """Residual of each sign part on its support, by a padded 5-point stencil."""
    total = 0.0
    for part in (np.maximum(vals, 0.0), np.minimum(vals, 0.0)):
        w = np.pad(part, 1)
        lap = (4.0 * w[1:-1, 1:-1] - w[2:, 1:-1] - w[:-2, 1:-1]
               - w[1:-1, 2:] - w[1:-1, :-2]) / (h * h)
        r = lap + lam * part - np.abs(part) ** (p - 2) * part
        total += float(np.sum(r[part != 0.0] ** 2))
    return float(np.sqrt(h * h * total))


@pytest.fixture(scope="module")
def square_nodal(unit_square):
    grid = Grid(unit_square, 63)
    params = ActionParams(4.0, 10.0)
    return grid, params, nodal_ground_state(grid, params)


def test_2d_nodal_state_meets_tol(square_nodal):
    grid, params, st = square_nodal
    vals = st.u.values.reshape(grid.shape)
    assert _own_partwise_residual(vals, grid.h[0], params.p, params.lam) <= 1e-8
    # the reported residual is the full-PDE one
    assert st.residual == pde_residual(st.u, params)
    assert st.residual <= 1e-8
    assert st.node_count == 1
    for part in split(st.u):
        l2, lp, gr = norms(part, params.p)
        assert abs(gr + params.lam * l2 - lp) <= 1e-10 * lp


def test_2d_nodal_level(square_nodal):
    grid, params, st = square_nodal
    signed = ground_state(grid, params)
    assert st.action_value > 2.0 * signed.action_value
    # the state odd under the transpose, below the midline one (293.04)
    assert [label for label, _ in st.multistart] == ["diagonal", "midline"]
    assert st.action_value == pytest.approx(270.94971341704604, rel=1e-10)
    assert st.action_value == min(value for _, value in st.multistart)
    vals = st.u.values.reshape(grid.shape)
    assert np.array_equal(vals, -vals.T)


def test_2d_nodal_raises_above_tol(unit_square):
    # the full residual's rounding floor at n=63 lies far above 1e-15
    grid = Grid(unit_square, 63)
    with pytest.raises(NoConvergence) as err:
        nodal_ground_state(grid, ActionParams(4.0, 10.0), SolverOptions(tol=1e-15))
    assert "above tol 1.0e-15" in str(err.value)


def test_2d_descent_skips_repeated_start():
    # a rectangle wider than tall has one reflection whose odd fields start
    # at lambda_2, the flip of its longer axis; the one taller than wide
    # gives the transposed state
    params = ActionParams(4.0, 10.0)
    wide = nodal_ground_state(
        Grid(DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), 31), params)
    tall = nodal_ground_state(
        Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 31), params)
    assert [label for label, _ in wide.multistart] == ["midline"]
    assert wide.action_value == pytest.approx(155.85458030348136, rel=1e-10)
    assert tall.action_value == pytest.approx(wide.action_value, rel=1e-12)
    wide_vals = wide.u.values.reshape(31, 31)
    tall_vals = tall.u.values.reshape(31, 31)
    assert np.max(np.abs(tall_vals - wide_vals.T)) <= 1e-10 * np.max(np.abs(wide_vals))


def test_2d_nodal_error_names_every_start(unit_square):
    grid = Grid(unit_square, 31)
    with pytest.raises(NoConvergence) as err:
        nodal_ground_state(grid, ActionParams(3.0, -48.2), SolverOptions(tol=1e-15))
    message = str(err.value)
    for label in ("diagonal", "midline"):
        assert message.count(f"{label}: residual ") == 1
    assert message.count("the fixed point stopped on") == 2


def test_2d_nodal_period_two_sign_pattern_meets_tol(unit_square):
    # sample 9 of the 20-sample p=3 sweep in
    # test_2d_nodal_sweep_flags_nothing, solved cold
    grid = Grid(unit_square, 31)
    params = ActionParams(3.0, 21.992933942355357)
    st = nodal_ground_state(grid, params)
    assert st.residual <= 1e-8
    assert st.node_count == 1
    assert st.action_value == pytest.approx(21715.034725375022, rel=1e-10)


@pytest.mark.parametrize("p, lam", [(3.0, -45.0), (3.0, 10.0), (4.0, -45.0),
                                    (4.0, 10.0)])
def test_2d_nodal_level_converges_in_h(unit_square, p, lam):
    # second order in h: successive differences shrink by 4, the bound the
    # benchmark's square-2d workload puts on signed levels
    levels = [nodal_ground_state(Grid(unit_square, n),
                                 ActionParams(p, lam)).action_value
              for n in (31, 63, 127)]
    ratio = (levels[1] - levels[0]) / (levels[2] - levels[1])
    assert 3.0 <= ratio <= 5.0


def test_2d_nodal_sweep_flags_nothing(unit_square):
    grid = Grid(unit_square, 31)
    lambdas = np.linspace(-lambda2(grid) + 1.0, 100.0, 20)
    curve = sweep(grid, 3.0, lambdas, kind="nodal")
    assert curve.flags == ["ok"] * 20
    assert np.all(np.diff(curve.J) > 0.0)
    # most samples are continuation steps from the previous state
    labels = [st.multistart[0][0] for st in curve.states]
    assert labels.count("warm") >= 15


@pytest.mark.parametrize("lam, label, level, other", [
    (100.0, "diagonal", 78.67666450185101, 78.96564280744462),
    (150.0, "midline", 94.90993004686891, 95.16694167706692),
    (200.0, "diagonal", 106.42944033288222, 106.46931746411593),
])
def test_2d_nodal_branch_selection(unit_square, lam, label, level, other):
    # the least raw action of the two reflection starts wins.  At
    # lambda=150 the diagonal start stops on a transpose-odd state above
    # the one a warm continuation from lambda=100 reaches (94.795)
    grid = Grid(unit_square, 63)
    st = nodal_ground_state(grid, ActionParams(6.0, lam))
    values = dict(st.multistart)
    assert values[label] == st.action_value == pytest.approx(level, rel=1e-9)
    (loser,) = set(values) - {label}
    assert values[loser] == pytest.approx(other, rel=1e-9)


def _frozen_square(n: int):
    from nlsground.linsolve import _FrozenPartition

    grid = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), n)
    x, y = grid.meshes()
    sign = np.sign(np.sin(2.0 * np.pi * x) * np.sin(np.pi * y)
                   + 0.3 * np.cos(3.0 * y)).reshape(-1)
    sign[:n] = 0.0  # a row of zero nodes, decoupled from both parts
    return grid, sign, _FrozenPartition(grid, sign)


def test_frozen_partition_pins_zero_nodes():
    grid, sign, frozen = _frozen_square(15)
    rng = np.random.default_rng(0)
    u = sign * (0.5 + rng.random(grid.size))
    p, lam = 4.0, 10.0
    f, norm = frozen.residual(u, p, lam)
    # the full residual by a padded 5-point stencil, zero on zero nodes
    h = grid.h[0]
    w = np.pad(u.reshape(grid.shape), 1)
    lap = (4.0 * w[1:-1, 1:-1] - w[2:, 1:-1] - w[:-2, 1:-1]
           - w[1:-1, 2:] - w[1:-1, :-2]).reshape(-1) / (h * h)
    g = np.where(sign != 0.0, lap + lam * u - np.abs(u) ** (p - 2) * u, 0.0)
    assert np.max(np.abs(f - g)) <= 1e-12 * np.max(np.abs(lap))
    assert norm == pytest.approx(np.sqrt(h * h * np.sum(g * g)), rel=1e-12)
    # on any field: the plain stencil with the zero nodes' values dropped,
    # and the bare diagonal on the zero nodes
    v = rng.standard_normal(grid.size)
    pinned = np.where(sign != 0.0, v, 0.0)
    expected = np.where(sign != 0.0, grid.laplacian(pinned), 4.0 / (h * h) * v)
    assert np.max(np.abs(frozen.apply(v) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_minres_matches_dense_solve_on_indefinite_system():
    from nlsground.linsolve import shifted_solver
    from nlsground.linsolve import _minres

    grid, _, frozen = _frozen_square(15)
    dense = np.column_stack([frozen.apply(e) for e in np.eye(grid.size)])
    assert np.array_equal(dense, dense.T)
    dense -= 100.0 * np.eye(grid.size)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] < 0.0 < eigs[-1] and np.min(np.abs(eigs)) > 1.0
    b = np.random.default_rng(1).standard_normal(grid.size)
    x = _minres(lambda v: frozen.apply(v) - 100.0 * v, b,
                shifted_solver(grid, 0.0)._raw_solve, 1e-14, 500)
    exact = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)
