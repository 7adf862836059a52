import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, Field, Grid,
                       LambdaBelowThreshold, NlsgroundError, NoConvergence,
                       SolverOptions, dirichlet_eigenpairs, ground_state,
                       kappa, lambda1, lambda2,
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


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_three_node_state_is_closed_form(p):
    # the odd fields of the midpoint flip on n = 3 are (a, 0, -a), so the
    # state solves (2/h^2 + lambda) a = a^(p-1)
    grid = Grid(DomainSpec.interval(0.0, 1.0), 3)
    lam = 10.0
    st = nodal_ground_state(grid, ActionParams(p, lam))
    a = (2.0 / grid.h[0] ** 2 + lam) ** (1.0 / (p - 2.0))
    assert st.node_count == 1 and st.u.values[1] == 0.0
    np.testing.assert_allclose(st.u.values, [a, 0.0, -a], rtol=1e-14)
    assert st.residual <= 1e-8


def test_three_node_polish_solves_its_one_node():
    # at n = 3 the odd half block is the node a alone: below the
    # reachable residual (8e-14 at p=6, lambda=100), Newton's and the
    # rounding polish's solves and the rounding choice on it run, and
    # the solve raises as it should
    grid = Grid(DomainSpec.interval(0.0, 1.0), 3)
    with pytest.raises(NoConvergence, match="rounding polish"):
        nodal_ground_state(grid, ActionParams(6.0, 100.0),
                           SolverOptions(tol=1e-300))


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
    assert np.array_equal(vals, -vals[::-1, ::-1])


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
    # the branch starts on the diagonal, and its warm steps' Newton keeps
    # every state exactly odd under the transpose and the half-turn
    assert labels[0] == "diagonal"
    for st in curve.states:
        a = st.u.values.reshape(grid.shape)
        assert np.array_equal(a, -a.T)
        assert np.array_equal(a, -a[::-1, ::-1])


@pytest.mark.parametrize("n, outcomes", [
    # at n=3 the half-turn block has two rows and its solve one quarter-
    # block node per column pair; the levels are those of the full solve
    (3, [139.94990972087848, 128.2582160442949, 2066024.2962637865]),
    (5, [172.55726899606267, 84.69164424483364, 1408854.5434971591]),
    (31, [269.1791050330488, 92.80950393249717, None]),
    (63, [270.94971341704604, 95.16694167706692, None]),
])
def test_cold_diagonal_states_are_exactly_odd(unit_square, n, outcomes):
    # the diagonal start alone: every state it reaches is exactly odd
    # under the transpose and the half-turn, and where it raises (None)
    # the fixed point has crept to max_iter and Newton stalled
    from nlsground.action import least_action_state
    from nlsground.grid import DIAGONAL
    from nlsground.nodal import _reflections

    grid = Grid(unit_square, n)
    for (p, lam), level in zip([(4.0, 10.0), (6.0, 150.0), (3.0, 400.0)],
                               outcomes):
        # the start builds its mode on the grid only when it runs
        label, cls, mode = _reflections(grid)[0]
        assert (label, cls) == ("diagonal", DIAGONAL)
        a = mode(grid).reshape(grid.shape)
        assert np.array_equal(a, -a.T)
        starts = [(label, cls, mode)]
        if level is None:
            stop = "diagonal: .* stopped on max_iter, then Newton on stall"
            with pytest.raises(NoConvergence, match=stop):
                least_action_state(grid, ActionParams(p, lam),
                                   SolverOptions(), None, starts, 2)
            continue
        st, _ = least_action_state(grid, ActionParams(p, lam),
                                   SolverOptions(), None, starts, 2)
        assert st.action_value == pytest.approx(level, rel=1e-12)
        assert st.residual == pde_residual(st.u, st.params) <= 1e-8
        a = st.u.values.reshape(grid.shape)
        assert np.array_equal(a, -a.T)
        assert np.array_equal(a, -a[::-1, ::-1])


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


def test_residual_is_the_padded_five_point_stencil(unit_square):
    from nlsground.linsolve import residual

    grid = Grid(unit_square, 15)
    x, y = grid.meshes()
    sign = np.sign(np.sin(2.0 * np.pi * x) * np.sin(np.pi * y)
                   + 0.3 * np.cos(3.0 * y)).reshape(-1)
    sign[:15] = 0.0  # a row of zero nodes
    u = sign * (0.5 + np.random.default_rng(0).random(grid.size))
    p, lam = 4.0, 10.0
    f, norm = residual(grid, u, p, lam)
    # the full residual by a padded 5-point stencil, on every node
    h = grid.h[0]
    w = np.pad(u.reshape(grid.shape), 1)
    lap = (4.0 * w[1:-1, 1:-1] - w[2:, 1:-1] - w[:-2, 1:-1]
           - w[1:-1, 2:] - w[1:-1, :-2]).reshape(-1) / (h * h)
    g = lap + lam * u - np.abs(u) ** (p - 2) * u
    assert np.max(np.abs(f - g)) <= 1e-12 * np.max(np.abs(lap))
    assert norm == pytest.approx(np.sqrt(h * h * np.sum(g * g)), rel=1e-12)


def test_minres_matches_dense_solve_on_indefinite_system(unit_square):
    from nlsground.linsolve import shifted_solver
    from nlsground.linsolve import _minres

    grid = Grid(unit_square, 15)
    dense = np.column_stack([grid.laplacian(e) for e in np.eye(grid.size)])
    assert np.array_equal(dense, dense.T)
    dense -= 100.0 * np.eye(grid.size)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] < 0.0 < eigs[-1] and np.min(np.abs(eigs)) > 1.0
    b = np.random.default_rng(1).standard_normal(grid.size)
    x = _minres(lambda v: grid.laplacian(v) - 100.0 * v, b,
                shifted_solver(grid, 0.0)._raw_solve, 1e-14, 500)
    exact = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


@pytest.mark.parametrize("n", [255, 511])
def test_1d_nodal_newton_does_not_stall(unit_interval, n):
    # Newton from the fourth fixed-point step finishes the solve (10
    # iterations in all); a stalled Newton leaves the fixed point to creep
    st = nodal_ground_state(Grid(unit_interval, n), ActionParams(4.0, 2500.0))
    assert st.residual <= 1e-8
    assert st.iterations <= 12


@pytest.mark.parametrize("dim", [1, 2])
def test_newton_keeps_odd_fields_odd(unit_interval, unit_square, dim):
    from nlsground.linsolve import newton

    p, lam = 4.0, 100.0
    if dim == 1:
        grid = Grid(unit_interval, 255)
        flip = lambda a: a[::-1]  # noqa: E731
        fixed = [127]
    else:
        grid = Grid(unit_square, 31)
        flip = lambda a: a.reshape(grid.shape).T.reshape(-1)  # noqa: E731
        fixed = np.arange(31) * 32  # the diagonal
    st = nodal_ground_state(grid, ActionParams(p, lam))
    assert st.multistart[0][0] in ("midpoint", "diagonal")
    # an exactly odd start off the state, zero on the fixed nodes
    u = 0.505 * (st.u.values - flip(st.u.values))
    assert np.array_equal(u, -flip(u)) and not np.any(u[fixed])
    out, res, steps, reason, _ = newton(grid, u, p, lam, 1e-10)
    assert steps >= 2 and res < pde_residual(Field(grid, u),
                                             ActionParams(p, lam))
    assert not np.any(out[fixed])
    # odd up to the rounding of the steps' solves
    assert np.max(np.abs(out + flip(out))) <= 1e-14 * np.max(np.abs(out))


@pytest.mark.parametrize("box", [(0.0, 1.0, 0.0, 1.0), (0.0, 1.2, 0.0, 1.0)])
@pytest.mark.parametrize("n", [31, 32])
def test_2d_nodal_state_at_minus_lambda1(box, n):
    # the odd-field solve at c = -lambda_1: mode (1, 1), even under every
    # reflection, has a zero denominator, which must not become 1/0
    grid = Grid(DomainSpec.rectangle(*box), n)
    st = nodal_ground_state(grid, ActionParams(4.0, -lambda1(grid)))
    assert st.residual <= 1e-8 and st.node_count == 1
