import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, LambdaBelowThreshold,
                       NoConvergence, NodalCandidate, NonpositiveQuotient,
                       NotSignChanging, SolverOptions, action, build_grid, dirichlet_eigenpairs,
                       ground_state, kappa, lambda1, lambda2, nodal_action_of,
                       nodal_ground_state, nodal_project, norms, pde_residual,
                       split)


def test_kappa_values():
    assert kappa(6.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert kappa(4.0) == pytest.approx(0.25, rel=1e-15)


def test_project_identity_case(grid511):
    params = ActionParams(4.0, 1.0)
    u = grid511.sample(lambda x: np.sin(2.0 * np.pi * x))
    w = nodal_project(u, params)
    w2 = nodal_project(w, params)
    assert np.max(np.abs(w2.values - w.values)) <= 1e-12 * np.max(np.abs(w.values))
    # both parts sit on the constraint set
    for part in split(w):
        l2, lp, gr = norms(part, 4.0)
        assert abs(gr + 1.0 * l2 - lp) <= 1e-10 * lp


def test_project_second_mode_symmetric_scalings(grid511):
    # the two halves of the second mode are reflections, so their
    # scalings agree; the scaling follows the quotient formula with the
    # discrete second eigenvalue up to the O(h) lattice interface term
    params = ActionParams(4.0, 0.0)
    pairs = dirichlet_eigenpairs(grid511, 2)
    lam2_h = pairs[1].value
    phi2 = pairs[1].vector
    w = nodal_project(phi2, params)
    plus_in, minus_in = split(phi2)
    plus_out, minus_out = split(w)
    s_plus = np.max(plus_out.values) / np.max(plus_in.values)
    s_minus = np.min(minus_out.values) / np.min(minus_in.values)
    assert s_plus == pytest.approx(s_minus, rel=1e-10)
    l2p, lpp, _ = norms(plus_in, 4.0)
    expected = np.sqrt(lam2_h * l2p / lpp)
    assert s_plus == pytest.approx(expected, rel=5e-2)


def test_project_rejects_one_signed(grid255):
    u = grid255.sample(lambda x: np.sin(np.pi * x))
    with pytest.raises(NotSignChanging):
        nodal_project(u, ActionParams(4.0, 1.0))


def test_project_nonpositive_quotient_reports_part(grid255):
    lam = -2.0 * lambda2(grid255)
    u = grid255.sample(lambda x: np.sin(2.0 * np.pi * x))
    with pytest.raises(NonpositiveQuotient) as err:
        nodal_project(u, ActionParams(4.0, lam))
    assert err.value.part in ("plus", "minus")


def test_nodal_action_matches_projection_on_zero_node_field(grid511):
    # n odd puts a node at the midpoint, so the parts decouple exactly
    # and the partwise formula equals the action of the projection
    params = ActionParams(4.0, 3.0)
    u = grid511.sample(lambda x: np.sin(2.0 * np.pi * x) * (1.0 + 0.2 * x))
    val = nodal_action_of(u, params)
    direct = action(nodal_project(u, params), params)
    assert val == pytest.approx(direct, rel=1e-12)


def test_nodal_action_dominates_twice_level(grid511):
    params = ActionParams(4.0, 10.0)
    level = ground_state(grid511, params).action_value
    for fn in (lambda x: np.sin(2 * np.pi * x),
               lambda x: np.sin(2 * np.pi * x) + 0.4 * np.sin(3 * np.pi * x),
               lambda x: (x - 0.37) * np.sin(np.pi * x)):
        u = grid511.sample(fn)
        assert nodal_action_of(u, params) >= 2.0 * level - 1e-8


def test_candidate_feasibility(grid255):
    params = ActionParams(4.0, 1.0)
    good = NodalCandidate(grid255.sample(lambda x: np.sin(2 * np.pi * x)), params)
    assert good.sign_changing and good.feasible
    bad = NodalCandidate(grid255.sample(lambda x: np.sin(np.pi * x)), params)
    assert not bad.sign_changing


def test_ground_state_contracts(grid511):
    p, lam = 4.0, 10.0
    st = nodal_ground_state(grid511, ActionParams(p, lam))
    assert st.node_count >= 1
    for part in split(st.u):
        l2, lp, gr = norms(part, p)
        assert abs(gr + lam * l2 - lp) <= 1e-10 * lp
        assert lp ** (1.0 / p) > 1e-3
    # symmetric split: the full-PDE residual matches the parts
    assert pde_residual(st.u, ActionParams(p, lam)) <= 1.5e-8
    assert st.interface_index == (grid511.n + 1) // 2
    assert st.part_masses is not None
    assert st.mass == pytest.approx(sum(st.part_masses), rel=1e-12)
    assert st.action_value == pytest.approx(sum(st.part_actions), rel=1e-12)
    assert [label for label, _ in st.multistart] == ["midpoint"]
    signed = ground_state(grid511, ActionParams(p, lam))
    assert st.action_value >= 2.0 * signed.action_value - 1e-8


def test_warm_hint_reproduces(grid511):
    params = ActionParams(4.0, 10.0)
    cold = nodal_ground_state(grid511, params)
    warm = nodal_ground_state(grid511, params,
                              interface_hint=cold.interface_index)
    assert warm.action_value == pytest.approx(cold.action_value, rel=1e-12)


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("p", [4.0, 8.0])
@pytest.mark.parametrize("lam", [10.0, 2500.0])
def test_midpoint_walk_reaches_scanned_minimum(n, p, lam):
    from nlsground.nodal import _InterfaceProblem

    grid = build_grid(DomainSpec.interval(0.0, 1.0), n)
    params = ActionParams(p, lam)
    st = nodal_ground_state(grid, params)
    prob = _InterfaceProblem(grid, params, SolverOptions())
    lo, hi = prob.window
    best = min(prob.evaluate(m) for m in range(lo, hi + 1))
    # values, not indices: at large lambda J has plateaus tied to rounding
    assert st.action_value <= best * (1.0 + 1e-12)


def test_walk_ignores_rounding_noise_on_flat_action():
    # at large lambda J(m) near the midpoint agrees to its last digits;
    # the cold walk evaluates the midpoint and its two neighbours only
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 2047)
    st = nodal_ground_state(grid, ActionParams(6.0, 1e4))
    assert st.interface_index == (grid.n + 1) // 2
    assert st.iterations == 3


def test_1d_nodal_state_ignores_seed(grid511):
    params = ActionParams(4.0, 10.0)
    states = [nodal_ground_state(grid511, params, SolverOptions(seed=seed))
              for seed in range(4)]
    for st in states[1:]:
        assert st.u.values.tobytes() == states[0].u.values.tobytes()
        assert st.multistart == states[0].multistart
        assert st.iterations == states[0].iterations


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
    grid = build_grid(DomainSpec.interval(-20.0, 20.0), 4095)
    st = nodal_ground_state(grid, ActionParams(6.0, 1.0), SolverOptions(tol=1e-9))
    assert st.action_value == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, rel=1e-4)
    assert st.mass == pytest.approx(np.sqrt(3.0) * np.pi, rel=1e-4)


def test_2d_descent(unit_square):
    grid = build_grid(unit_square, 31)
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


@pytest.mark.parametrize("rel", [1e-3, 0.2, 0.9])
def test_interface_window_matches_side_grid_scan(rel):
    from nlsground.action import THRESHOLD_MARGIN
    from nlsground.nodal import _InterfaceProblem

    grid = build_grid(DomainSpec.interval(0.0, 1.0), 63)
    params = ActionParams(4.0, -lambda2(grid) * (1.0 - rel))
    prob = _InterfaceProblem(grid, params, SolverOptions())
    h, mf = grid.h[0], THRESHOLD_MARGIN

    def admissible(lo, hi, n_side):
        lam1 = lambda1(build_grid(DomainSpec.interval(lo, hi), n_side))
        return params.lam > -lam1 + mf * lam1

    feasible = [m for m in range(4, grid.n - 2)
                if admissible(0.0, m * h, m - 1)
                and admissible(m * h, 1.0, grid.n - m)]
    assert feasible == list(range(feasible[0], feasible[-1] + 1))
    assert prob.window == (feasible[0], feasible[-1])


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
    grid = build_grid(unit_square, 63)
    params = ActionParams(4.0, 10.0)
    return grid, params, nodal_ground_state(grid, params)


def test_2d_nodal_state_meets_tol(square_nodal):
    grid, params, st = square_nodal
    vals = st.u.values.reshape(grid.shape)
    assert _own_partwise_residual(vals, grid.h[0], params.p, params.lam) <= 1e-8
    assert st.residual <= 1e-8
    assert st.node_count >= 1
    for part in split(st.u):
        l2, lp, gr = norms(part, params.p)
        assert abs(gr + params.lam * l2 - lp) <= 1e-10 * lp


def test_2d_nodal_level(square_nodal):
    grid, params, st = square_nodal
    signed = ground_state(grid, params)
    assert st.action_value > 2.0 * signed.action_value
    # the descent alone stalled at this value, above tol
    assert st.action_value <= 268.97481804262
    assert st.action_value == min(value for _, value in st.multistart)


def test_2d_nodal_raises_above_tol(unit_square):
    grid = build_grid(unit_square, 63)
    with pytest.raises(NoConvergence) as err:
        nodal_ground_state(grid, ActionParams(4.0, 10.0), SolverOptions(max_iter=1))
    for label in ("phi2", "odd-reflection", "two-bump", "random"):
        assert f"{label}: max_iter" in str(err.value)


def test_2d_descent_skips_repeated_start():
    # on a rectangle wider than tall the odd reflection sin(2 pi x / L)
    # sin(pi y / H) is the second Dirichlet mode, so its descent would
    # repeat phi2's
    grid = build_grid(DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), 31)
    st = nodal_ground_state(grid, ActionParams(4.0, 10.0))
    labels = [label for label, _ in st.multistart]
    assert labels == ["phi2", "two-bump", "random"]
    assert st.action_value == pytest.approx(154.1021564774822, rel=1e-12)


def test_2d_nodal_error_names_every_start(unit_square):
    # near -lambda_2 three starts collapse a sign part and are dropped; the
    # error must still say so, not only name the start that survived
    grid = build_grid(unit_square, 31)
    with pytest.raises(NoConvergence) as err:
        nodal_ground_state(grid, ActionParams(3.0, -48.2))
    message = str(err.value)
    assert "odd-reflection: max_iter, residual" in message
    for label in ("phi2", "two-bump", "random"):
        assert f"{label}: DegeneratePart (" in message


@pytest.mark.xfail(strict=True, raises=NoConvergence,
                   reason="the phi2 start's sign pattern 2-cycles, so its "
                          "descent never settles for Newton")
def test_2d_nodal_period_two_sign_pattern_meets_tol(unit_square):
    # sample 9 of a 20-sample p=3 sweep from -lambda_2 + 1 to 100: two
    # nodes flip sign at every accepted descent step, and the phi2 start
    # stops at max_iter with residual 85.1 while the other three starts
    # converge; phi2's projected action is the lowest, so the solve raises
    grid = build_grid(unit_square, 31)
    params = ActionParams(3.0, 21.992933942355357)
    st = nodal_ground_state(grid, params)
    assert st.residual <= 1e-8
    assert st.node_count >= 1


def _frozen_square(n: int):
    from nlsground.linsolve import _FrozenPartition

    grid = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), n)
    x, y = grid.meshes()
    sign = np.sign(np.sin(2.0 * np.pi * x) * np.sin(np.pi * y)
                   + 0.3 * np.cos(3.0 * y)).reshape(-1)
    sign[:n] = 0.0  # a row of zero nodes, decoupled from both parts
    return grid, sign, _FrozenPartition(grid, sign)


def test_frozen_partition_is_the_partwise_operator():
    grid, sign, frozen = _frozen_square(15)
    rng = np.random.default_rng(0)
    u = sign * (0.5 + rng.random(grid.size))
    p, lam = 4.0, 10.0
    f, norm = frozen.residual(u, p, lam)
    # each sign part by its own padded 5-point stencil, zero off its support
    h = grid.h[0]
    g = np.zeros(grid.shape)
    for part in (np.maximum(u, 0.0), np.minimum(u, 0.0)):
        part = part.reshape(grid.shape)
        w = np.pad(part, 1)
        lap = (4.0 * w[1:-1, 1:-1] - w[2:, 1:-1] - w[:-2, 1:-1]
               - w[1:-1, 2:] - w[1:-1, :-2]) / (h * h)
        r = lap + lam * part - np.abs(part) ** (p - 2) * part
        g[part != 0.0] = r[part != 0.0]
    g = g.reshape(-1)
    assert np.max(np.abs(f - g)) <= 1e-12 * np.max(np.abs(grid.laplacian(u)))
    assert norm == pytest.approx(_own_partwise_residual(
        u.reshape(grid.shape), h, p, lam), rel=1e-12)


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
