import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, LambdaBelowThreshold,
                       NodalCandidate, NonpositiveQuotient, NotSignChanging,
                       SolverOptions, action, build_grid, dirichlet_eigenpairs,
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
    assert len(st.multistart) == 3
    signed = ground_state(grid511, ActionParams(p, lam))
    assert st.action_value >= 2.0 * signed.action_value - 1e-8


def test_warm_hint_reproduces(grid511):
    params = ActionParams(4.0, 10.0)
    cold = nodal_ground_state(grid511, params)
    warm = nodal_ground_state(grid511, params,
                              interface_hint=cold.interface_index)
    assert warm.action_value == pytest.approx(cold.action_value, rel=1e-12)


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
    from nlsground.nodal import _InterfaceProblem

    grid = build_grid(DomainSpec.interval(0.0, 1.0), 63)
    params = ActionParams(4.0, -lambda2(grid) * (1.0 - rel))
    prob = _InterfaceProblem(grid, params, SolverOptions())
    h, mf = grid.h[0], prob.side_opts.margin_factor

    def admissible(lo, hi, n_side):
        lam1 = lambda1(build_grid(DomainSpec.interval(lo, hi), n_side))
        return params.lam > -lam1 + mf * lam1

    feasible = [m for m in range(4, grid.n - 2)
                if admissible(0.0, m * h, m - 1)
                and admissible(m * h, 1.0, grid.n - m)]
    assert feasible == list(range(feasible[0], feasible[-1] + 1))
    assert prob.window == (feasible[0], feasible[-1])
