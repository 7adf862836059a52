import dataclasses

import numpy as np
import pytest

import nlsground.normalized

from nlsground import (ActionParams, CertificationFailed, DomainSpec, Field,
                       Grid, InvalidSpec, MassAboveBarMu, MassOutOfRange,
                       NoBracket, SolverOptions, action, energy, f_mu_profile,
                       ground_state, lambda1, lambda2, least_energy_certify,
                       mass_threshold, nehari_project, pohozaev_check,
                       solve_normalized, supercritical_lambda_bound, sweep)


@pytest.fixture(scope="module")
def p4_curve(grid255):
    lams = np.linspace(-lambda1(grid255) + 0.5, 80.0, 100)
    return sweep(grid255, 4.0, lams, "signed")


def test_profile_zero_mass_flagged(p4_curve):
    prof = f_mu_profile(p4_curve, 0.0)
    assert np.array_equal(prof.f_values, p4_curve.J[p4_curve.ok_indices()])
    assert not prof.minimizer_interior
    with pytest.raises(InvalidSpec):
        f_mu_profile(p4_curve, -1.0)


def test_profile_interior_for_subcritical(p4_curve):
    prof = f_mu_profile(p4_curve, 1.0)
    assert prof.minimizer_interior
    k = int(np.argmin(prof.f_values))
    assert prof.minimizer_lambda == prof.lambdas[k]


def test_profile_transform_is_exact(p4_curve):
    prof = f_mu_profile(p4_curve, 2.5)
    ok = p4_curve.ok_indices()
    expected = p4_curve.J[ok] - 1.25 * p4_curve.lambdas[ok]
    assert np.array_equal(prof.f_values, expected)


def test_solve_normalized_signed(grid255, p4_curve):
    sol = solve_normalized(grid255, 4.0, 1.0, "signed", curve=p4_curve)
    assert abs(grid255.l2_sq(sol.u.values) - 1.0) <= 1e-6
    assert sol.residual <= 1e-8
    assert sol.energy == pytest.approx(sol.action_value - 0.5 * sol.lam * sol.mu,
                                       rel=1e-12)
    assert sol.certification.branches_examined >= 1
    assert sol.certification.is_least_among_found
    assert sol.energy == min(b.energy for b in sol.branches)
    cert = least_energy_certify(sol, p4_curve)
    assert cert.passed
    assert cert.energy_gap <= 1e-6
    assert cert.minimizer_interior


def test_solve_normalized_nodal(grid255):
    sol = solve_normalized(grid255, 4.0, 1.0, "nodal", lambda_max=120.0,
                           samples=80)
    assert abs(grid255.l2_sq(sol.u.values) - 1.0) <= 1e-6
    assert sol.node_count >= 1
    assert sol.kind == "nodal"


def test_perturbed_solution_fails_certification(grid255, p4_curve):
    sol = solve_normalized(grid255, 4.0, 1.0, "signed", curve=p4_curve)
    rng = np.random.default_rng(0)
    noisy = sol.u.values * (1.0 + 0.01 * rng.standard_normal(grid255.size))
    projected = nehari_project(Field(grid255, noisy),
                               ActionParams(4.0, sol.lam))
    perturbed = dataclasses.replace(
        sol, u=projected,
        action_value=action(projected, ActionParams(4.0, sol.lam)))
    with pytest.raises(CertificationFailed):
        least_energy_certify(perturbed, p4_curve)


def test_certification_minimum_takes_few_resolves(grid255, monkeypatch):
    # the check-all curve: the minimum of J - mu lambda / 2 sits where the
    # mass crosses mu, found by secant steps on cold re-solves
    lams = np.linspace(-lambda1(grid255) + 0.5, 60.0, 80)
    curve = sweep(grid255, 4.0, lams, "signed")
    sol = solve_normalized(grid255, 4.0, 1.0, "signed", curve=curve)
    solve_one = nlsground.normalized._solve_one
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_one(*args, **kwargs)

    monkeypatch.setattr(nlsground.normalized, "_solve_one", counted)
    cert = least_energy_certify(sol, curve)
    assert cert.passed and cert.energy_gap <= 1e-12
    assert len(calls) <= 5


def test_mass_out_of_range_supercritical(grid255):
    lams = np.linspace(-lambda1(grid255) + 0.5, 150.0, 80)
    curve = sweep(grid255, 8.0, lams, "signed")
    peak = mass_threshold(curve, refine_rtol=1e-9)
    with pytest.raises(MassOutOfRange):
        solve_normalized(grid255, 8.0, 1.5 * peak.mu_p, "signed", curve=curve)
    sol = solve_normalized(grid255, 8.0, peak.mu_p, "signed", curve=curve)
    assert abs(grid255.l2_sq(sol.u.values) - peak.mu_p) <= 1e-6 * peak.mu_p


def test_no_bracket_without_extension(grid255, p4_curve):
    # a fixed curve cannot be extended, so an unreachable mass raises
    big_mu = float(np.nanmax(p4_curve.mass)) * 4.0
    with pytest.raises(NoBracket):
        solve_normalized(grid255, 4.0, big_mu, "signed", curve=p4_curve)


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_too_few_samples_is_invalid(grid255, samples):
    # one sample leaves no frequency range to bracket or extend
    with pytest.raises(InvalidSpec, match="samples"):
        solve_normalized(grid255, 4.0, 1.0, samples=samples)
    with pytest.raises(InvalidSpec, match="samples"):
        supercritical_lambda_bound(grid255, 8.0, 1.0, samples=samples)


def test_auto_extension_reaches_large_mass(grid255):
    big = solve_normalized(grid255, 4.0, 30.0, "signed", lambda_max=40.0,
                           samples=60)
    assert abs(grid255.l2_sq(big.u.values) - 30.0) <= 1e-6 * 30.0


def test_branch_selection_minimizes_energy(grid255):
    lams = np.linspace(-lambda1(grid255) + 0.5, 150.0, 80)
    curve = sweep(grid255, 8.0, lams, "signed")
    peak = mass_threshold(curve, refine_rtol=1e-9)
    sol = solve_normalized(grid255, 8.0, 0.8 * peak.mu_p, "signed", curve=curve)
    assert sol.certification.branches_examined >= 2
    assert sol.energy == min(b.energy for b in sol.branches)
    assert sol.lam == min((b.energy, b.lam) for b in sol.branches)[1]


# -- boundary-weighted identity ---------------------------------------


def test_pohozaev_zero_field(grid255):
    zero = Field(grid255, np.zeros(grid255.size))
    rep = pohozaev_check(zero, ActionParams(8.0, 10.0))
    assert rep.identity_residual == 0.0


def test_pohozaev_converged_state(grid2047):
    params = ActionParams(8.0, 10.0)
    st = ground_state(grid2047, params)
    rep = pohozaev_check(st.u, params)
    assert rep.identity_residual <= 1e-3
    assert rep.bound_coefficient == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert rep.energy_bound_ok
    e = energy(st.u, 8.0)
    assert e >= rep.bound_coefficient * grid2047.lp_p(st.u.values, 8.0) * (1 - 1e-9)


def test_pohozaev_refinement_order(unit_interval):
    params = ActionParams(8.0, 10.0)
    residuals = []
    for n in (511, 1023):
        grid = Grid(unit_interval, n)
        st = ground_state(grid, params)
        residuals.append(pohozaev_check(st.u, params).identity_residual)
    assert residuals[1] <= residuals[0] / 2.0  # observed order >= 1


def test_pohozaev_2d_supercritical(unit_square):
    # p=6 is supercritical in the plane (critical exponent 4):
    # coefficient N(p - p_c)/(4p) = 2*2/24 = 1/6
    grid = Grid(unit_square, 47)
    params = ActionParams(6.0, 5.0)
    st = ground_state(grid, params, SolverOptions(tol=1e-9))
    rep = pohozaev_check(st.u, params)
    assert rep.bound_coefficient == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert rep.energy_bound_ok
    assert rep.identity_residual <= 1e-2


def test_pohozaev_off_center_reference(unit_interval):
    # the identity is reference-invariant for solutions; an off-center
    # star point must give the same residual scale
    spec = DomainSpec.interval(0.0, 1.0, star_center=0.3)
    grid = Grid(spec, 1023)
    params = ActionParams(8.0, 10.0)
    st = ground_state(grid, params)
    rep = pohozaev_check(st.u, params, spec)
    assert rep.identity_residual <= 1e-3


# -- supercritical frequency bound -------------------------------------


def test_supercritical_lambda_bound(grid255):
    lam2_h = lambda2(grid255)
    # frequency cap: 2 p lambda_2 / (N (p - p_c)) = 8 lambda_2 for p = 8
    rep = supercritical_lambda_bound(grid255, 8.0, 1.0, samples=120)
    assert rep.lambda_bar == pytest.approx(8.0 * lam2_h, rel=1e-12)
    assert rep.mu_bar > 1.0
    mu_probe = 0.5 * rep.mu_bar
    rep2 = supercritical_lambda_bound(grid255, 8.0, mu_probe, samples=120)
    assert rep2.passed
    assert rep2.lam < rep2.lambda_bar
    assert rep2.energy < 0.5 * lam2_h * mu_probe
    with pytest.raises(MassAboveBarMu):
        supercritical_lambda_bound(grid255, 8.0, 2.0 * rep.mu_bar, samples=120)
    with pytest.raises(InvalidSpec):
        supercritical_lambda_bound(grid255, 4.0, 0.1)
