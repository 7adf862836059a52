import dataclasses

import numpy as np
import pytest

import nlsground.normalized

from nlsground import (ActionParams, CertificationFailed, DomainSpec, Field,
                       Grid, InvalidSpec, LevelCurve, MassAboveBarMu,
                       MassOutOfRange, NoBracket, SolverOptions, action, curves,
                       energy, f_mu_profile, ground_state, lambda1, lambda2,
                       least_energy_certify, mass_threshold, nehari_project,
                       pohozaev_check, solve_normalized,
                       supercritical_lambda_bound, sweep)


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


def test_mass_out_of_range_supercritical(grid255, monkeypatch):
    lams = np.linspace(-lambda1(grid255) + 0.5, 150.0, 80)
    curve = sweep(grid255, 8.0, lams, "signed")
    peak = mass_threshold(curve, refine_rtol=1e-9)
    for mu in (1.5 * peak.mu_p, peak.mu_p * (1.0 + 2e-6)):
        with pytest.raises(MassOutOfRange, match="above the mass threshold"):
            solve_normalized(grid255, 8.0, mu, "signed", curve=curve)
    # above every sample but below mu_p: the refined peak joins the curve
    # and the mass is crossed on either side of it
    mu = 0.5 * (float(np.nanmax(curve.mass)) + peak.mu_p)
    sol = solve_normalized(grid255, 8.0, mu, "signed", curve=curve)
    assert abs(grid255.l2_sq(sol.u.values) - mu) <= 1e-6 * mu
    assert sol.residual <= 1e-8
    assert len(sol.branches) >= 2
    assert [b.lam for b in sol.branches] == sorted(b.lam for b in sol.branches)
    assert sol.branches[0].lam < peak.argmax_lambda < sol.branches[-1].lam
    assert (sol.energy, sol.lam) == min((b.energy, b.lam)
                                        for b in sol.branches)
    # at mu_p, and within the mass tolerance above it, the refined peak's
    # own state is the solution, with no solve after mass_threshold
    peaks = []

    def recorded_threshold(*args, **kwargs):
        peaks.append(mass_threshold(*args, **kwargs))
        return peaks[-1]

    monkeypatch.setattr(nlsground.normalized, "mass_threshold",
                        recorded_threshold)
    states = _recorded_solves(monkeypatch)
    for mu in (peak.mu_p, peak.mu_p * (1.0 + 5e-7)):
        sol = solve_normalized(grid255, 8.0, mu, "signed", curve=curve)
        assert sol.u is peaks[-1].state.u
        assert sol.lam == peak.argmax_lambda and len(sol.branches) == 1
        assert abs(grid255.l2_sq(sol.u.values) - mu) <= 1e-6 * mu
    assert len(peaks) == 2 and states == []


@pytest.fixture(scope="module")
def p8_curve63(unit_interval):
    grid = Grid(unit_interval, 63)
    return sweep(grid, 8.0, np.linspace(-lambda1(grid) + 0.5, 150.0, 30))


@pytest.mark.parametrize("n, p, kind", [(63, 4.0, "signed"),
                                        (63, 8.0, "nodal"),
                                        (127, 8.0, "signed")])
def test_curve_must_match_the_problem(unit_interval, p8_curve63, n, p, kind):
    # a p=8 signed curve on n=63 answers no other exponent, kind or grid
    with pytest.raises(InvalidSpec, match="does not match"):
        solve_normalized(Grid(unit_interval, n), p, 1.0, kind,
                         curve=p8_curve63)


@pytest.mark.parametrize("change", [{"kind": "nodal"}, {"n": 127}])
def test_certified_solution_must_match_the_curve(unit_interval, p8_curve63,
                                                 change):
    mu = 0.8 * float(np.nanmax(p8_curve63.mass))
    sol = solve_normalized(p8_curve63.grid, 8.0, mu, curve=p8_curve63)
    assert least_energy_certify(sol, p8_curve63).passed
    if "n" in change:
        grid = Grid(unit_interval, change["n"])
        sol = dataclasses.replace(sol, u=Field(grid, np.zeros(grid.size)))
    else:
        sol = dataclasses.replace(sol, **change)
    with pytest.raises(InvalidSpec, match="cannot be certified"):
        least_energy_certify(sol, p8_curve63)


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


def _counted_sweeps(monkeypatch):
    sizes = []
    inner = nlsground.normalized.sweep

    def counted(grid, p, lams, *args):
        sizes.append(len(lams))
        return inner(grid, p, lams, *args)

    monkeypatch.setattr(nlsground.normalized, "sweep", counted)
    return sizes


def test_mass_below_every_sample_raises_at_once(unit_interval, monkeypatch):
    # subcritical masses rise with the frequency, so no upward extension
    # reaches a mass below the first sample's
    sizes = _counted_sweeps(monkeypatch)
    with pytest.raises(NoBracket, match="below the smallest sampled mass"):
        solve_normalized(Grid(unit_interval, 31), 4.0, 0.01, samples=20)
    assert sizes == [20]


def test_extensions_are_capped(unit_interval, monkeypatch):
    # each extension triples the range; after the last one the mass is
    # bracketed or NoBracket is raised, with no further sweep
    sizes = _counted_sweeps(monkeypatch)
    with pytest.raises(NoBracket, match="never reaches"):
        solve_normalized(Grid(unit_interval, 31), 4.0, 1e6, samples=3)
    assert sizes == [3, 2, 4, 8, 16, 32, 64]
    assert len(sizes) == 1 + nlsground.normalized._MAX_EXTENSIONS


def _recorded_solves(monkeypatch):
    states = []
    inner = nlsground.normalized._solve_one

    def recorded(*args):
        states.append(inner(*args))
        return states[-1]

    monkeypatch.setattr(nlsground.normalized, "_solve_one", recorded)
    return states


def test_mass_match_out_of_secant_steps_raises(unit_interval, monkeypatch):
    # a crossing that the secant steps do not match to 1e-6 raises
    # NoBracket naming the last iterate's |mass - mu| / mu
    grid = Grid(unit_interval, 31)
    curve = sweep(grid, 4.0, np.linspace(-lambda1(grid) + 0.5, 60.0, 12))
    states = _recorded_solves(monkeypatch)
    monkeypatch.setattr(curves, "_SECANT_STEPS", 1)
    with pytest.raises(NoBracket, match="mass matching stalled") as info:
        solve_normalized(grid, 4.0, 1.0, curve=curve)
    assert len(states) == 1
    gap = abs(states[0].mass - 1.0)
    assert gap > 1e-6
    assert f"|mass-mu|/mu = {gap:.2e} inside" in str(info.value)


def test_profile_minimum_without_a_mass_crossing_stands(unit_interval,
                                                        monkeypatch):
    # mass - mu keeps its sign on both neighbours of the sampled minimum
    # of J - mu lambda / 2, so no secant step brackets a better one and
    # the sample is returned without a solve
    grid = Grid(unit_interval, 31)
    curve = LevelCurve(kind="signed", p=4.0, grid=grid,
                       lambdas=np.arange(5.0), J=np.array([5.0, 3, 2, 3, 4]),
                       mass=np.array([3.0, 2.5, 2, 1.5, 1.2]),
                       dJ=np.zeros(5), flags=["ok"] * 5,
                       threshold=-lambda1(grid))
    profile = f_mu_profile(curve, 1.0)
    states = _recorded_solves(monkeypatch)
    best = nlsground.normalized._refine_profile_min(curve, 1.0, profile,
                                                    SolverOptions())
    assert best == (1.0, 2.0) and states == []


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
    rep = pohozaev_check(st.u, params)
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
