"""Acceptance battery: one test per criterion, pinned tolerances.

Each test prints a PASS/FAIL line (visible with -s or in captured output)
and asserts.  Shared sweeps are module-scoped fixtures, so the battery
runs in a few minutes end to end; stated runtime budgets are asserted
where the criterion pins one.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from nlsground import (ActionParams, DomainSpec, Grid, MassOutOfRange,
                       SolverOptions, derivative_mass_check,
                       dirichlet_eigenpairs, estimate_mu_N, exhaustion_test,
                       f_mu_profile, ground_state, kappa, lambda1, lambda2,
                       least_energy_certify, mass_threshold,
                       nodal_ground_state, norms, pohozaev_check,
                       solve_normalized, split, supercritical_lambda_bound,
                       sweep)
from nlsground.curves import asymptotic_classify, resolution_matched_factory
from nlsground.cli import main as cli_main

MU_N = math.sqrt(3.0) * math.pi / 2.0       # soliton mass, quadrature oracle
UNIT = DomainSpec.interval(0.0, 1.0)


def report(num: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweeps_1d():
    """Criterion 3 sweeps: 200 samples, both kinds, p in {4, 6, 8}."""
    grid = Grid(UNIT, 511)
    out = {}
    for kind, thr in (("signed", lambda1(grid)), ("nodal", lambda2(grid))):
        lams = np.linspace(-thr + 0.5, 200.0, 200)
        for p in (4.0, 6.0, 8.0):
            out[(kind, p)] = sweep(grid, p, lams, kind)
    return grid, out


@pytest.fixture(scope="module")
def p6_nodal_curve():
    """Criterion 7 critical-exponent curve, swept deep into the plateau."""
    grid = Grid(UNIT, 1023)
    lams = np.linspace(-lambda2(grid) + 0.5, 2500.0, 160)
    return grid, sweep(grid, 6.0, lams, "nodal")


def test_criterion_01_eigenvalues():
    t0 = time.perf_counter()
    grid1 = Grid(UNIT, 2048)
    pairs = dirichlet_eigenpairs(grid1, 2)
    rel1 = abs(pairs[0].value - math.pi**2) / math.pi**2
    rel2 = abs(pairs[1].value - 4 * math.pi**2) / (4 * math.pi**2)
    grid2 = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 256)
    pair2d = dirichlet_eigenpairs(grid2, 1)[0]
    rel3 = abs(pair2d.value - 2 * math.pi**2) / (2 * math.pi**2)
    elapsed = time.perf_counter() - t0
    ok = rel1 <= 1e-4 and rel2 <= 1e-4 and rel3 <= 1e-3 and elapsed <= 5.0
    report(1, ok, f"1D gaps {rel1:.2e}/{rel2:.2e}, 2D gap {rel3:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_02_ground_state_contracts():
    t0 = time.perf_counter()
    grid = Grid(UNIT, 4096)
    worst = {"res": 0.0, "nehari": 0.0, "jk": 0.0, "nodes": 0}
    for p in (4.0, 6.0, 8.0):
        for lam in (1.0, 10.0, 100.0):
            st = ground_state(grid, ActionParams(p, lam))
            l2, lp, gr = norms(st.u, p)
            worst["res"] = max(worst["res"], st.residual)
            worst["nehari"] = max(worst["nehari"], abs(gr + lam * l2 - lp) / lp)
            worst["jk"] = max(worst["jk"],
                              abs(st.action_value - kappa(p) * lp)
                              / abs(st.action_value))
            worst["nodes"] = max(worst["nodes"], st.node_count)
    elapsed = time.perf_counter() - t0
    ok = (worst["res"] <= 1e-8 and worst["nehari"] <= 1e-10
          and worst["jk"] <= 1e-12 and worst["nodes"] == 0 and elapsed <= 60.0)
    report(2, ok, f"worst residual {worst['res']:.2e}, nehari "
                  f"{worst['nehari']:.1e}, J-kappa {worst['jk']:.1e}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_derivative_mass_law(sweeps_1d):
    _, curves = sweeps_1d
    worst_median = 0.0
    monotone = True
    for curve in curves.values():
        rep = derivative_mass_check(curve)
        worst_median = max(worst_median, rep.median_rel_error)
        idx = curve.ok_indices()
        monotone = monotone and bool(np.all(np.diff(curve.J[idx]) > 0.0))
    ok = worst_median <= 1e-2 and monotone
    report(3, ok, f"worst median |2 dJ - mass|/mass {worst_median:.2e}, "
                  f"monotone={monotone}")


def test_criterion_04_sandwich_and_threshold_decay(sweeps_1d):
    grid, curves = sweeps_1d
    # common samples: frequencies above the signed threshold, where both
    # levels are defined
    lam1_h = lambda1(grid)
    min_gap = math.inf
    for p in (4.0, 6.0, 8.0):
        nodal = curves[("nodal", p)]
        mask = nodal.lambdas > -lam1_h + 0.5
        signed_on_common = sweep(grid, p, nodal.lambdas[mask], "signed")
        gap = np.min(nodal.J[mask] - 2.0 * signed_on_common.J)
        min_gap = min(min_gap, float(gap))
    sandwich_ok = min_gap >= -1e-8

    fine = Grid(UNIT, 2047)
    pairs = dirichlet_eigenpairs(fine, 2)
    lam2_h = pairs[1].value
    decay_ok = True
    for p in (4.0, 6.0):
        c1 = 0.0
        for part in split(pairs[1].vector):
            l2, lp, _ = norms(part, p)
            c1 += (math.sqrt(l2) / lp ** (1.0 / p)) ** (2.0 * p / (p - 2.0))
        c1 *= kappa(p)
        for delta in (1.0, 0.5, 0.25):
            st = nodal_ground_state(fine, ActionParams(p, -lam2_h + delta))
            decay_ok = decay_ok and st.action_value <= c1 * delta ** (p / (p - 2.0))
    ok = sandwich_ok and decay_ok
    report(4, ok, f"min(J_nod - 2J) = {min_gap:.2e}, phi2-cap decay "
                  f"{'holds' if decay_ok else 'violated'}")


def test_criterion_05_critical_plateau():
    t0 = time.perf_counter()
    mun = estimate_mu_N(1, [10.0, 20.0, 40.0])
    rel_mu = abs(mun.value - MU_N) / MU_N
    grid = Grid(UNIT, 32768)
    opts = SolverOptions(tol=1e-6)
    signed = ground_state(grid, ActionParams(6.0, 2500.0), opts)
    nodal = nodal_ground_state(grid, ActionParams(6.0, 2500.0), opts)
    rel_nodal = abs(nodal.action_value / 2500.0 - MU_N) / MU_N
    rel_signed = abs(signed.action_value / 2500.0 - MU_N / 2.0) / (MU_N / 2.0)
    elapsed = time.perf_counter() - t0
    ok = (rel_mu <= 1e-2 and rel_nodal <= 5e-2 and rel_signed <= 5e-2
          and elapsed <= 600.0)
    report(5, ok, f"mu_N gap {rel_mu:.2e}, plateau gaps nodal "
                  f"{rel_nodal:.2e} / signed {rel_signed:.2e}, {elapsed:.0f}s")


def test_criterion_06_regime_trichotomy(sweeps_1d):
    _, curves = sweeps_1d
    factory = resolution_matched_factory(UNIT, 127, lam_base=5.0)
    lams = np.geomspace(5.0, 1500.0, 10)
    rep4 = asymptotic_classify(factory, 4.0, lams, kind="signed")
    rep8 = asymptotic_classify(factory, 8.0, lams, kind="signed")
    t4 = mass_threshold(curves[("signed", 4.0)])
    c8 = curves[("signed", 8.0)]
    t8 = mass_threshold(c8)
    idx = c8.ok_indices()
    masses = c8.mass[idx]
    peak = float(np.max(masses))
    interior = c8.lambdas[idx[4]] < t8.argmax_lambda < c8.lambdas[idx[-5]]
    # mass decays toward both sweep ends (the decay toward the lower
    # threshold goes like delta^(1/3) for p=8, so check the trend by a
    # delta-quartering pair rather than an absolute smallness gate)
    grid8 = c8.grid
    lam1_h = lambda1(grid8)
    m_half = ground_state(grid8, ActionParams(8.0, -lam1_h + 0.5)).mass
    m_eighth = ground_state(grid8, ActionParams(8.0, -lam1_h + 0.125)).mass
    left_trend = m_eighth <= 0.8 * m_half
    ends_drop = (masses[0] <= 0.5 * peak and masses[-1] <= 0.8 * peak
                 and bool(np.all(np.diff(masses[-20:]) < 0.0))
                 and bool(np.all(np.diff(masses[:5]) > 0.0))
                 and left_trend)
    ok = (rep4.classification == "diverges" and t4.unbounded
          and rep8.classification == "vanishes" and not t8.unbounded
          and interior and ends_drop)
    report(6, ok, f"p=4 {rep4.classification}/unbounded={t4.unbounded}; "
                  f"p=8 {rep8.classification}, mu_p={t8.mu_p:.4f} at "
                  f"lambda={t8.argmax_lambda:.2f}, mass ends "
                  f"{masses[0]:.3f}/{masses[-1]:.3f} vs peak {peak:.3f}, "
                  f"threshold decay {m_half:.3f}->{m_eighth:.3f}")


@pytest.fixture(scope="module")
def normalized_solutions(p6_nodal_curve):
    """Criterion 7 solves, shared with criterion 8."""
    grid = Grid(UNIT, 511)
    results = {}
    lams_signed = np.linspace(-lambda1(grid) + 0.5, 80.0, 120)
    signed_curve = sweep(grid, 4.0, lams_signed, "signed")
    results["p4-signed"] = (grid, signed_curve,
                            solve_normalized(grid, 4.0, 1.0, "signed",
                                             curve=signed_curve))
    lams_nodal = np.linspace(-lambda2(grid) + 0.5, 200.0, 120)
    nodal_curve = sweep(grid, 4.0, lams_nodal, "nodal")
    results["p4-nodal"] = (grid, nodal_curve,
                           solve_normalized(grid, 4.0, 1.0, "nodal",
                                            curve=nodal_curve))
    lams8 = np.linspace(-lambda1(grid) + 0.5, 200.0, 120)
    curve8 = sweep(grid, 8.0, lams8, "signed")
    results["p8-curve"] = (grid, curve8, None)
    grid6, curve6 = p6_nodal_curve
    mu_low = 0.9 * 2.0 * MU_N
    results["p6-nodal"] = (grid6, curve6,
                           solve_normalized(grid6, 6.0, mu_low, "nodal",
                                            curve=curve6))
    return results


def test_criterion_07_normalized_solves(normalized_solutions):
    details = []
    ok = True
    for key in ("p4-signed", "p4-nodal"):
        grid, curve, sol = normalized_solutions[key]
        mass = grid.l2_sq(sol.u.values)
        cert = least_energy_certify(sol, curve)
        good = (abs(mass - 1.0) <= 1e-6 and cert.passed
                and sol.certification.is_least_among_found)
        ok = ok and good
        details.append(f"{key}: |m-mu|={abs(mass - 1.0):.1e}")

    grid, curve8, _ = normalized_solutions["p8-curve"]
    peak = mass_threshold(curve8, refine_rtol=1e-9)
    try:
        solve_normalized(grid, 8.0, 1.5 * peak.mu_p, "signed", curve=curve8)
        ok = False
        details.append("1.5 mu_p unexpectedly solved")
    except MassOutOfRange:
        details.append("1.5 mu_p rejected")
    at_peak = solve_normalized(grid, 8.0, peak.mu_p, "signed", curve=curve8)
    peak_gap = abs(grid.l2_sq(at_peak.u.values) - peak.mu_p) / peak.mu_p
    ok = ok and peak_gap <= 1e-6
    details.append(f"mu_p attained ({peak_gap:.1e})")

    grid6, curve6, sol6 = normalized_solutions["p6-nodal"]
    mu_low = 0.9 * 2.0 * MU_N
    mass6 = grid6.l2_sq(sol6.u.values)
    cert6 = least_energy_certify(sol6, curve6)
    prof_low = f_mu_profile(curve6, mu_low)
    prof_high = f_mu_profile(curve6, 1.1 * 2.0 * MU_N)
    good6 = (abs(mass6 - mu_low) <= 1e-6 * mu_low and cert6.passed
             and prof_low.minimizer_interior
             and not prof_high.minimizer_interior)
    ok = ok and good6
    details.append(f"p6 nodal interior={prof_low.minimizer_interior}, "
                   f"escape flagged={not prof_high.minimizer_interior}")
    report(7, ok, "; ".join(details))


def test_criterion_08_normalized_states_sit_on_the_level(normalized_solutions):
    worst = 0.0
    tol = SolverOptions().tol
    for key in ("p4-signed", "p4-nodal", "p6-nodal"):
        grid, curve, sol = normalized_solutions[key]
        fresh = (ground_state if sol.kind == "signed" else nodal_ground_state)(
            grid, ActionParams(curve.p, sol.lam))
        gap = abs(sol.action_value - fresh.action_value)
        worst = max(worst, gap / max(abs(fresh.action_value), 1.0))
    ok = worst <= 2.0 * tol + 1e-9
    report(8, ok, f"worst relative action gap to the level {worst:.2e}")


def test_criterion_09_pohozaev():
    params = ActionParams(8.0, 10.0)
    residuals = {}
    bounds_ok = True
    for n in (4096, 8192):
        grid = Grid(UNIT, n)
        st = ground_state(grid, params)
        rep = pohozaev_check(st.u, params)
        residuals[n] = rep.identity_residual
        bounds_ok = bounds_ok and rep.energy_bound_ok
        e = st.energy
        lp = grid.lp_p(st.u.values, 8.0)
        bounds_ok = bounds_ok and (e >= lp / 16.0 * (1.0 - 1e-9))
    order = math.log2(residuals[4096] / residuals[8192])
    ok = residuals[4096] <= 1e-3 and order >= 1.0 and bounds_ok
    report(9, ok, f"residuals {residuals[4096]:.2e} -> {residuals[8192]:.2e} "
                  f"(order {order:.2f}), energy bound "
                  f"{'holds' if bounds_ok else 'violated'}")


def test_criterion_10_supercritical_frequency_bound():
    grid = Grid(UNIT, 511)
    lam2_h = lambda2(grid)
    probe = supercritical_lambda_bound(grid, 8.0, 1.0, samples=140)
    # paper formula 2 p lambda_2 / (N (p - p_c)) = 8 lambda_2 = 32 pi^2
    formula_ok = probe.lambda_bar == pytest.approx(8.0 * lam2_h, rel=1e-12)
    continuum_ok = abs(probe.lambda_bar - 32 * math.pi**2) <= 0.01 * 32 * math.pi**2
    rep = supercritical_lambda_bound(grid, 8.0, 0.5 * probe.mu_bar, samples=140)
    ok = (formula_ok and continuum_ok and rep.passed and rep.lam < rep.lambda_bar
          and rep.energy < 0.5 * lam2_h * 0.5 * probe.mu_bar)
    report(10, ok, f"lambda_bar={rep.lambda_bar:.3f} (~32 pi^2), "
                   f"returned lambda={rep.lam:.3f}, E={rep.energy:.4f} < "
                   f"cap {rep.energy_cap:.4f}")


def test_criterion_11_exhaustion():
    rep = exhaustion_test(UNIT, [0.05, 0.02, 0.005], ActionParams(4.0, 100.0),
                          511)
    ok = rep.passed and rep.monotone and rep.final_gap <= 1e-2
    report(11, ok, f"gaps {['%.2e' % g for g in rep.gaps]}, monotone="
                   f"{rep.monotone}")


def test_criterion_12_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code1 = cli_main(["check-all", "--out-dir", str(out1), "--seed", "0"])
    code2 = cli_main(["check-all", "--out-dir", str(out2), "--seed", "0"])
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    same_names = names1 == names2
    _, mismatch, errors = filecmp.cmpfiles(out1, out2, names1, shallow=False)
    ok = (code1 == 0 and code2 == 0 and same_names and not mismatch
          and not errors)
    report(12, ok, f"{len(names1)} artifacts byte-identical, exit codes "
                   f"{code1}/{code2}")
