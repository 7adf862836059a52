import math
from types import SimpleNamespace

import numpy as np
import pytest

from nlsground import (ActionParams, InsufficientRange, LevelCurve,
                       NoConvergence, NotCritical, critical_exponent,
                       derivative_mass_check, estimate_mu_N,
                       exhaustion_test, lambda1, lambda2, mass_growth_exponent,
                       mass_threshold, resolution_matched_factory, sweep)
from nlsground import curves
from nlsground.curves import asymptotic_classify

SOLITON_MASS = math.sqrt(3.0) * math.pi / 2.0  # quadrature of the exact profile


@pytest.fixture(scope="module")
def signed_curve_p4(grid255):
    lam1 = lambda1(grid255)
    lams = np.linspace(-lam1 + 0.5, 120.0, 80)
    return sweep(grid255, 4.0, lams, "signed")


def test_sweep_monotone_positive(signed_curve_p4):
    cur = signed_curve_p4
    assert set(cur.flags) == {"ok"}
    assert np.all(np.diff(cur.J) > 0.0)
    assert np.all(cur.J > 0.0)


def test_sweep_warm_matches_cold(grid255, signed_curve_p4):
    # warm-started samples agree with cold solves away from kinks
    from nlsground import ground_state
    for i in (13, 47, 71):
        lam = signed_curve_p4.lambdas[i]
        cold = ground_state(grid255, ActionParams(4.0, lam))
        assert signed_curve_p4.J[i] == pytest.approx(cold.action_value, rel=1e-9)


def test_sweep_continuation_work(signed_curve_p4):
    # every warm sample is an Euler-Newton continuation step of about two
    # Newton steps; the fixed point runs only on cold solves
    assert sum(st.iterations for st in signed_curve_p4.states) <= 200


def test_2d_signed_sweep_matches_cold(unit_square):
    from nlsground import Grid, ground_state
    grid = Grid(unit_square, 31)
    lams = np.linspace(-lambda1(grid) + 1.0, 60.0, 10)
    cur = sweep(grid, 4.0, lams, "signed")
    assert set(cur.flags) == {"ok"}
    for i in (3, 8):
        cold = ground_state(grid, ActionParams(4.0, lams[i]))
        assert cur.J[i] == pytest.approx(cold.action_value, rel=1e-9)


def test_sweep_keeps_warm_state_on_cold_tie():
    # at sample 20 the cold re-solve's level lies within ulps of the warm
    # one; a tie keeps the warm state (6 iterations) instead of the cold
    # one, whose fixed point crept through 600 steps
    from nlsground import DomainSpec, Grid
    grid = Grid(DomainSpec.rectangle(0.0, 1.2, 0.0, 1.0), 32)
    lams = np.linspace(-lambda2(grid) + 1.0, 200.0, 30)
    cur = sweep(grid, 4.0, lams, "nodal")
    assert set(cur.flags) == {"ok"}
    assert sum(st.iterations for st in cur.states) <= 200


def _stubbed_sweep(monkeypatch, unit_interval, levels, cold_level):
    """Sweep frequencies 1..12 with stubbed solves of the given levels.

    The cold re-solve of sample 10 (index 10, the first with a warm start
    from the sample before) returns cold_level instead.
    """
    from nlsground import Grid

    def solve_one(grid, p, lam, kind, opts, warm):
        i = int(lam) - 1
        cold = warm is None and i == 10
        level = cold_level if cold else levels[i]
        return SimpleNamespace(action_value=level, mass=1.0, cold=cold)

    monkeypatch.setattr(curves, "_solve_one", solve_one)
    return sweep(Grid(unit_interval, 15), 4.0, np.arange(1.0, 13.0))


@pytest.mark.parametrize("shift, kept", [(-2e-6, "cold"), (2e-6, "warm")])
def test_sweep_cold_check_flags_a_jump(monkeypatch, unit_interval, shift,
                                       kept):
    # a cold level more than 1e-6 off the warm one flags the sample; the
    # lower of the two levels wins
    levels = np.arange(1.0, 13.0)
    cur = _stubbed_sweep(monkeypatch, unit_interval, levels,
                         levels[10] * (1.0 + shift))
    assert cur.flags == ["ok"] * 10 + ["jump?", "ok"]
    assert cur.states[10].cold == (kept == "cold")
    assert cur.J[10] == min(levels[10], levels[10] * (1.0 + shift))


def test_sweep_flags_a_level_that_does_not_rise(monkeypatch, unit_interval):
    levels = np.arange(1.0, 13.0)
    levels[4] = levels[3]
    levels[7] = levels[6] - 0.5
    cur = _stubbed_sweep(monkeypatch, unit_interval, levels, levels[10])
    assert [i for i, f in enumerate(cur.flags) if f != "ok"] == [4, 7]
    assert cur.flags[4] == cur.flags[7] == "nonmonotone"


def test_sweep_validation(grid255):
    with pytest.raises(ValueError):
        sweep(grid255, 4.0, [2.0, 1.0], "signed")
    with pytest.raises(ValueError):
        sweep(grid255, 4.0, [-100.0, 1.0], "signed")
    with pytest.raises(ValueError):
        sweep(grid255, 4.0, [1.0], "unknown")


def test_single_sample_curve_has_no_derivative(grid255):
    cur = sweep(grid255, 4.0, [5.0], "signed")
    assert math.isnan(cur.dJ[0])
    rep = derivative_mass_check(cur)
    assert rep.per_sample == []


def test_derivative_mass_median(signed_curve_p4):
    rep = derivative_mass_check(signed_curve_p4)
    assert rep.median_rel_error <= 1e-2


def test_derivative_mass_median_matches_numpy(signed_curve_p4):
    rep = derivative_mass_check(signed_curve_p4)
    rel = [r for _, r in rep.per_sample]
    assert len(rel) % 2 == 0  # the median averages the two middle values
    assert rep.median_rel_error == float(np.median(rel))


def test_derivative_mass_against_refined_sweep(grid255, signed_curve_p4):
    # frequency-halving oracle: doubling the sampling density must give
    # consistent central-difference derivatives at the shared nodes
    lam = signed_curve_p4.lambdas
    fine_lams = np.linspace(lam[0], lam[-1], 2 * lam.size - 1)
    fine = sweep(grid255, 4.0, fine_lams, "signed")
    shared = fine.dJ[::2][1:-1]
    coarse = signed_curve_p4.dJ[1:-1]
    rel = np.abs(shared - coarse) / np.abs(shared)
    assert np.median(rel) <= 1e-2


def test_synthetic_jump_sample_excluded(grid255):
    lams = np.linspace(1.0, 10.0, 10)
    J = np.linspace(1.0, 5.0, 10)
    J[6:] += 3.0  # constructed jump between samples 5 and 6
    mass = np.full(10, 1.0)
    dJ = np.gradient(J, lams)
    flags = ["ok"] * 10
    flags[6] = "jump?"
    cur = LevelCurve("signed", 4.0, grid255, lams, J, mass, dJ, flags,
                     threshold=-1.0)
    rep = derivative_mass_check(cur)
    assert 5 in rep.excluded or 6 in rep.excluded
    assert rep.max_rel_error < max(r for _, r in rep.per_sample)


def test_mass_threshold_subcritical_marker(signed_curve_p4):
    mt = mass_threshold(signed_curve_p4)
    assert mt.unbounded
    assert mt.mu_p == math.inf
    assert mt.attained == "no"


def test_mass_threshold_supercritical(grid255):
    lam1 = lambda1(grid255)
    lams = np.linspace(-lam1 + 0.5, 150.0, 80)
    cur = sweep(grid255, 8.0, lams, "signed")
    mt = mass_threshold(cur)
    assert not mt.unbounded
    assert mt.attained == "yes"
    assert cur.lambdas[1] < mt.argmax_lambda < cur.lambdas[-2]
    assert mt.mu_p >= np.nanmax(cur.mass)
    tight = mass_threshold(cur, refine_rtol=1e-7)
    assert tight.mu_p == pytest.approx(mt.mu_p, rel=1e-3)
    # the secant on the exact mass slope settles the peak far below the
    # default refine_rtol
    tightest = mass_threshold(cur, refine_rtol=1e-9)
    assert tightest.mu_p == pytest.approx(mt.mu_p, rel=1e-9)


def test_nodal_threshold_at_critical_exponent_dominates_two_solitons(grid511):
    # at the mass-critical exponent the nodal mass approaches twice the
    # soliton mass from below; the sampled supremum must reflect that
    lam2_h = lambda2(grid511)
    lams = np.linspace(-lam2_h + 1.0, 2000.0, 60)
    cur = sweep(grid511, 6.0, lams, "nodal")
    mt = mass_threshold(cur)
    assert mt.attained == "undetermined"
    assert mt.mu_p >= 2.0 * SOLITON_MASS * (1.0 - 5e-3)


def test_asymptotic_trichotomy_1d(unit_interval):
    lams = np.geomspace(5.0, 1500.0, 10)
    factory = resolution_matched_factory(unit_interval, 127, lam_base=5.0)
    reports = {p: asymptotic_classify(factory, p, lams, kind="nodal")
               for p in (4.0, 6.0, 8.0)}
    assert reports[4.0].classification == "diverges"
    assert reports[6.0].classification == "plateau"
    assert reports[8.0].classification == "vanishes"
    for rep in reports.values():
        assert rep.consistent
    # the sign-changing level rides two whole-space bumps, one per sign:
    # level/frequency tends to twice the unit-frequency level = mu_N
    plateau = reports[6.0].plateau_value
    assert plateau == pytest.approx(SOLITON_MASS, rel=0.05)
    # subcritical mass growth: fitted exponent against (2-alpha)/(p-2)
    predicted = mass_growth_exponent(1, 4.0)
    assert predicted == pytest.approx(0.5, rel=1e-12)
    assert reports[4.0].growth_exponent_fit >= predicted - 0.1


def test_asymptotic_range_validation(unit_interval):
    factory = resolution_matched_factory(unit_interval, 63)
    with pytest.raises(InsufficientRange):
        asymptotic_classify(factory, 4.0, np.geomspace(10.0, 100.0, 4))


def test_estimate_mu_n():
    rep = estimate_mu_N(1, [10.0, 20.0, 40.0])
    assert rep.value == pytest.approx(SOLITON_MASS, rel=1e-2)
    assert rep.box_values[0] >= rep.box_values[1] >= rep.box_values[2]
    assert rep.scaling_ok
    assert rep.scaling_expected == pytest.approx(4.0, rel=1e-12)


def _counted(monkeypatch, name):
    """Record the grid of every call to curves.<name>."""
    solve = getattr(curves, name)
    grids = []

    def counted(grid, *args, **kwargs):
        grids.append(grid)
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(curves, name, counted)
    return grids


def test_estimate_mu_n_solves_each_box_once(monkeypatch):
    # one unit-frequency solve per box, and the largest box's state also
    # serves the scaling ratio: boxes + 1 solves
    grids = _counted(monkeypatch, "ground_state")
    rep = estimate_mu_N(1, [10.0, 20.0, 40.0], resolution=0.05)
    assert [g.n for g in grids] == [199, 399, 799, 799]
    assert rep.scaling_ok


def test_estimate_mu_n_validation():
    with pytest.raises(NotCritical):
        estimate_mu_N(3, [10.0, 20.0])
    with pytest.raises(NoConvergence):
        # boxes below the bound-state width: truncation dominates
        estimate_mu_N(1, [0.4, 0.8], resolution=0.002)


def test_estimate_mu_n_planar():
    # p = 4 is mass-critical in the plane; 11.693 frozen from a verified
    # refinement study (h and L), consistent with the known constant
    rep = estimate_mu_N(2, [8.0, 12.0])
    assert rep.value == pytest.approx(11.693, rel=1e-2)
    assert rep.box_values[0] >= rep.box_values[1]
    assert rep.scaling_ok


def test_critical_exponent_values():
    assert critical_exponent(1) == 6.0
    assert critical_exponent(2) == 4.0


def test_exhaustion_converges(unit_interval):
    rep = exhaustion_test(unit_interval, [0.05, 0.02, 0.005],
                          ActionParams(4.0, 100.0), 511)
    assert rep.monotone
    assert all(g >= 0.0 for g in rep.gaps)
    assert rep.final_gap <= 1e-2
    assert rep.passed


def test_exhaustion_zero_margin_is_base(unit_interval):
    rep = exhaustion_test(unit_interval, [0.02, 0.0],
                          ActionParams(4.0, 100.0), 255)
    assert rep.levels[-1] == pytest.approx(rep.base_level, rel=1e-12)


def test_exhaustion_solves_the_base_once(unit_interval, monkeypatch):
    # the zero margin's level is the base level already in hand
    grids = _counted(monkeypatch, "nodal_ground_state")
    rep = exhaustion_test(unit_interval, [0.02, 0.0],
                          ActionParams(4.0, 100.0), 255)
    assert [g.spec.bounds for g in grids] == [((0.0, 1.0),), ((0.02, 0.98),)]
    assert rep.levels[-1] == rep.base_level


def test_exhaustion_other_exponent(unit_interval):
    rep = exhaustion_test(unit_interval, [0.05, 0.02, 0.01],
                          ActionParams(6.0, 50.0), 255)
    assert rep.monotone
    assert rep.gaps[0] >= rep.gaps[-1] >= 0.0


def test_sweep_flags_failures_and_budget(unit_interval):
    # a frequency above -lambda_2 but inside the solver's threshold margin
    # raises LambdaBelowThreshold; such samples are flagged, and too many
    # of them abort the sweep
    from nlsground import Grid, lambda2 as _l2
    from nlsground.action import threshold_floor
    grid = Grid(unit_interval, 64)
    lam2_h = _l2(grid)
    inside = np.linspace(-lam2_h, threshold_floor(lam2_h), 5)[1:]
    good = np.linspace(-lam2_h + 3.0, 50.0, 8)
    bad_one = np.concatenate([inside[-1:], good])
    cur = sweep(grid, 4.0, bad_one, "nodal")
    assert cur.flags[0] == "failed:LambdaBelowThreshold"
    assert all(f == "ok" for f in cur.flags[1:])
    assert math.isnan(cur.J[0])
    many_bad = np.concatenate([inside, good])
    with pytest.raises(NoConvergence):
        sweep(grid, 4.0, many_bad, "nodal")
