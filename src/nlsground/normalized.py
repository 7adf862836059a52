"""The prescribed-mass problem solved through the level curve.

Minimizing J(lambda) - mu * lambda / 2 over the frequency links the
prescribed mass mu to the frequencies where the ground-state mass curve
crosses mu.  The solver enumerates those crossings on a sampled curve,
polishes each to the mass tolerance by safeguarded secant steps, and
returns the branch of least energy; certification re-checks minimality
against the curve's minimum, refined by the same secant steps on cold
re-solves (the derivative of J - mu lambda / 2 is (mass - mu) / 2), and
that the returned field is a ground state at its own frequency.
Star-shaped boundary-weighted identities provide an independent
consistency check and the supercritical frequency bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .action import ActionParams, SolverOptions, action, energy
from .curves import (LevelCurve, _secant_steps, _solve_one, critical_exponent,
                     mass_threshold, sweep, threshold_eigenvalue)
from .errors import (CertificationFailed, InvalidSpec, MassAboveBarMu,
                     MassOutOfRange, NoBracket, NotStarShaped)
from .grid import DomainSpec, Field, Grid
from .nodal import nodal_ground_state

_MASS_RTOL = 1e-6
# relative energy gap and relative action slack the certification allows
_CERTIFY_RTOL = 1e-6
# times a subcritical solve may extend its own sweep to bracket the mass
_MAX_EXTENSIONS = 6


@dataclass(frozen=True)
class BranchRecord:
    """One mass crossing: frequency, level, mass and energy there."""

    lam: float
    action_value: float
    mass: float
    energy: float


@dataclass(frozen=True)
class Certification:
    branches_examined: int
    is_least_among_found: bool


@dataclass(frozen=True)
class NormalizedSolution:
    """Solution of the prescribed-mass problem with selection metadata."""

    u: Field
    lam: float
    mu: float
    energy: float
    kind: str
    action_value: float
    residual: float
    node_count: int
    branches: tuple[BranchRecord, ...]
    certification: Certification

    def to_record(self) -> dict:
        spec = self.u.grid.spec
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "energy": self.energy,
            "action": self.action_value,
            "residual": self.residual,
            "node_count": self.node_count,
            "kind": self.kind,
            "branches": [[b.lam, b.action_value, b.mass, b.energy]
                         for b in self.branches],
            "certification": {
                "branches_examined": self.certification.branches_examined,
                "is_least_among_found": self.certification.is_least_among_found,
            },
            "domain": {"dimension": spec.dimension,
                       "bounds": [list(ax) for ax in spec.bounds]},
            "n": self.u.grid.n,
        }


@dataclass
class FMuProfile:
    """The scalar selection function J(lambda) - mu lambda / 2 on a curve."""

    mu: float
    lambdas: np.ndarray
    f_values: np.ndarray
    minimizer_lambda: float
    minimizer_interior: bool


def f_mu_profile(curve: LevelCurve, mu: float) -> FMuProfile:
    """Pointwise transform of the curve; flags interior minimizers.

    An interior discrete minimizer is what the stationarity argument
    needs; a minimizer pinned to either end means the sweep window does
    not bracket the true one (or, at the right end, that no interior
    minimum exists for this mass).  mu = 0 is accepted and degenerates to
    the curve itself, flagged non-interior.
    """
    if mu < 0:
        raise InvalidSpec(f"mass must be nonnegative, got {mu}")
    ok = curve.ok_indices()
    lam = curve.lambdas[ok]
    f = curve.J[ok] - 0.5 * mu * lam
    k = int(np.argmin(f))
    return FMuProfile(
        mu=mu,
        lambdas=lam,
        f_values=f,
        minimizer_lambda=float(lam[k]),
        minimizer_interior=bool(0 < k < lam.size - 1),
    )


def _extend_curve(curve: LevelCurve, opts: SolverOptions) -> LevelCurve:
    lam = curve.lambdas
    lo, hi = lam[0], lam[-1]
    new_hi = hi + (hi - lo) * 2.0
    extra = np.linspace(hi, new_hi, lam.size)[1:]
    ext = sweep(curve.grid, curve.p, extra, curve.kind, opts)
    return LevelCurve(
        kind=curve.kind, p=curve.p, grid=curve.grid,
        lambdas=np.concatenate([lam, ext.lambdas]),
        J=np.concatenate([curve.J, ext.J]),
        mass=np.concatenate([curve.mass, ext.mass]),
        dJ=np.concatenate([curve.dJ, ext.dJ]),
        flags=curve.flags + ext.flags,
        threshold=curve.threshold,
        states=curve.states + ext.states,
    )


def solve_normalized(grid: Grid, p: float, mu: float, kind: str = "signed",
                     opts: SolverOptions | None = None,
                     curve: LevelCurve | None = None,
                     lambda_max: float | None = None,
                     samples: int = 200) -> NormalizedSolution:
    """Solve the prescribed-mass problem along the ground-state branch.

    Enumerates the frequencies where the sampled mass curve crosses mu,
    polishes each to |mass - mu| <= 1e-6 mu, and returns the crossing of
    least energy (ties: smaller frequency).  Without a curve, `samples`
    frequencies are swept from 0.5 above the threshold, and subcritical
    sweeps are extended (at most 6 times) until the mass is bracketed;
    critical/supercritical masses above the refined threshold raise
    MassOutOfRange, and the threshold mass itself is matched at the
    curve's argmax.
    """
    if not (np.isfinite(mu) and mu > 0):
        raise InvalidSpec(f"mass must be finite and positive, got {mu}")
    if samples < 2:
        raise InvalidSpec(f"samples must be at least 2, got {samples}")
    if lambda_max is not None and not np.isfinite(lambda_max):
        raise InvalidSpec(f"lambda_max must be finite, got {lambda_max}")
    opts = opts or SolverOptions()
    own_curve = curve is None
    if own_curve:
        thr = threshold_eigenvalue(grid, kind)
        lo = -thr + 0.5
        hi = lambda_max if lambda_max is not None else max(4.0 * thr, lo + 50.0)
        curve = sweep(grid, p, np.linspace(lo, hi, samples), kind, opts)
    p_c = critical_exponent(grid.dimension)

    for _ in range(_MAX_EXTENSIONS + 1):
        brackets = _mass_brackets(curve, mu)
        if brackets:
            break
        ok = curve.ok_indices()
        tail_rising = curve.mass[ok[-1]] >= 0.98 * np.nanmax(curve.mass[ok])
        if own_curve and (p < p_c or tail_rising):
            curve = _extend_curve(curve, opts)
            continue
        break
    else:
        brackets = []

    branches = [_polish_crossing(curve, mu, bracket, opts)
                for bracket in brackets]

    if not branches:
        ok = curve.ok_indices()
        if ok.size and mu < float(np.nanmin(curve.mass[ok])):
            raise NoBracket(
                f"mu={mu} below the smallest resolved mass "
                f"{np.nanmin(curve.mass[ok]):.6g}; refine the mesh or "
                f"sample closer to the threshold")
        if p >= p_c:
            peak = mass_threshold(curve, opts, refine_rtol=1e-9)
            if mu > peak.mu_p * (1.0 + _MASS_RTOL):
                raise MassOutOfRange(
                    f"mu={mu} above the mass threshold {peak.mu_p:.9g} "
                    f"(p={p} {'>' if p > p_c else '='} critical {p_c})")
            st = _solve_one(grid, curve.p, peak.argmax_lambda, kind, opts,
                            None)
            if abs(st.mass - mu) > _MASS_RTOL * mu:
                raise MassOutOfRange(
                    f"mu={mu} not matched at the mass peak "
                    f"{peak.mu_p:.9g} (gap {abs(st.mass - mu) / mu:.2e})")
            branches = [(peak.argmax_lambda, st)]
        else:
            raise NoBracket(
                f"sweep up to lambda={curve.lambdas[-1]:.6g} never reaches "
                f"mass {mu}; extend the sweep")

    records = []
    best = None
    for lam_star, st in branches:
        e = st.action_value - 0.5 * lam_star * mu
        rec = BranchRecord(lam=lam_star, action_value=st.action_value,
                           mass=st.mass, energy=e)
        records.append(rec)
        if best is None or (e, lam_star) < (best[0].energy, best[0].lam):
            best = (rec, st)
    best_rec, best_state = best
    return NormalizedSolution(
        u=best_state.u,
        lam=best_rec.lam,
        mu=mu,
        energy=best_rec.energy,
        kind=kind,
        action_value=best_state.action_value,
        residual=best_state.residual,
        node_count=best_state.node_count,
        branches=tuple(records),
        certification=Certification(
            branches_examined=len(records),
            is_least_among_found=True,
        ),
    )


def _mass_brackets(curve: LevelCurve, mu: float):
    ok = curve.ok_indices()
    out = []
    for a, b in zip(ok[:-1], ok[1:]):
        fa = curve.mass[a] - mu
        fb = curve.mass[b] - mu
        if fa == 0.0:
            out.append((a, a))
        elif fa * fb < 0.0:
            out.append((a, b))
    if ok.size and curve.mass[ok[-1]] == mu:
        out.append((ok[-1], ok[-1]))
    return out


def _polish_crossing(curve: LevelCurve, mu: float, bracket, opts):
    """Safeguarded secant iteration on mass(lambda) - mu inside a bracket."""
    ia, ib = bracket
    grid, kind, p = curve.grid, curve.kind, curve.p
    warm = curve.states[ia]
    if ia == ib:
        lam = float(curve.lambdas[ia])
        return lam, _solve_one(grid, p, lam, kind, opts, warm)

    def mass_gap(lam: float):
        st = _solve_one(grid, p, lam, kind, opts, warm)
        return st.mass - mu, st

    gap = math.nan
    for lam, st in _secant_steps(mass_gap, float(curve.lambdas[ia]),
                                 float(curve.mass[ia] - mu),
                                 float(curve.lambdas[ib]),
                                 float(curve.mass[ib] - mu)):
        warm = st
        gap = abs(st.mass - mu) / mu
        if gap <= _MASS_RTOL:
            return lam, st
    raise NoBracket(
        f"mass matching stalled at |mass-mu|/mu = {gap:.2e} inside "
        f"[{curve.lambdas[ia]}, {curve.lambdas[ib]}]")


@dataclass
class CertificationReport:
    """Outcome of the least-energy certification of one solution."""

    passed: bool
    energy_gap: float        # |E - refined curve minimum| / scale
    action_gap: float        # |action - fresh level at lambda| (absolute)
    minimizer_lambda: float
    minimizer_interior: bool


def least_energy_certify(sol: NormalizedSolution, curve: LevelCurve,
                         opts: SolverOptions | None = None) -> CertificationReport:
    """Check the two selection identities behind the returned solution.

    The energy must match the minimum of J(lambda) - mu lambda / 2 over
    the curve (refined locally by secant steps on cold re-solves toward
    the zero of its derivative (mass(lambda) - mu) / 2) to 1e-6
    relatively, and the action must match a fresh ground-state level at
    the solution's own frequency to within twice the solver tolerance
    plus 1e-6 of that level.  Raises
    CertificationFailed with the violating frequency otherwise.
    """
    opts = opts or SolverOptions()
    profile = f_mu_profile(curve, sol.mu)
    f_min, lam_min = _refine_profile_min(curve, sol.mu, profile, opts)
    scale = max(abs(sol.energy), abs(f_min), 1e-9)
    energy_gap = abs(sol.energy - f_min) / scale
    if energy_gap > _CERTIFY_RTOL:
        raise CertificationFailed(
            f"energy {sol.energy:.10g} differs from the curve minimum "
            f"{f_min:.10g} (relative gap {energy_gap:.2e})", lam=lam_min)
    fresh = _solve_one(curve.grid, curve.p, sol.lam, sol.kind, opts, None)
    action_gap = abs(sol.action_value - fresh.action_value)
    sol_action = action(sol.u, ActionParams(curve.p, sol.lam))
    recomputed_gap = abs(sol_action - fresh.action_value)
    if max(action_gap, recomputed_gap) > (2.0 * opts.tol
                                          + _CERTIFY_RTOL * abs(fresh.action_value)):
        raise CertificationFailed(
            f"action {max(sol.action_value, sol_action):.10g} exceeds the "
            f"ground-state level {fresh.action_value:.10g} at "
            f"lambda={sol.lam:.6g}", lam=sol.lam)
    return CertificationReport(
        passed=True,
        energy_gap=energy_gap,
        action_gap=max(action_gap, recomputed_gap),
        minimizer_lambda=lam_min,
        minimizer_interior=profile.minimizer_interior,
    )


def _refine_profile_min(curve: LevelCurve, mu: float, profile: FMuProfile,
                        opts: SolverOptions):
    """Least f(lambda) = J(lambda) - mu lambda / 2 near the sampled argmin.

    f' = (mass(lambda) - mu) / 2, so the minimum sits where the mass
    crosses mu: secant steps on cold re-solves between the argmin's
    neighbours, until the mass matches mu to _MASS_RTOL.  Without a sign
    change of f' there the sampled minimum stands.
    """
    ok = curve.ok_indices()
    k = int(np.argmin(profile.f_values))
    best = (float(profile.f_values[k]), float(profile.lambdas[k]))
    # an argmin at an edge sample still brackets a minimum one step in
    lo, hi = ok[max(k - 1, 0)], ok[min(k + 1, ok.size - 1)]
    gap_lo, gap_hi = float(curve.mass[lo] - mu), float(curve.mass[hi] - mu)
    if gap_lo * gap_hi >= 0.0:
        return best

    def mass_gap(lam: float):
        st = _solve_one(curve.grid, curve.p, lam, curve.kind, opts, None)
        return st.mass - mu, st

    for lam, st in _secant_steps(mass_gap, float(curve.lambdas[lo]), gap_lo,
                                 float(curve.lambdas[hi]), gap_hi):
        best = min(best, (st.action_value - 0.5 * mu * lam, lam))
        if abs(st.mass - mu) <= _MASS_RTOL * mu:
            break
    return best


@dataclass
class PohozaevReport:
    """Boundary-weighted identity residual and the supercritical bound."""

    identity_residual: float     # relative to the p-norm term
    boundary_term: float
    interior_terms: float
    bound_coefficient: float | None
    energy_bound_ok: bool | None


def pohozaev_check(u: Field, params: ActionParams,
                   spec: DomainSpec | None = None) -> PohozaevReport:
    """Residual of the boundary-weighted integral identity for solutions.

    Uses second-order one-sided normal derivatives at the boundary and
    measures positions from the domain's star center.  For supercritical
    exponents also evaluates the energy lower bound with coefficient
    N (p - p_c) / (4 p).
    """
    grid = u.grid
    spec = spec or grid.spec
    if spec.dimension != grid.dimension:
        raise InvalidSpec("spec dimension does not match the field's grid")
    for c, (lo, hi) in zip(spec.star_center, spec.bounds):
        if not (lo < c < hi):
            raise NotStarShaped(
                f"star center {spec.star_center} outside the domain")
    N = grid.dimension
    p = params.p
    l2s = grid.l2_sq(u.values)
    lpp = grid.lp_p(u.values, p)
    grs = grid.grad_sq(u.values)
    boundary = _boundary_weighted_flux(grid, u.values, spec)
    interior = ((N - 2.0) / 2.0 * grs - (N / p) * lpp
                + params.lam * N / 2.0 * l2s)
    identity = interior + 0.5 * boundary
    rel = abs(identity) / max(lpp, 1e-300)
    p_c = critical_exponent(N)
    coeff = None
    bound_ok = None
    if p > p_c:
        coeff = N * (p - p_c) / (4.0 * p)
        e = energy(u, p)
        bound_ok = bool(e >= coeff * lpp * (1.0 - 1e-9) - 1e-300)
    return PohozaevReport(
        identity_residual=rel,
        boundary_term=boundary,
        interior_terms=interior,
        bound_coefficient=coeff,
        energy_bound_ok=bound_ok,
    )


def _boundary_weighted_flux(grid: Grid, vals: np.ndarray,
                            spec: DomainSpec) -> float:
    """Integral of |du/dnu|^2 (x - center) . nu over the boundary.

    Normal derivatives by three-point one-sided differences with the
    implicit zero boundary value.
    """
    center = spec.star_center
    if grid.dimension == 1:
        h = grid.h[0]
        (a, b), = spec.bounds
        du_a = (4.0 * vals[0] - vals[1]) / (2.0 * h)
        du_b = (4.0 * vals[-1] - vals[-2]) / (2.0 * h)
        return du_b ** 2 * (b - center[0]) + du_a ** 2 * (center[0] - a)
    u = vals.reshape(grid.shape)
    hx, hy = grid.h
    (ax, bx), (ay, by) = spec.bounds
    cx, cy = center
    du_left = (4.0 * u[0, :] - u[1, :]) / (2.0 * hx)
    du_right = (4.0 * u[-1, :] - u[-2, :]) / (2.0 * hx)
    du_bottom = (4.0 * u[:, 0] - u[:, 1]) / (2.0 * hy)
    du_top = (4.0 * u[:, -1] - u[:, -2]) / (2.0 * hy)
    total = hy * float(np.sum(du_right ** 2)) * (bx - cx)
    total += hy * float(np.sum(du_left ** 2)) * (cx - ax)
    total += hx * float(np.sum(du_top ** 2)) * (by - cy)
    total += hx * float(np.sum(du_bottom ** 2)) * (cy - ay)
    return total


@dataclass
class SupercriticalBoundReport:
    """Frequency bound for least-energy solutions at small mass."""

    lambda_bar: float
    mu_bar: float
    lam: float
    energy: float
    energy_cap: float        # lambda_2 / 2 * mu
    lambda_ok: bool
    energy_ok: bool
    passed: bool


def supercritical_lambda_bound(grid: Grid, p: float, mu: float,
                               opts: SolverOptions | None = None,
                               samples: int = 200) -> SupercriticalBoundReport:
    """Check the supercritical frequency bound on the nodal branch.

    Computes lambda_bar = 2 p lambda_2 / (N (p - p_c)) and the mass cap
    mu_bar = 2 J_nod(lambda_bar) / (lambda_bar + lambda_2) from the
    discrete spectrum, solves the prescribed-mass nodal problem on a
    sweep of `samples` frequencies from 0.5 above -lambda_2 to
    1.2 lambda_bar, and verifies the returned frequency stays below
    lambda_bar with energy below lambda_2 mu / 2.  Raises MassAboveBarMu when mu
    exceeds the cap.
    """
    opts = opts or SolverOptions()
    N = grid.dimension
    p_c = critical_exponent(N)
    if p <= p_c:
        raise InvalidSpec(f"p={p} is not supercritical (p_c={p_c})")
    if not (np.isfinite(mu) and mu > 0):
        raise InvalidSpec(f"mass must be finite and positive, got {mu}")
    if samples < 2:
        raise InvalidSpec(f"samples must be at least 2, got {samples}")
    lam2 = spectral.lambda2(grid)
    lambda_bar = 2.0 * p * lam2 / (N * (p - p_c))
    curve = sweep(grid, p, np.linspace(-lam2 + 0.5, 1.2 * lambda_bar, samples),
                  "nodal", opts)
    j_bar = nodal_ground_state(grid, ActionParams(p, lambda_bar), opts)
    mu_bar = 2.0 * j_bar.action_value / (lambda_bar + lam2)
    if mu > mu_bar:
        raise MassAboveBarMu(
            f"mu={mu} above the cap {mu_bar:.9g} for p={p}")
    sol = solve_normalized(grid, p, mu, kind="nodal", opts=opts, curve=curve)
    energy_cap = 0.5 * lam2 * mu
    lam_ok = bool(sol.lam < lambda_bar)
    energy_ok = bool(sol.energy < energy_cap)
    return SupercriticalBoundReport(
        lambda_bar=lambda_bar,
        mu_bar=mu_bar,
        lam=sol.lam,
        energy=sol.energy,
        energy_cap=energy_cap,
        lambda_ok=lam_ok,
        energy_ok=energy_ok,
        passed=lam_ok and energy_ok,
    )
