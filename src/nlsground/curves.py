"""Frequency continuation: ground-state level curves and what they encode.

A sweep solves the signed or sign-changing problem along an ascending
frequency list with warm starts, recording the level, the mass and a
central-difference derivative.  The derivative carries the mass law
(twice the derivative of the level equals the ground-state mass wherever
the level is differentiable), the supremum of the mass along the curve
is the finite mass threshold in the critical and supercritical regimes,
and the large-frequency trend of level/frequency separates the three
regimes.  Warm/cold disagreements are flagged rather than resolved: the
level may genuinely have countably many kinks where the minimizer jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .action import ActionParams, GroundState, SolverOptions, ground_state
from .errors import (InsufficientRange, InvalidSpec, NlsgroundError,
                     NoConvergence, NotCritical)
from .grid import DomainSpec, Grid, build_grid
from .nodal import nodal_ground_state

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class LevelCurve:
    """Sampled level curve of one kind at one exponent."""

    kind: str               # "signed" | "nodal"
    p: float
    grid: Grid
    lambdas: np.ndarray
    J: np.ndarray
    mass: np.ndarray
    dJ: np.ndarray          # central differences, one-sided endpoints
    flags: list[str]
    threshold: float        # discrete -lambda_1 / -lambda_2 threshold value
    states: list = field(default_factory=list, repr=False)

    def ok(self, i: int) -> bool:
        return not self.flags[i].startswith("failed")

    def ok_indices(self) -> np.ndarray:
        return np.array([i for i in range(len(self.flags)) if self.ok(i)],
                        dtype=int)


def _solve_one(grid: Grid, p: float, lam: float, kind: str,
               opts: SolverOptions, warm_state: GroundState | None):
    params = ActionParams(p, lam)
    if kind == "signed":
        init = warm_state.u if warm_state is not None else None
        return ground_state(grid, params, opts, init_field=init)
    hint = warm_state.interface_index if warm_state is not None else None
    init = warm_state.u if warm_state is not None else None
    return nodal_ground_state(grid, params, opts, interface_hint=hint,
                              init_field=init)


def threshold_eigenvalue(grid: Grid, kind: str) -> float:
    if kind == "signed":
        return spectral.lambda1(grid)
    if kind == "nodal":
        return spectral.lambda2(grid)
    raise ValueError(f"unknown kind {kind!r}")


def sweep(grid: Grid, p: float, lambdas, kind: str = "signed",
          opts: SolverOptions | None = None, cold_check_every: int = 10,
          keep_states: bool = True, mismatch_rtol: float = 1e-6,
          max_failure_fraction: float = 0.2) -> LevelCurve:
    """Level curve along an ascending frequency list, warm-started.

    Every cold_check_every-th sample is re-solved from the default
    initialization; a relative disagreement in the level above
    mismatch_rtol flags the sample as a possible branch/jump point and
    the lower level wins.  Failed samples are flagged and skipped; the
    sweep aborts only when more than max_failure_fraction of them fail.
    """
    opts = opts or SolverOptions()
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("need a nonempty 1D frequency list")
    if np.any(np.diff(lambdas) <= 0):
        raise ValueError("frequency list must be strictly ascending")
    thr = threshold_eigenvalue(grid, kind)
    if lambdas[0] <= -thr:
        raise ValueError(
            f"sweep starts at {lambdas[0]}, at or below the threshold {-thr:.6g}")

    count = lambdas.size
    J = np.full(count, np.nan)
    mass = np.full(count, np.nan)
    flags = ["ok"] * count
    states: list = [None] * count
    warm: GroundState | None = None
    failures = 0
    for i, lam in enumerate(lambdas):
        try:
            st = _solve_one(grid, p, lam, kind, opts, warm)
        except InvalidSpec:
            raise  # bad input fails every sample alike
        except NlsgroundError as exc:
            failures += 1
            flags[i] = f"failed:{type(exc).__name__}"
            warm = None
            if failures > max_failure_fraction * count:
                raise NoConvergence(
                    f"sweep aborted: {failures}/{i + 1} samples failed "
                    f"(last: {exc})") from exc
            continue
        if cold_check_every and i % cold_check_every == 0 and warm is not None:
            try:
                cold = _solve_one(grid, p, lam, kind, opts, None)
            except NlsgroundError:
                cold = None
            if cold is not None:
                gap = abs(cold.action_value - st.action_value)
                if gap > mismatch_rtol * abs(st.action_value):
                    flags[i] = "jump?"
                if cold.action_value < st.action_value:
                    st = cold
        J[i] = st.action_value
        mass[i] = st.mass
        states[i] = st if keep_states else None
        warm = st

    dJ = _central_differences(lambdas, J)
    curve = LevelCurve(kind=kind, p=p, grid=grid, lambdas=lambdas, J=J,
                       mass=mass, dJ=dJ, flags=flags, threshold=-thr,
                       states=states)
    _annotate_monotonicity(curve)
    return curve


def _central_differences(lam: np.ndarray, J: np.ndarray) -> np.ndarray:
    n = lam.size
    dJ = np.full(n, np.nan)
    if n == 1:
        return dJ
    dJ[0] = (J[1] - J[0]) / (lam[1] - lam[0])
    dJ[-1] = (J[-1] - J[-2]) / (lam[-1] - lam[-2])
    if n > 2:
        dJ[1:-1] = (J[2:] - J[:-2]) / (lam[2:] - lam[:-2])
    return dJ


def _annotate_monotonicity(curve: LevelCurve) -> None:
    ok = curve.ok_indices()
    for a, b in zip(ok[:-1], ok[1:]):
        if not curve.J[b] > curve.J[a]:
            if curve.flags[b] == "ok":
                curve.flags[b] = "nonmonotone"


@dataclass
class DerivativeMassReport:
    median_rel_error: float
    max_rel_error: float
    per_sample: list[tuple[float, float]]  # (lambda, relative error)
    excluded: list[int]                    # flagged jump candidates


def derivative_mass_check(curve: LevelCurve) -> DerivativeMassReport:
    """Relative error of |2 dJ - mass| / mass on interior ok samples.

    Jump-flagged samples are excluded from the maximum, as the one-sided
    derivatives genuinely differ there.
    """
    per = []
    excluded = []
    errs = []
    errs_for_max = []
    for i in range(1, curve.lambdas.size - 1):
        if not curve.ok(i) or math.isnan(curve.dJ[i]) or curve.mass[i] == 0.0:
            continue
        rel = abs(2.0 * curve.dJ[i] - curve.mass[i]) / curve.mass[i]
        per.append((float(curve.lambdas[i]), rel))
        errs.append(rel)
        if curve.flags[i] == "jump?" or (i + 1 < len(curve.flags)
                                         and curve.flags[i + 1] == "jump?") \
                or curve.flags[i - 1] == "jump?":
            excluded.append(i)
        else:
            errs_for_max.append(rel)
    median = float(np.median(errs)) if errs else math.nan
    biggest = float(np.max(errs_for_max)) if errs_for_max else math.nan
    return DerivativeMassReport(median, biggest, per, excluded)


@dataclass
class MassThreshold:
    """Supremum of the ground-state mass along the curve.

    For subcritical exponents the threshold is infinite; `unbounded`
    marks that case and mu_p is +inf.  `attained` is "yes" above the
    critical exponent, "undetermined" at it.
    """

    mu_p: float
    argmax_lambda: float
    attained: str  # "yes" | "no" | "undetermined"
    unbounded: bool = False


def critical_exponent(dimension: int) -> float:
    return 2.0 + 4.0 / dimension


def mass_threshold(curve: LevelCurve, opts: SolverOptions | None = None,
                   refine_rtol: float = 1e-4) -> MassThreshold:
    """Mass threshold from the sampled curve, refined around the argmax.

    Twice the supremum of the level derivative equals the supremum of
    the sampled mass, so the refinement maximizes the mass directly by
    golden-section re-solves inside the bracketing frequency interval
    until the maximum moves by less than refine_rtol relatively.
    """
    p_c = critical_exponent(curve.grid.dimension)
    if curve.p < p_c:
        return MassThreshold(math.inf, math.nan, "no", unbounded=True)
    opts = opts or SolverOptions()
    ok = curve.ok_indices()
    if ok.size == 0:
        raise NoConvergence("no usable samples in the curve")
    masses = curve.mass[ok]
    k = int(ok[int(np.argmax(masses))])
    best_lam = float(curve.lambdas[k])
    best_mass = float(curve.mass[k])
    interior = 0 < k < curve.lambdas.size - 1
    if interior:
        lo = float(curve.lambdas[k - 1])
        hi = float(curve.lambdas[k + 1])
        warm = curve.states[k]
        best_lam, best_mass = _golden_max_mass(
            curve, lo, hi, best_lam, best_mass, warm, opts, refine_rtol)
    attained = "yes" if curve.p > p_c else "undetermined"
    return MassThreshold(best_mass, best_lam, attained)


def _mass_at(curve: LevelCurve, lam: float, warm, opts: SolverOptions):
    st = _solve_one(curve.grid, curve.p, lam, curve.kind, opts, warm)
    return st.mass, st


def _golden_max_mass(curve: LevelCurve, lo: float, hi: float,
                     best_lam: float, best_mass: float, warm,
                     opts: SolverOptions, rtol: float,
                     max_iter: int = 80):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, st1 = _mass_at(curve, x1, warm, opts)
    f2, st2 = _mass_at(curve, x2, st1, opts)
    settled = 0
    for _ in range(max_iter):
        prev = best_mass
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            st1 = st2
            x2 = a + _GOLDEN * (b - a)
            f2, st2 = _mass_at(curve, x2, st1, opts)
        else:
            b, x2, f2 = x2, x1, f1
            st2 = st1
            x1 = b - _GOLDEN * (b - a)
            f1, st1 = _mass_at(curve, x1, st2, opts)
        if f1 > best_mass:
            best_mass, best_lam = f1, x1
        if f2 > best_mass:
            best_mass, best_lam = f2, x2
        # stop only after successive refinements stall below rtol
        settled = settled + 1 if abs(best_mass - prev) <= rtol * best_mass else 0
        if settled >= 3 and abs(f1 - f2) <= rtol * best_mass:
            break
    return best_lam, best_mass


@dataclass
class AsymptoticReport:
    regime: str                    # from the exponent: sub/critical/super
    classification: str            # from the data: diverges/plateau/vanishes
    slope_samples: list[tuple[float, float]]   # (lambda, J/lambda)
    fitted_J_exponent: float
    plateau_value: float | None = None
    growth_exponent_fit: float | None = None   # mass ~ lambda^beta fit
    consistent: bool = False


def asymptotic_classify(grid_factory, p: float, lambdas, kind: str = "signed",
                        opts: SolverOptions | None = None,
                        plateau_band: float = 0.1) -> AsymptoticReport:
    """Classify the large-frequency trend of level/frequency.

    grid_factory maps a frequency to the Grid used at that frequency
    (meshes must refine with the frequency to resolve the concentration
    width ~ lambda^(-1/2)).  The frequency list must span at least two
    decades.  The level is fit as a power of the frequency over the top
    half of the range: exponent above 1 + plateau_band diverges, below
    1 - plateau_band vanishes, else plateau.
    """
    opts = opts or SolverOptions()
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.min() <= 0 or lambdas.max() / lambdas.min() < 99.0:
        raise InsufficientRange(
            "need strictly positive frequencies spanning at least two decades")
    J = np.empty(lambdas.size)
    mass = np.empty(lambdas.size)
    for i, lam in enumerate(lambdas):
        grid = grid_factory(lam)
        st = _solve_one(grid, p, lam, kind, opts, None)
        J[i] = st.action_value
        mass[i] = st.mass
    tail = lambdas >= np.sqrt(lambdas.min() * lambdas.max())
    gamma = _loglog_slope(lambdas[tail], J[tail])
    if gamma >= 1.0 + plateau_band:
        classification = "diverges"
    elif gamma <= 1.0 - plateau_band:
        classification = "vanishes"
    else:
        classification = "plateau"
    p_c = critical_exponent(grid_factory(lambdas[0]).dimension)
    if p < p_c:
        regime = "subcritical"
    elif p == p_c:
        regime = "critical"
    else:
        regime = "supercritical"
    plateau_value = None
    if classification == "plateau":
        top = lambdas >= lambdas.max() / 3.0
        plateau_value = float(np.mean(J[top] / lambdas[top]))
    growth = None
    if regime == "subcritical":
        growth = _loglog_slope(lambdas[tail], mass[tail])
    expected = {"subcritical": "diverges", "critical": "plateau",
                "supercritical": "vanishes"}
    return AsymptoticReport(
        regime=regime,
        classification=classification,
        slope_samples=[(float(l), float(j / l)) for l, j in zip(lambdas, J)],
        fitted_J_exponent=float(gamma),
        plateau_value=plateau_value,
        growth_exponent_fit=growth,
        consistent=(classification == expected[regime]),
    )


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(np.log(x), np.log(y), 1)
    return float(coeffs[0])


def mass_growth_exponent(dimension: int, p: float) -> float:
    """Predicted subcritical growth of the mass: (2 - alpha)/(p - 2),
    alpha = N (p/2 - 1) from the interpolation inequality."""
    alpha = dimension * (p / 2.0 - 1.0)
    return (2.0 - alpha) / (p - 2.0)


def resolution_matched_factory(spec: DomainSpec, n_base: int,
                               lam_base: float = 1.0, n_cap: int = 65535):
    """Grid factory with node count growing like sqrt(frequency).

    Node counts are rounded up to odd so symmetric nodal splits keep an
    exact center node.
    """
    def factory(lam: float) -> Grid:
        n = int(math.ceil(n_base * math.sqrt(max(lam, lam_base) / lam_base)))
        n = min(n | 1, n_cap)
        return build_grid(spec, n)
    return factory


@dataclass
class MuNReport:
    """Dirichlet-box estimate of the critical whole-space mass constant."""

    value: float
    error_bar: float
    box_lengths: list[float]
    box_values: list[float]   # twice the signed level at unit frequency
    scaling_ratio: float
    scaling_expected: float
    scaling_ok: bool


def estimate_mu_N(N: int, L_list, p: float | None = None,
                  opts: SolverOptions | None = None,
                  resolution: float | None = None,
                  scaling_check_lambda: float = 4.0,
                  scaling_rtol: float = 0.02,
                  n_cap: int | None = None) -> MuNReport:
    """Estimate the critical mass constant by exhausting boxes.

    Solves the signed problem at unit frequency on centered boxes of
    growing side L; twice the level decreases with L toward the
    whole-space value (twice the level at unit frequency for the
    mass-critical exponent).  The last increment is the error bar.
    Raises NotCritical for an off-critical exponent and NoConvergence
    when the box sequence has not settled (increments not shrinking).

    resolution is the target spacing (defaults to 0.01 in 1D, 0.06 in
    2D, where node counts are per axis and grow quadratically in cost).
    """
    if N not in (1, 2):
        raise NotCritical(f"dimension must be 1 or 2, got {N}")
    p_c = critical_exponent(N)
    if p is None:
        p = p_c
    if abs(p - p_c) > 1e-12:
        raise NotCritical(f"p={p} is not the mass-critical exponent {p_c}")
    opts = opts or SolverOptions()
    if resolution is None:
        resolution = 0.01 if N == 1 else 0.06
    if n_cap is None:
        n_cap = 8191 if N == 1 else 301
    lengths = [float(L) for L in L_list]
    if len(lengths) < 2 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("need at least two strictly increasing box sizes")

    values = []
    largest_grid = None
    for L in lengths:
        n = min(int(math.ceil(L / resolution)) - 1, n_cap) | 1
        if N == 1:
            spec = DomainSpec.interval(-L / 2.0, L / 2.0)
        else:
            spec = DomainSpec.rectangle(-L / 2.0, L / 2.0, -L / 2.0, L / 2.0)
        grid = build_grid(spec, n)
        st = ground_state(grid, ActionParams(p, 1.0), opts)
        values.append(2.0 * st.action_value)
        largest_grid = grid
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    decreasing = all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))
    settled = increments[-1] <= 0.02 * values[-1] and (
        len(increments) < 2 or increments[-1] <= increments[-2])
    if not (decreasing and settled):
        raise NoConvergence(
            f"box sequence has not converged: values {values}, "
            f"increments {increments} (boxes too small for the bound state)")

    st1 = ground_state(largest_grid, ActionParams(p, 1.0), opts)
    st2 = ground_state(largest_grid, ActionParams(p, scaling_check_lambda), opts)
    exponent = (2.0 * N - p * (N - 2.0)) / (2.0 * (p - 2.0))
    expected = scaling_check_lambda ** exponent
    ratio = st2.action_value / st1.action_value
    return MuNReport(
        value=values[-1],
        error_bar=increments[-1],
        box_lengths=lengths,
        box_values=values,
        scaling_ratio=float(ratio),
        scaling_expected=float(expected),
        scaling_ok=bool(abs(ratio / expected - 1.0) <= scaling_rtol),
    )


@dataclass
class ExhaustionReport:
    """Shrunken-domain levels converging to the base-domain level."""

    epsilons: list[float]
    levels: list[float]
    base_level: float
    gaps: list[float]          # relative gap of each shrunken level
    final_gap: float
    monotone: bool
    passed: bool


def exhaustion_test(spec: DomainSpec, shrink_list, params: ActionParams,
                    n: int, opts: SolverOptions | None = None,
                    gap_tol: float = 1e-2) -> ExhaustionReport:
    """Shrink the domain by each margin and track the nodal level.

    Levels on shrunken domains lie above the base level (smaller domain,
    larger infimum) and must decrease toward it as the margin vanishes;
    `passed` additionally requires the smallest margin to land within
    gap_tol relatively.
    """
    opts = opts or SolverOptions()
    eps_list = [float(e) for e in shrink_list]
    if any(e < 0 for e in eps_list):
        raise ValueError("shrink margins must be nonnegative")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("shrink margins must be strictly decreasing")
    base_grid = build_grid(spec, n)
    base = nodal_ground_state(base_grid, params, opts).action_value
    levels = []
    for eps in eps_list:
        if eps == 0.0:
            levels.append(nodal_ground_state(base_grid, params, opts).action_value)
            continue
        bounds = tuple((lo + eps, hi - eps) for lo, hi in spec.bounds)
        if any(hi - lo <= 0 for lo, hi in bounds):
            raise ValueError(f"shrink margin {eps} eliminates the domain")
        shrunk = DomainSpec(spec.dimension, bounds)
        levels.append(
            nodal_ground_state(build_grid(shrunk, n), params, opts).action_value)
    gaps = [(lv - base) / base for lv in levels]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(levels, levels[1:]))
    final_gap = gaps[-1]
    passed = monotone and final_gap <= gap_tol and all(g >= -1e-9 for g in gaps)
    return ExhaustionReport(
        epsilons=eps_list, levels=levels, base_level=base, gaps=gaps,
        final_gap=final_gap, monotone=monotone, passed=passed)
