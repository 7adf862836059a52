"""Frequency continuation: ground-state level curves and what they encode.

A sweep solves the signed or sign-changing problem along an ascending
frequency list with warm starts, recording the level, the mass and a
central-difference derivative.  A warm signed solve, in a sweep and in
the secant refinements built on warm solves, is an Euler-Newton
continuation step: Newton starts from the tangent predictor
u + (lambda - lambda_0) u' of the previous state (`tangent_predictor`).
The derivative carries the mass law (twice the derivative of the level
equals the ground-state mass wherever the level is differentiable), the
supremum of the mass along the curve is the finite mass threshold in the
critical and supercritical regimes, located as the zero of the exact
mass slope (`mass_slope`) by safeguarded secant steps, and the
large-frequency trend of level/frequency separates the three regimes.
Warm/cold disagreements are flagged rather than resolved: the level may
genuinely have countably many kinks where the minimizer jumps.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .action import (ActionParams, GroundState, SolverOptions, ground_state,
                     mass_slope, tangent_predictor)
from .errors import (InsufficientRange, InvalidSpec, NlsgroundError,
                     NoConvergence, NotCritical)
from .grid import DomainSpec, Grid
from .nodal import nodal_ground_state

# sweep: cold re-solve period, level gap it flags, failed share that aborts
_COLD_CHECK_EVERY = 10
_MISMATCH_RTOL = 1e-6
_MAX_FAILURE_FRACTION = 0.2
_PLATEAU_BAND = 0.1  # asymptotic_classify: exponents this close to 1 plateau
_FACTORY_N_CAP = 65535  # node cap of resolution_matched_factory
# estimate_mu_N: the scaling check's frequency and tolerance, and the node
# cap per axis by dimension
_SCALING_LAMBDA = 4.0
_SCALING_RTOL = 0.02
_MU_N_CAP = {1: 8191, 2: 301}
_EXHAUSTION_GAP_TOL = 1e-2  # exhaustion_test: relative gap of the last margin
_SECANT_STEPS = 80  # iterate cap of _secant_steps


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
        init = (tangent_predictor(warm_state, lam) if warm_state is not None
                else None)
        return ground_state(grid, params, opts, init_field=init)
    # a nodal step starts from the previous state itself: from the tangent
    # predictor, Newton's result was rejected on every warm step of a
    # 20-sample 2D sweep (n=31, p=3)
    init = warm_state.u if warm_state is not None else None
    return nodal_ground_state(grid, params, opts, init_field=init)


def threshold_eigenvalue(grid: Grid, kind: str) -> float:
    if kind == "signed":
        return spectral.lambda1(grid)
    if kind == "nodal":
        return spectral.lambda2(grid)
    raise ValueError(f"unknown kind {kind!r}")


def sweep(grid: Grid, p: float, lambdas, kind: str = "signed",
          opts: SolverOptions | None = None) -> LevelCurve:
    """Level curve along an ascending frequency list, warm-started.

    A signed sample starts Newton from the tangent predictor of the
    previous sample's state (see `_solve_one`); a nodal one hands that
    state itself to `nodal_ground_state` as its warm start.
    Every 10th sample (from the first) is re-solved from the default
    initialization; a relative disagreement in the level above 1e-6
    flags the sample as a possible branch/jump point and the lower level
    wins, while closer levels keep the warm state.  Failed samples are
    flagged and skipped; the sweep aborts only when more than a fifth of
    them fail, naming the first and the last failure.  The state of
    every usable sample is kept in `states`.
    """
    opts = opts or SolverOptions()
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("need a nonempty 1D frequency list")
    if not np.isfinite(lambdas).all():
        raise InvalidSpec("frequencies must be finite")
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
    failures, first = 0, None
    for i, lam in enumerate(lambdas):
        try:
            st = _solve_one(grid, p, lam, kind, opts, warm)
        except InvalidSpec:
            raise  # bad input fails every sample alike
        except NlsgroundError as exc:
            failures += 1
            first = first or exc
            flags[i] = f"failed:{type(exc).__name__}"
            warm = None
            if failures > _MAX_FAILURE_FRACTION * count:
                last = "" if exc is first else f"; last: {exc}"
                raise NoConvergence(
                    f"sweep aborted: {failures}/{i + 1} samples failed "
                    f"(first: {first}{last})") from exc
            continue
        if i % _COLD_CHECK_EVERY == 0 and warm is not None:
            try:
                cold = _solve_one(grid, p, lam, kind, opts, None)
            except NlsgroundError:
                cold = None
            if cold is not None:
                gap = abs(cold.action_value - st.action_value)
                if gap > _MISMATCH_RTOL * abs(st.action_value):
                    flags[i] = "jump?"
                    if cold.action_value < st.action_value:
                        st = cold
        J[i] = st.action_value
        mass[i] = st.mass
        states[i] = st
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
    # statistics.median: np.median imports numpy.ma on first use
    median = float(statistics.median(errs)) if errs else math.nan
    biggest = float(np.max(errs_for_max)) if errs_for_max else math.nan
    return DerivativeMassReport(median, biggest, per, excluded)


@dataclass
class MassThreshold:
    """Supremum of the ground-state mass along the curve.

    For subcritical exponents the threshold is infinite; `unbounded`
    marks that case and mu_p is +inf.  `attained` is "yes" above the
    critical exponent, "undetermined" at it.  `state` is the ground state
    of mass mu_p at argmax_lambda (None when unbounded).
    """

    mu_p: float
    argmax_lambda: float
    attained: str  # "yes" | "no" | "undetermined"
    unbounded: bool = False
    state: GroundState | None = field(default=None, repr=False)


def critical_exponent(dimension: int) -> float:
    return 2.0 + 4.0 / dimension


def mass_threshold(curve: LevelCurve, opts: SolverOptions | None = None,
                   refine_rtol: float = 1e-4) -> MassThreshold:
    """Mass threshold from the sampled curve, refined around the argmax.

    Twice the supremum of the level derivative equals the supremum of
    the sampled mass, so the refinement finds the zero of the exact mass
    slope (`mass_slope`) between the neighbours of the sampled argmax:
    secant steps on warm re-solves, starting from the slopes of the
    sweep's stored states, until a step moves the peak frequency by less
    than refine_rtol relative to the bracket's frequencies.  The mass is
    flat at its peak, so it has then settled far below refine_rtol.
    Without a sign change of the slope there the sampled maximum is kept.
    """
    p_c = critical_exponent(curve.grid.dimension)
    if curve.p < p_c:
        return MassThreshold(math.inf, math.nan, "no", unbounded=True)
    opts = opts or SolverOptions()
    ok = curve.ok_indices()
    if ok.size == 0:
        raise NoConvergence("no usable samples in the curve")
    j = int(np.argmax(curve.mass[ok]))
    best_lam, best = float(curve.lambdas[ok[j]]), curve.states[ok[j]]
    if 0 < j < ok.size - 1:
        lo, hi = ok[j - 1], ok[j + 1]
        slope_lo, slope_hi = mass_slope(curve.states[lo]), mass_slope(curve.states[hi])
        if slope_lo > 0.0 > slope_hi:
            warm = curve.states[ok[j]]

            def slope_at(lam: float):
                st = _solve_one(curve.grid, curve.p, lam, curve.kind, opts, warm)
                return mass_slope(st), st

            lam_lo, lam_hi = float(curve.lambdas[lo]), float(curve.lambdas[hi])
            scale = max(abs(lam_lo), abs(lam_hi))
            prev = best_lam
            for lam, st in _secant_steps(slope_at, lam_lo, slope_lo, lam_hi, slope_hi):
                warm = st
                if st.mass > best.mass:
                    best_lam, best = lam, st
                if abs(lam - prev) <= refine_rtol * scale:
                    break
                prev = lam
    attained = "yes" if curve.p > p_c else "undetermined"
    return MassThreshold(best.mass, best_lam, attained, state=best)


def _secant_steps(g, lo: float, g_lo: float, hi: float, g_hi: float):
    """Iterates of a safeguarded secant search for a root of g in [lo, hi].

    g_lo and g_hi must differ in sign; g(lam) returns (value, payload).
    Each step is a secant step through the last two iterates, or a
    bisection when that step leaves the bracket; every iterate replaces
    the bracket end whose value has its sign.  Yields (lam, payload) per
    iterate, at most _SECANT_STEPS.
    """
    lam_prev, g_prev = lo, g_lo
    lam_cur, g_cur = hi, g_hi
    for _ in range(_SECANT_STEPS):
        lam = 0.5 * (lo + hi)
        if g_cur != g_prev:
            secant = lam_cur - g_cur * (lam_cur - lam_prev) / (g_cur - g_prev)
            if lo < secant < hi:
                lam = secant
        value, payload = g(lam)
        yield lam, payload
        if (g_lo < 0) == (value < 0):
            lo, g_lo = lam, value
        else:
            hi, g_hi = lam, value
        lam_prev, g_prev = lam_cur, g_cur
        lam_cur, g_cur = lam, value


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
                        opts: SolverOptions | None = None) -> AsymptoticReport:
    """Classify the large-frequency trend of level/frequency.

    grid_factory maps a frequency to the Grid used at that frequency
    (meshes must refine with the frequency to resolve the concentration
    width ~ lambda^(-1/2)).  The frequency list must span at least two
    decades.  The level is fit as a power of the frequency over the top
    half of the range: exponent at or above 1.1 diverges, at or below
    0.9 vanishes, else plateau.
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
    if gamma >= 1.0 + _PLATEAU_BAND:
        classification = "diverges"
    elif gamma <= 1.0 - _PLATEAU_BAND:
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
                               lam_base: float = 1.0):
    """Grid factory with node count growing like sqrt(frequency).

    Node counts are rounded up to odd so 1D nodal states keep a zero node
    at the midpoint, and capped at 65535.
    """
    def factory(lam: float) -> Grid:
        n = int(math.ceil(n_base * math.sqrt(max(lam, lam_base) / lam_base)))
        n = min(n | 1, _FACTORY_N_CAP)
        return Grid(spec, n)
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


def estimate_mu_N(N: int, L_list, opts: SolverOptions | None = None,
                  resolution: float | None = None) -> MuNReport:
    """Estimate the critical mass constant by exhausting boxes.

    Solves the signed problem at unit frequency and the mass-critical
    exponent 2 + 4/N on centered boxes of growing side L; twice the
    level decreases with L toward the whole-space value.  The last
    increment is the error bar.  Raises NotCritical for a dimension
    other than 1 or 2 and NoConvergence when the box sequence has not
    settled (increments not shrinking).

    resolution is the target spacing (defaults to 0.01 in 1D, 0.06 in
    2D, where node counts are per axis and grow quadratically in cost);
    node counts are capped at 8191 in 1D and 301 in 2D.  scaling_ok
    compares the level ratio between frequencies 4 and 1 on the largest
    box with the critical scaling to 2%.
    """
    if N not in (1, 2):
        raise NotCritical(f"dimension must be 1 or 2, got {N}")
    p = critical_exponent(N)
    opts = opts or SolverOptions()
    if resolution is None:
        resolution = 0.01 if N == 1 else 0.06
    lengths = [float(L) for L in L_list]
    for L in lengths:
        if not (np.isfinite(L) and L > 0):
            raise InvalidSpec(f"box size must be finite and positive, got {L}")
    if len(lengths) < 2 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("need at least two strictly increasing box sizes")

    values = []
    for L in lengths:
        # capped before rounding: L / resolution may overflow to inf
        n = int(math.ceil(min(L / resolution, _MU_N_CAP[N] + 1)) - 1) | 1
        if N == 1:
            spec = DomainSpec.interval(-L / 2.0, L / 2.0)
        else:
            spec = DomainSpec.rectangle(-L / 2.0, L / 2.0, -L / 2.0, L / 2.0)
        grid = Grid(spec, n)
        st1 = ground_state(grid, ActionParams(p, 1.0), opts)
        values.append(2.0 * st1.action_value)
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    decreasing = all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))
    settled = increments[-1] <= 0.02 * values[-1] and (
        len(increments) < 2 or increments[-1] <= increments[-2])
    if not (decreasing and settled):
        raise NoConvergence(
            f"box sequence has not converged: values {values}, "
            f"increments {increments} (boxes too small for the bound state)")

    # grid and st1 are the largest box's, at unit frequency
    st2 = ground_state(grid, ActionParams(p, _SCALING_LAMBDA), opts)
    exponent = (2.0 * N - p * (N - 2.0)) / (2.0 * (p - 2.0))
    expected = _SCALING_LAMBDA ** exponent
    ratio = st2.action_value / st1.action_value
    return MuNReport(
        value=values[-1],
        error_bar=increments[-1],
        box_lengths=lengths,
        box_values=values,
        scaling_ratio=float(ratio),
        scaling_expected=float(expected),
        scaling_ok=bool(abs(ratio / expected - 1.0) <= _SCALING_RTOL),
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
                    n: int, opts: SolverOptions | None = None) -> ExhaustionReport:
    """Shrink the domain by each margin and track the nodal level.

    Levels on shrunken domains lie above the base level (smaller domain,
    larger infimum) and must decrease toward it as the margin vanishes;
    `passed` additionally requires the smallest margin to land within 1%
    of the base level.
    """
    opts = opts or SolverOptions()
    eps_list = [float(e) for e in shrink_list]
    if any(e < 0 for e in eps_list):
        raise ValueError("shrink margins must be nonnegative")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("shrink margins must be strictly decreasing")
    base = nodal_ground_state(Grid(spec, n), params, opts).action_value
    levels = []
    for eps in eps_list:
        if eps == 0.0:
            levels.append(base)
            continue
        bounds = tuple((lo + eps, hi - eps) for lo, hi in spec.bounds)
        if any(hi - lo <= 0 for lo, hi in bounds):
            raise ValueError(f"shrink margin {eps} eliminates the domain")
        shrunk = DomainSpec(spec.dimension, bounds)
        levels.append(
            nodal_ground_state(Grid(shrunk, n), params, opts).action_value)
    gaps = [(lv - base) / base for lv in levels]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(levels, levels[1:]))
    final_gap = gaps[-1]
    passed = monotone and final_gap <= _EXHAUSTION_GAP_TOL and all(g >= -1e-9 for g in gaps)
    return ExhaustionReport(
        epsilons=eps_list, levels=levels, base_level=base, gaps=gaps,
        final_gap=final_gap, monotone=monotone, passed=passed)
