"""Action and energy functionals and the one ground-state driver.

The ground state at fixed frequency minimizes the homogeneous quotient
R(u) = (||grad u||^2 + lambda ||u||^2) / ||u||_p^2 over nonzero fields;
equivalently, the action constrained to its natural manifold.  A nodal
ground state minimizes it over the fields that are odd under a
reflection of the box (`nodal`), so one driver, `least_action_state`,
checks the frequency against the threshold, -lambda_1 or -lambda_2,
and solves both: a signed solve runs it from one start, the first sine
mode of the box (`spectral.sine_mode`), on the fields even about the
centre of the box (all fields where a solve does not fold, see
`linsolve.OperatorSolver`).  From each start it runs the normalized
fixed point

    solve (A + lambda I) v = |u|^(p-2) u,   u <- v / ||v||_p,

on the start's class of fields (`linsolve.OperatorSolver`), along which
R is provably nonincreasing but which converges only linearly.  At odd
n a class with a parity on every axis lives on its block (`grid.Block`),
half of an interval or a quarter of a rectangle, and a square's fields
odd under its transpose and its half-turn on their half-turn block of
rows 0..m: the fixed point, Newton, the rounding polish, the level and
every norm run on the block, and the state is mirrored onto the grid
once, when it is built (`finalize_state`); its field records the class,
which a warm start, a tangent and a mass slope take from it.  After
_COLD_STEPS steps Newton's method takes over from the iterate's exact
scalar normalization onto the constraint manifold (the linearized solve
of `linsolve`: tridiagonal in 1D, MINRES preconditioned by the fixed
point's shifted solve in 2D; the stencil keeps odd fields odd), and its
result is rescaled exactly onto the manifold, from where Newton goes on
once if that lifts its residual back above tol.  Each iterate's stencil
runs once: the Dirichlet energy of the rescale comes from Newton's last
residual, and the level's from the rescaled state's residual
(`linsolve.evaluate`).  A warm start is a
continuation step: Newton runs at once from the warm field's
normalization, typically the tangent predictor u + (lambda - lambda_0) u'
of a nearby state (`tangent_predictor`), and the starts run only if that
result is rejected.  A cold 1D solve on at least _NEST_FROM nodes first
solves each start on the grid of _COARSE_NODES nodes and finishes it by
Newton on the fine grid, or runs the fine fixed point if that fails
(`_nested`).  A state's iterations count the steps on both grids.  Every
Newton result is kept only if it meets tol,
stays nonnegative wherever its start is
positive and does not raise its start's ray action (the ground state
minimizes it); otherwise the fixed point resumes as it was.  On fine 1D
grids the storage rounding of the field bounds the attainable residual
and Newton stalls there, so in 1D a stall goes on to the rounding
polish: long-double Newton steps, each forming its residual in long
double and solving its correction once in double, and a min-plus
Viterbi pass that picks the rounding of every node.
When the fixed point stops above tol, a last Newton runs from its best
iterate, followed in 1D by the rounding polish whatever stopped it; a
start that still misses tol raises NoConvergence naming where the fixed
point, Newton and the polish stopped.  The same linearized solve of -u
gives the tangent u' of the branch: the exact slope of the mass,
`mass_slope`, and the continuation predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .errors import (InvalidSpec, LambdaBelowThreshold, NlsgroundError,
                     NoConvergence, NonpositiveQuotient, ZeroField)
from .grid import Block, Field, Grid, node_count, prolong, stencil
from .linsolve import (EVEN, evaluate, field_class, linearized_solve, newton,
                       residual, shifted_solver, solve_tridiagonal_longdouble)

# tolerated quotient increase per fixed-point step, relative to its scale
_DESCENT_SLACK = 1e-12
# fixed-point steps from a cold start before Newton is tried
_COLD_STEPS = 4
# a cold 1D solve on at least _NEST_FROM nodes starts from its state on
# the grid of _COARSE_NODES nodes (nested iteration)
_NEST_FROM = 8191
_COARSE_NODES = 1023
# relative preconditioned residual of the 2D tangent solve: tight for the
# exact mass slope, loose for the continuation predictor Newton corrects
_SLOPE_RTOL = 1e-12
_PREDICTOR_RTOL = 1e-4
# a frequency must clear an existence threshold -lambda_k by this fraction
# of lambda_k (the signed solver by lambda_1, the nodal one by lambda_2)
THRESHOLD_MARGIN = 1e-6


@dataclass(frozen=True)
class ActionParams:
    """Nonlinearity exponent p > 2 and frequency lambda."""

    p: float
    lam: float

    def __post_init__(self):
        if not (self.p > 2 and np.isfinite(self.p)):
            raise InvalidSpec(f"p must be finite and exceed 2, got {self.p}")
        if not np.isfinite(self.lam):
            raise InvalidSpec("lambda must be finite")


@dataclass
class SolverOptions:
    """Knobs shared by the ground-state solvers.

    tol is the absolute norm the PDE residual must reach and max_iter
    caps the fixed-point steps of each start; Newton steps come on top.
    No solver draws random numbers, so seed reaches nothing and no
    command-line flag sets it; it is kept only because the benchmark's
    workloads (perfbench/workloads.py) still pass it.
    """

    tol: float = 1e-8
    max_iter: int = 600
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise InvalidSpec(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidSpec(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class GroundState:
    """A converged minimizer with its invariant bookkeeping.

    For sign-changing states, part_masses/part_actions record the two
    sign parts.  multistart lists (label, action) for every converged
    start: each reflection whose state has two nodal domains ("midpoint"
    in 1D, "diagonal" and "midline" in 2D), or "warm".  iterations counts
    the solver's fixed-point steps plus its Newton steps, rejected ones
    included, over the warm attempt and every start that did not raise,
    on both grids where a start nests (`least_action_state`).
    """

    u: Field
    params: ActionParams
    action_value: float
    mass: float
    energy: float
    residual: float
    node_count: int
    iterations: int
    part_masses: tuple | None = None
    part_actions: tuple | None = None
    multistart: tuple | None = None

    def to_record(self) -> dict:
        spec = self.u.grid.spec
        rec = {
            "p": self.params.p,
            "lambda": self.params.lam,
            "action": self.action_value,
            "mass": self.mass,
            "energy": self.energy,
            "residual": self.residual,
            "node_count": self.node_count,
            "iterations": self.iterations,
            "domain": {"dimension": spec.dimension,
                       "bounds": [list(ax) for ax in spec.bounds]},
            "n": self.u.grid.n,
        }
        if self.part_masses is not None:
            rec["part_masses"] = list(self.part_masses)
            rec["part_actions"] = list(self.part_actions)
        if self.multistart is not None:
            rec["multistart"] = [[label, val] for label, val in self.multistart]
        return rec


def kappa(p: float) -> float:
    """The Nehari constant 1/2 - 1/p."""
    return 0.5 - 1.0 / p


def action(u: Field, params: ActionParams) -> float:
    """(1/2)||grad u||^2 + (lambda/2)||u||^2 - (1/p)||u||_p^p."""
    return _action(u.grid, u.values, params.p, params.lam)


def _action(space: Grid | Block, vals: np.ndarray, p: float, lam: float,
            grad: float | None = None, l2: float | None = None) -> float:
    """The action of vals, on the grid or the Block they live on.

    grad and l2 are space.grad_sq(vals) and space.l2_sq(vals) if known.
    """
    if grad is None:
        grad = space.grad_sq(vals)
    if l2 is None:
        l2 = space.l2_sq(vals)
    return 0.5 * grad + 0.5 * lam * l2 - space.lp_p(vals, p) / p


def energy(u: Field, p: float) -> float:
    """(1/2)||grad u||^2 - (1/p)||u||_p^p."""
    g = u.grid
    return 0.5 * g.grad_sq(u.values) - g.lp_p(u.values, p) / p


def pde_residual(u: Field, params: ActionParams) -> float:
    """Weighted L2 norm of A u + lambda u - |u|^(p-2) u."""
    return residual(u.grid, u.values, params.p, params.lam)[1]


def nehari_scale(u: Field, params: ActionParams) -> float:
    """The scaling placing u's ray on the constraint manifold."""
    return _ray(u.grid, u.values, params.p, params.lam)[0]


def nehari_project(u: Field, params: ActionParams) -> Field:
    """Scale u onto the manifold where Q(u) = ||u||_p^p."""
    return Field(u.grid, nehari_scale(u, params) * u.values)


def ray_action(u: Field, params: ActionParams) -> float:
    """Action of the projected field, kappa * R(u)^(p/(p-2)).

    Equals action(nehari_project(u)); cheaper and defined directly from
    the quotient, so it is usable inside optimization loops.
    """
    return _ray(u.grid, u.values, params.p, params.lam)[1]


def _ray(space: Grid | Block, vals: np.ndarray, p: float, lam: float,
         grad: float | None = None) -> tuple[float, float]:
    """(scaling onto the manifold, ray action) of the ray through vals.

    space is the grid, or the Block vals live on; grad is the Dirichlet
    energy space.grad_sq(vals) if already known.
    """
    lp = space.lp_p(vals, p)
    if lp == 0.0:
        raise ZeroField("cannot normalize the zero field")
    if grad is None:
        grad = space.grad_sq(vals)
    q = grad + lam * space.l2_sq(vals)
    if q <= 0.0:
        raise NonpositiveQuotient(f"quadratic form {q:.4g} <= 0 at lambda={lam}")
    return ((q / lp) ** (1.0 / (p - 2.0)),
            kappa(p) * (q / lp ** (2.0 / p)) ** (p / (p - 2.0)))


def threshold_floor(lam_k):
    """The frequency a solve must exceed, for eigenvalue(s) lam_k > 0."""
    return -lam_k + THRESHOLD_MARGIN * lam_k


def ground_state(grid: Grid, params: ActionParams,
                 opts: SolverOptions | None = None,
                 init_field: Field | None = None) -> GroundState:
    """Signed action ground state at fixed frequency.

    Requires lambda above threshold_floor(lambda_1).  `least_action_state`
    runs from one start, the first eigenmode on the fields even about the
    box centre, or |init_field| after a warm start from it (a zero
    init_field starts cold).  On a 1D grid of 8191 nodes or more a cold
    start nests: it is solved on the 1023-node grid first and finished
    by Newton, or else runs as on any grid (see the module docstring).
    The shifted operator is factored only when the fixed point runs or
    in 2D, where it preconditions Newton.  The state meets the manifold
    identity to machine precision and the PDE residual to opts.tol.
    """
    opts = opts or SolverOptions()
    warm = None
    if init_field is not None:
        if init_field.grid != grid:
            raise InvalidSpec("initial field lives on a different grid")
        vals = np.abs(init_field.values)
        if vals.max() > 0.0:
            # |f| is even along every axis where f is even or odd; a
            # named class (DIAGONAL, TRANSPOSE) gives no parity per axis
            cls = init_field.parity
            warm = Field.adopt(grid, vals, tuple(EVEN if s else 0 for s in cls)
                               if isinstance(cls, tuple) else None)
        del vals
    return least_action_state(grid, params, opts, warm, [(
        "signed", (EVEN,) * grid.dimension, _first_mode if warm is None
        else lambda g: warm.values)], 1)[0]


def _first_mode(grid: Grid) -> np.ndarray:
    """The first Dirichlet eigenvector of grid, flat, with unit L2 norm."""
    v = spectral.sine_mode(grid, *(1,) * grid.dimension)
    return v / np.sqrt(grid.l2_sq(v))


def least_action_state(grid: Grid, params: ActionParams, opts: SolverOptions,
                       warm: Field | None, starts: list,
                       domains: int) -> tuple[GroundState, tuple]:
    """The least-action state with `domains` nodal domains.

    Newton runs first from the field warm, if given, scaled onto the
    manifold, on the class it records, else the one its values are
    exactly in (`linsolve.field_class`).  If `_polish` rejects that
    result or it has other nodal domains, each start (label, class,
    mode) is popped from starts; mode(g) builds its field on a grid g
    of the box when it runs.  A cold 1D start may nest (`_nested`);
    otherwise its field on grid is projected onto the class (given as
    `linsolve.OperatorSolver` takes it), released once normalized, and
    runs `_fixed_point_newton` on that class.  A class that folds is
    solved on its block from the start to the state (`grid.Block`),
    mirrored onto the grid in `finalize_state`.  Returns
    the least-action state with `domains` nodal domains and the record
    ((label, action), ...) of every such state, or raises NoConvergence
    naming how every start stopped, or the overflow a huge exponent or
    frequency causes; LambdaBelowThreshold unless lambda is above
    threshold_floor(lambda_domains), the one such check of every solve.
    """
    floor = threshold_floor(
        (spectral.lambda1 if domains == 1 else spectral.lambda2)(grid))
    if params.lam <= floor:
        raise LambdaBelowThreshold(f"lambda={params.lam} at or below "
                                   f"-lambda_{domains} + margin = {floor:.6g}")
    try:
        with np.errstate(over="raise"):
            return _least_action_state(grid, params, opts, warm, starts,
                                       domains)
    except FloatingPointError as exc:
        raise NoConvergence(f"{exc} at p={params.p}, "
                            f"lambda={params.lam}") from None


def _least_action_state(grid: Grid, params: ActionParams, opts: SolverOptions,
                        warm: Field | None, starts: list,
                        domains: int) -> tuple[GroundState, tuple]:
    p, lam = params.p, params.lam
    iterations = 0
    if warm is not None:
        # Newton's iterates stay exactly in the warm field's class; a 2D
        # signed Newton is preconditioned by the shifted solve on it, a
        # nodal one by its own (`linsolve.newton`), and 1D Newton factors
        # nothing
        cls = field_class(warm)
        metric = (shifted_solver(grid, lam, cls)
                  if grid.dimension == 2 and domains == 1 else None)
        space = grid.block(cls)
        state, iterations = _newton_attempt(
            space, space.restrict(warm.values), params, opts.tol, metric,
            domains)
        if state is not None:
            return state, (("warm", state.action_value),)
    nests = warm is None and grid.dimension == 1 and grid.n >= _NEST_FROM
    best, record, stops = None, [], []
    while starts:
        label, parity, mode = start = starts.pop(0)
        state = None
        if nests:
            state, steps = _nested(grid, params, opts, start, domains)
            iterations += steps
        if state is None:
            try:
                solver = shifted_solver(grid, lam, parity)
                space = solver.space
                u = _unit(space, space.restrict(solver.project(mode(grid))),
                          p)
                vals, res, steps, grad = _fixed_point_newton(params, opts, u,
                                                             solver)
            except NoConvergence as exc:
                stops.append(f"{label}: {exc}")
                continue
            iterations += steps
            state = finalize_state(space, vals, params, res, iterations, grad)
            if state.node_count + 1 != domains:
                stops.append(f"{label}: {state.node_count + 1} nodal domains, "
                             f"residual {res:.3e}")
                continue
        record.append((label, state.action_value))
        if best is None or state.action_value < best.action_value:
            best = state
    if best is None:
        raise NoConvergence(f"no start reached {domains} nodal domain"
                            f"{'s' * (domains > 1)} ({'; '.join(stops)})")
    return replace(best, iterations=iterations), tuple(record)


def _newton_attempt(space: Grid | Block, vals: np.ndarray,
                    params: ActionParams, tol: float, metric,
                    domains: int) -> tuple[GroundState | None, int]:
    """Newton at once from vals, a warm start or a prolonged coarse state.

    vals live on space and are in its class; `_polish` runs, not as a
    final attempt, from their ray's point on the manifold, and metric
    preconditions it in 2D.  Returns (the state, or None if `_polish`
    rejects the result or it has other than `domains` nodal domains,
    Newton steps).
    """
    p, lam = params.p, params.lam
    u = _unit(space, vals, p)
    scale, j = _ray(space, u, p, lam)
    vals, res, kept, steps, _, grad = _polish(space, scale * u, p, lam, tol,
                                              metric, j, final=False)
    if kept:
        state = finalize_state(space, vals, params, res, steps, grad)
        if state.node_count + 1 == domains:
            return state, steps
    return None, steps


def _nested(grid: Grid, params: ActionParams, opts: SolverOptions,
            start: tuple, domains: int) -> tuple[GroundState | None, int]:
    """A cold 1D start solved on the coarse grid, finished on grid.

    The start runs through `least_action_state` on the grid of
    _COARSE_NODES nodes of grid's interval, and its state, prolonged
    onto the start's block of grid (`grid.prolong`), goes to
    `_newton_attempt`.  Returns (the state, or None if the coarse solve
    raised, also where the frequency is not above the coarse grid's
    threshold, or the attempt returned none, the steps on both grids).
    """
    try:
        seed = least_action_state(Grid(grid.spec, _COARSE_NODES), params,
                                  opts, None, [start], domains)[0]
    except NlsgroundError:
        return None, 0
    state, steps = _newton_attempt(grid.block(start[1]),
                                   prolong(seed.u, grid, start[1]), params,
                                   opts.tol, None, domains)
    return state, seed.iterations + steps


def _unit(space: Grid | Block, vals: np.ndarray, p: float) -> np.ndarray:
    """vals scaled to unit L^p norm; ZeroField if that norm underflows."""
    lp = space.lp_p(vals, p)
    if lp == 0.0:
        raise ZeroField("the start vector's L^p norm underflows to 0")
    return vals / lp ** (1.0 / p)


def _fixed_point_newton(params: ActionParams, opts: SolverOptions,
                        u: np.ndarray, solver) -> tuple[np.ndarray, float, int]:
    """The normalized fixed point from u, with Newton after _COLD_STEPS.

    u has unit L^p norm and solver is the OperatorSolver of A + lambda I
    on u's class of fields, which keeps every iterate in the class; u
    and every iterate live on the solver's space, the grid or a Block.
    Each Newton attempt is `_polish` from an iterate (see the module
    docstring).  Returns (values, residual, fixed-point plus Newton
    steps, the values' Dirichlet energy), or raises NoConvergence naming
    where the fixed point, Newton and the polish stopped.
    """
    p, lam = params.p, params.lam
    space = solver.space
    best_vals = None
    best_res = np.inf
    r_prev = np.inf
    iterations = newton_steps = 0
    stop = "max_iter"
    for iterations in range(1, opts.max_iter + 1):
        # the right-hand side |u|^(p-2) u lives only for the solve
        u_new = solver.solve(np.abs(u) ** (p - 2) * u)
        lp_v = space.lp_p(u_new, p)
        if lp_v == 0.0:
            raise NoConvergence("iterate collapsed to zero")
        u_new /= lp_v ** (1.0 / p)
        lp_u = space.lp_p(u_new, p)
        grad = space.grad_sq(u_new)
        l2 = space.l2_sq(u_new)
        q = grad + lam * l2
        if q <= 0.0:
            raise NoConvergence("quadratic form lost positivity")
        r_now = q / lp_u ** (2.0 / p)
        # near the threshold q is a cancellation of two O(lambda_1) terms,
        # so the quotient carries that conditioning in its last digits;
        # the slack is measured against the uncancelled scale
        r_scale = (grad + abs(lam) * l2) / lp_u ** (2.0 / p)
        if r_now > r_prev + _DESCENT_SLACK * r_scale:
            raise NoConvergence(
                f"quotient increased ({r_prev!r} -> {r_now!r}); "
                "fixed-point descent violated")
        moved = float(np.max(np.abs(u_new - u)))
        scale = float(np.max(np.abs(u_new)))
        u = u_new
        r_prev = r_now
        w_vals = (q / lp_u) ** (1.0 / (p - 2.0)) * u
        av = space.laplacian(w_vals)
        res = residual(space, w_vals, p, lam, av)[1]
        j_now = kappa(p) * r_now ** (p / (p - 2.0))
        if res < best_res:
            best_res, best_vals, best_j = res, w_vals, j_now
        if res <= opts.tol:
            return (w_vals, res, iterations + newton_steps,
                    space.grad_sq(w_vals, av))
        del av
        if moved <= 5e-14 * scale:
            stop = "stall"
            break
        if iterations == _COLD_STEPS:
            vals, res, kept, steps, _, grad = _polish(
                space, w_vals, p, lam, opts.tol, solver, j_now, final=False)
            newton_steps += steps
            if kept:
                return vals, res, iterations + newton_steps, grad
            del vals  # the fixed point resumes as it was

    if best_vals is None:
        raise NoConvergence("no iterate had a finite residual")
    vals, res, kept, steps, last, grad = _polish(
        space, best_vals, p, lam, opts.tol, solver, best_j, final=True)
    newton_steps += steps
    if not kept:
        why = (f"residual {res:.3e} above tol {opts.tol:.1e}"
               if res > opts.tol else
               f"Newton's state (residual {res:.3e}) has a node of the "
               "wrong sign or raises the action")
        raise NoConvergence(
            f"{why} after {iterations} fixed-point and {newton_steps} "
            f"Newton iterations; the fixed point stopped on {stop}, "
            f"then {last} (p={p}, lambda={lam}, n={solver.grid.n})")
    return vals, res, iterations + newton_steps, grad


def mass_slope(state: GroundState) -> float:
    """Exact derivative of the mass along the branch through state.

    The branch keeps the state's sign pattern (a nodal state's stays odd
    under its reflection), and the mass h^N <u, u> changes along it at
    the rate 2 h^N <u, u'> (see `_tangent`).  For a ground state the mass
    is twice the derivative of the level, so this is twice its second
    derivative.
    """
    space, u, du = _tangent(state, _SLOPE_RTOL)
    return 2.0 * space.weight * space.dot(u, du)


def tangent_predictor(state: GroundState, lam: float) -> Field:
    """Euler predictor u + (lam - lambda) u' of the branch through state.

    The start of a continuation step to frequency lam (Keller 1977;
    Allgower and Georg, Numerical Continuation Methods, 1990), which
    `ground_state` hands straight to Newton; the 2D tangent solve is
    loose, as Newton corrects the predictor anyway.
    """
    space, u, du = _tangent(state, _PREDICTOR_RTOL)
    du *= lam - state.params.lam
    du += u
    return space.field(du)


def _tangent(state: GroundState, rtol: float) -> tuple:
    """(space, u, u'): u' the derivative in lambda of the state u.

    Differentiating A u + lambda u = |u|^(p-2) u in lambda gives
    L u' = -u, with L the linearization Newton uses; rtol is the relative
    residual of the 2D MINRES solve (the 1D solve is direct), which is
    preconditioned on the state's class.  A state in a class that folds,
    which its field records (`linsolve.field_class`), is solved on its
    block, space (`grid.Block`); otherwise space is the grid.  The
    stencil maps fields odd under a reflection of the box to odd
    fields, so a nodal state's tangent is odd too.
    """
    grid = state.u.grid
    space = grid.block(field_class(state.u))
    u = space.restrict(state.u.values)
    p, lam = state.params.p, state.params.lam
    return space, u, linearized_solve(
        space, lam - (p - 1) * np.abs(u) ** (p - 2), -u, rtol)


def finalize_state(space: Grid | Block, vals: np.ndarray,
                   params: ActionParams, residual: float, iterations: int,
                   grad: float) -> GroundState:
    """Assemble a GroundState record from converged values.

    vals live on space, the grid or a Block, which mirrors them onto the
    grid for the state's field (recording a Block's class), and grad is
    their Dirichlet energy, from the stencil their residual applied.
    """
    field = space.field(vals)
    mass = space.l2_sq(vals)
    j = _action(space, vals, params.p, params.lam, grad, mass)
    return GroundState(
        u=field,
        params=params,
        action_value=j,
        mass=mass,
        energy=j - 0.5 * params.lam * mass,
        residual=residual,
        node_count=node_count(field),
        iterations=iterations,
    )


# -- residual polishing ------------------------------------------------


def _polish(space: Grid | Block, start: np.ndarray, p: float, lam: float,
            tol: float, solver, j_ref: float, final: bool):
    """Newton from start, on space, then the exact rescale onto the manifold.

    If Newton stopped on tol and the rescale lifts the residual back
    above it, Newton continues once from the rescaled state, which is
    rescaled again.  In 1D a result still above tol goes on to the
    extended-precision rounding polish if Newton stalled or, on the
    final attempt, whatever stopped it (see `linsolve.newton`).  One `_ray` of Newton's result,
    from the Dirichlet energy Newton's residual gave, yields both the
    rescale and the ray action; the rounding polish's field takes its
    own.  Returns (values, residual, kept, Newton steps, last stage, the
    values' Dirichlet energy, None if the rounding polish kept its
    input): kept says the result meets tol, is nonnegative wherever
    start is positive and has a ray action at most j_ref (1 + 1e-12),
    start's own; the last stage names Newton's stop reason and whether
    the rounding polish ran.
    """
    out, steps = start, 0
    for _ in range(2):
        out, res, more, reason, grad = newton(space, out, p, lam, tol, solver)
        steps += more
        scale, j = _ray(space, out, p, lam, grad)
        out = scale * out
        res, grad = evaluate(space, out, p, lam)[1:]
        if res <= tol or reason != "tol":
            break
    last = f"Newton on {reason}"
    if res > tol and space.dimension == 1 and (final or reason == "stall"):
        polished, res, grad = _rounding_polish(space, out, p, lam, res)
        if polished is not out:
            out, j = polished, _ray(space, polished, p, lam, grad)[1]
        last += " and the rounding polish"
    kept = (res <= tol and (out[start > 0.0] >= 0.0).all()
            and j <= j_ref * (1.0 + 1e-12))
    return out, res, kept, steps, last, grad


def _rounding_polish(space: Grid | Block, vals: np.ndarray, p: float,
                     lam: float, res: float) -> tuple[np.ndarray, float]:
    """Extended-precision Newton plus optimized storage rounding.

    On fine grids the attainable double-precision residual is limited by
    the rounding of the stored values themselves (noise amplified by
    1/h^2).  Three long-double Newton steps give a reference beyond
    double accuracy: each forms its residual in long double and solves
    its correction once in double (`solve_tridiagonal_longdouble`), so
    the steps are their own refinement.  A min-plus Viterbi pass then
    chooses, per node, between the two neighboring doubles so that the
    second difference of the rounding error -- hence the stored field's
    true residual -- is minimized.  vals live on space, the grid or a
    Block, whose last node both stages close as its stencil does: by a
    zero node, or by the mirror of an even centre, whose row the Newton
    steps halve as `linsolve.OperatorSolver` does.  The result is
    returned, with its Dirichlet energy, only if its residual is below
    res; otherwise vals, res and None are.
    """
    h2l = np.longdouble(space.h[0]) * np.longdouble(space.h[0])
    laml = np.longdouble(lam)
    uld = vals.astype(np.longdouble)
    off = np.full(vals.size - 1, -1.0 / h2l, dtype=np.longdouble)
    for _ in range(3):
        power = np.abs(uld) ** (p - 2)
        r = stencil(uld, (h2l,), space.mirror) + laml * uld - power * uld
        diag = 2.0 / h2l + laml - (p - 1) * power
        if space.mirror[0]:
            diag[-1] *= 0.5
            r[-1] *= 0.5
        uld = uld + solve_tridiagonal_longdouble(diag, off, -r)
    # each stage frees the long-double arrays it no longer needs before
    # the next, the Viterbi pass's tables and the candidate's residual
    del power, r, diag, off
    nearest = uld.astype(np.float64)
    below = np.where(nearest.astype(np.longdouble) <= uld,
                     nearest, np.nextafter(nearest, -np.inf))
    del nearest
    above = np.nextafter(below, np.inf)
    eps_lo = (below.astype(np.longdouble) - uld).astype(np.float64)
    eps_hi = (above.astype(np.longdouble) - uld).astype(np.float64)
    del uld
    choices = _viterbi_rounding(eps_lo, eps_hi, space.mirror[0])
    del eps_lo, eps_hi
    cand = np.where(choices == 0, below, above)
    del below, above, choices
    rn, grad = evaluate(space, cand, p, lam)[1:]
    if rn < res:
        return cand, rn, grad
    return vals, res, None


def _viterbi_rounding(eps_lo: np.ndarray, eps_hi: np.ndarray,
                      mirror: bool = False) -> np.ndarray:
    """Binary rounding choices minimizing sum of squared second differences.

    Node i with error e_i = eps_lo[i] or eps_hi[i] (choice 0 or 1) costs
    (2 e_i - e_{i-1} - e_{i+1})^2, zero padding at the walls; if mirror,
    the last node is an even field's centre, closed by e_n = e_{n-2},
    and costs half that, as it stands for one grid node and every other
    node for two.  A dynamic program over the choice pairs
    (c_{i-1}, c_i) finds the least total in min-plus arithmetic.  Its
    n - 2 steps run in blocks of about sqrt(n), side by side: a first
    sweep builds each block's 4 x 4 transfer, a short chain of those
    gives every block's starting costs, and a second sweep records each
    pair's best predecessor and the pair its block started from.  The
    backtrack then walks the blocks' starting pairs and every block's
    predecessors, again side by side.  Ties go to choice 0 and to the
    first least final pair.
    """
    n = eps_lo.size
    if n == 1:
        # one node between zero nodes costs (2 e_0)^2
        return (np.abs(eps_hi) < np.abs(eps_lo)).view(np.int8)
    e = np.stack((eps_lo, eps_hi))  # e[c, i]
    r = 2.0 * e[:, None, 0] - e[None, :, 1]
    # dp[a, b]: least cost of the nodes before i, choices a, b at i-1, i
    dp = r * r
    m = n - 2
    if m > 0:
        size = int(np.ceil(np.sqrt(m)))
        blocks = -(-m // size)
        # cost[a, b, c, j, k]: step t = j size + k, the cost of node t + 1
        # with choices a, b, c at nodes t, t+1, t+2; zero past the last step
        cost = np.zeros((2, 2, 2, blocks * size))
        np.square(2.0 * e[None, :, None, 1:-1] - e[:, None, None, :-2]
                  - e[None, None, :, 2:], out=cost[..., :m])
        cost = cost.reshape(2, 2, 2, blocks, size)
        # transfer[a, b, c, d, j]: from the pair (a, b) at the start of
        # block j to (c, d) at its end, for every block but the last
        eye = np.where(np.eye(4) > 0.0, 0.0, np.inf).reshape(2, 2, 2, 2, 1)
        transfer = np.broadcast_to(eye, (2, 2, 2, 2, blocks - 1))
        for k in range(size):
            c = cost[:, :, :, :-1, k]
            transfer = np.minimum(transfer[:, :, 0, :, None] + c[0],
                                  transfer[:, :, 1, :, None] + c[1])
        starts = np.empty((4, blocks))
        starts[:, 0] = dp.ravel()
        transfer = transfer.reshape(4, 4, blocks - 1)
        for j in range(blocks - 1):
            paths = starts[:, j, None] + transfer[:, :, j]
            starts[:, j + 1] = paths.min(axis=0)
        dp = starts.reshape(2, 2, blocks)
        # back[k, b, c, j]: the choice a before the pair (b, c) after step
        # k of block j; origin[b, c, j]: the pair that path left block j's
        # start from
        back = np.empty((size, 2, 2, blocks), dtype=bool)
        origin = np.broadcast_to(np.arange(4).reshape(2, 2, 1), (2, 2, blocks))
        last = m - 1 - (blocks - 1) * size  # the last block's last step
        for k in range(size):
            c0 = dp[0, :, None] + cost[0, :, :, :, k]
            c1 = dp[1, :, None] + cost[1, :, :, :, k]
            np.less(c1, c0, out=back[k])
            dp = np.minimum(c0, c1)
            origin = np.where(back[k], origin[1, :, None], origin[0, :, None])
            if k == last:
                final, final_origin = dp[..., -1], origin[..., -1]
        dp = final
    r = 2.0 * e[:, n - 1] - e[:, n - 2, None]
    if mirror:
        r -= e[:, n - 2, None]
    # the last pair (c_{n-2}, c_{n-1}) = (a, b) as 2a + b
    end = int(np.argmin(dp + (0.5 if mirror else 1.0) * (r * r)))
    choices = np.empty(n, dtype=np.int8)
    choices[-2:] = divmod(end, 2)
    if m > 0:
        # the pair each block ends with, from the last block backwards
        ends = [end] * blocks
        if blocks > 1:
            ends[-2] = int(final_origin.ravel()[end])
            origin = origin.reshape(4, blocks)
            for j in range(blocks - 2, 0, -1):
                ends[j - 1] = int(origin[ends[j], j])
        back = back.reshape(size, 4, blocks)
        rows = np.arange(blocks)
        pair = np.array(ends)
        pairs = np.empty((size, blocks), dtype=np.int8)
        for k in range(size - 1, -1, -1):
            if k == last:
                pair[-1] = end  # the last block's padding is skipped
            pair = 2 * back[k, pair, rows] + (pair >> 1)
            pairs[k] = pair
        choices[:m] = pairs.T.ravel()[:m] >> 1
    return choices
