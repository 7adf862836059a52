"""Action and energy functionals and the signed ground-state solver.

The ground state at fixed frequency minimizes the homogeneous quotient
R(u) = (||grad u||^2 + lambda ||u||^2) / ||u||_p^2 over nonzero fields;
equivalently, the action constrained to its natural manifold.  From a
cold start the solver begins with the normalized fixed-point iteration

    solve (A + lambda I) v = |u|^(p-2) u,   u <- v / ||v||_p,

along which R is provably nonincreasing but which converges only
linearly.  After _COLD_STEPS steps Newton's method takes over from the
iterate's exact scalar normalization onto the constraint manifold (the
linearized solve of `linsolve`, tridiagonal in 1D and MINRES
preconditioned by the fixed point's own shifted solve in 2D), and its
result is rescaled exactly onto the manifold.  A warm start is a
continuation step: Newton runs at once from the init's normalization,
typically the tangent predictor u + (lambda - lambda_0) u' of a nearby
state (`tangent_predictor`), and the fixed point runs only if that
result is rejected.  On fine 1D grids the storage rounding of the field
itself dominates the attainable residual, and Newton stalls there; a
stalled Newton above tol goes straight on to the rounding polish:
long-double Newton steps, each a mixed-precision refined solve, and a
min-plus Viterbi pass that picks the rounding of every node.  A result
is kept only if it is one-signed, meets tol and does not raise the ray
action of the point Newton started from (the ground state minimizes
it); otherwise the fixed point resumes as it was.  When the fixed point
stops above tol, the same Newton stage runs from its best iterate and,
in 1D, the rounding polish follows whatever stopped Newton.  A
NoConvergence names where the fixed point, Newton and the polish
stopped.  The same linearized solve of -u gives the tangent u' of the
branch of states: the exact slope of the mass, `mass_slope`, and the
continuation predictor.  The nodal solver runs the same fixed point
and Newton on the fields that are odd under a reflection of the box,
where one-signed means one-signed on each side of the reflection's
fixed line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import (InvalidSpec, LambdaBelowThreshold, NoConvergence,
                     NonpositiveQuotient, ZeroField)
from .grid import Field, Grid, dot, node_count
from .linsolve import (_FrozenPartition, newton, shifted_solver,
                       solve_tridiagonal_longdouble)

_P_CAP_2D = 10.0  # avoid overflow in |u|^(p-2) on planar domains
# tolerated quotient increase per fixed-point step, relative to its scale
_DESCENT_SLACK = 1e-12
# fixed-point steps from a cold start before Newton is tried
_COLD_STEPS = 4
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
    caps the iterations of one solve.  No solver draws random numbers,
    so seed reaches nothing; it is kept because the benchmark's workloads
    (perfbench/workloads.py) still pass it.
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
    included, for a nodal state over every start.
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
    g = u.grid
    return (0.5 * g.grad_sq(u.values)
            + 0.5 * params.lam * g.l2_sq(u.values)
            - g.lp_p(u.values, params.p) / params.p)


def energy(u: Field, p: float) -> float:
    """(1/2)||grad u||^2 - (1/p)||u||_p^p."""
    g = u.grid
    return 0.5 * g.grad_sq(u.values) - g.lp_p(u.values, p) / p


def pde_residual(u: Field, params: ActionParams) -> float:
    """Weighted L2 norm of A u + lambda u - |u|^(p-2) u."""
    return _res_norm(u.grid, u.values, params.p, params.lam)


def nehari_scale(u: Field, params: ActionParams) -> float:
    """The scaling placing u's ray on the constraint manifold."""
    g = u.grid
    lp = g.lp_p(u.values, params.p)
    if lp == 0.0:
        raise ZeroField("cannot normalize the zero field")
    q = g.grad_sq(u.values) + params.lam * g.l2_sq(u.values)
    if q <= 0.0:
        raise NonpositiveQuotient(
            f"quadratic form {q:.4g} <= 0 at lambda={params.lam}")
    return (q / lp) ** (1.0 / (params.p - 2.0))


def nehari_project(u: Field, params: ActionParams) -> Field:
    """Scale u onto the manifold where Q(u) = ||u||_p^p."""
    return Field(u.grid, nehari_scale(u, params) * u.values)


def ray_action(u: Field, params: ActionParams) -> float:
    """Action of the projected field, kappa * R(u)^(p/(p-2)).

    Equals action(nehari_project(u)); cheaper and defined directly from
    the quotient, so it is usable inside optimization loops.
    """
    g = u.grid
    return _ray_action_vals(g, u.values, params.p, params.lam)


def _ray_action_vals(grid: Grid, vals: np.ndarray, p: float, lam: float) -> float:
    lp = grid.lp_p(vals, p)
    if lp == 0.0:
        raise ZeroField("cannot project the zero field")
    q = grid.grad_sq(vals) + lam * grid.l2_sq(vals)
    if q <= 0.0:
        raise NonpositiveQuotient(f"quadratic form {q:.4g} <= 0")
    quotient = q / lp ** (2.0 / p)
    return kappa(p) * quotient ** (p / (p - 2.0))


def threshold_floor(lam_k):
    """The frequency a solve must exceed, for eigenvalue(s) lam_k > 0."""
    return -lam_k + THRESHOLD_MARGIN * lam_k


def ground_state(grid: Grid, params: ActionParams,
                 opts: SolverOptions | None = None,
                 init_field: Field | None = None) -> GroundState:
    """Signed action ground state at fixed frequency.

    Requires lambda above threshold_floor(lambda_1).  With init_field
    (a warm start) Newton runs at once from |init_field| scaled onto the
    manifold; without it, or if that result is rejected, at most
    _COLD_STEPS fixed-point steps run from the first eigenmode (or from
    |init_field|), then Newton from the normalized iterate (in 1D, and
    if it stalls above tol, the rounding polish); the fixed point
    resumes only if that result is rejected (see the module docstring).
    The shifted operator is factored only when the fixed point runs or
    in 2D, where it preconditions Newton.  The returned state satisfies
    the manifold identity to machine precision and the PDE residual to
    opts.tol; NoConvergence is raised if the residual cannot reach tol
    (on fine grids with default tol this can only happen when the
    rounding floor of stored doubles exceeds tol).
    """
    opts = opts or SolverOptions()
    p, lam = params.p, params.lam
    if grid.dimension == 2 and p > _P_CAP_2D:
        raise InvalidSpec(f"p={p} above the practical 2D cap {_P_CAP_2D}")
    floor = threshold_floor(spectral.lambda1(grid))
    if lam <= floor:
        raise LambdaBelowThreshold(
            f"lambda={lam} at or below -lambda_1 + margin = {floor:.6g}")

    u, warm = _initial_vector(grid, init_field)
    lp = grid.lp_p(u, p)
    if lp == 0.0:
        raise ZeroField("the start vector's L^p norm underflows to 0")
    u = u / lp ** (1.0 / p)

    # 1D Newton factors nothing, 2D Newton preconditions with the fixed
    # point's solve
    one_d = grid.dimension == 1
    solver = None if one_d else shifted_solver(grid, lam)
    newton_steps = 0
    if warm:
        # a continuation step: Newton at once from the Nehari-scaled init
        vals, res, kept, newton_steps, _ = _polish(
            grid, nehari_scale(Field(grid, u), params) * u, p, lam, opts.tol,
            solver, _ray_action_vals(grid, u, p, lam),
            rounding="stall" if one_d else None)
        if kept:
            return finalize_state(grid, vals, params, res, newton_steps)
        del vals  # the fixed point starts from the init as a cold one would
    vals, res, iterations = _fixed_point_newton(grid, params, opts, u, solver,
                                                newton_steps)
    return finalize_state(grid, vals, params, res, iterations)


def _fixed_point_newton(grid: Grid, params: ActionParams, opts: SolverOptions,
                        u: np.ndarray, solver, newton_steps: int = 0,
                        half=slice(None)) -> tuple[np.ndarray, float, int]:
    """The normalized fixed point from u, with Newton after _COLD_STEPS.

    u has unit L^p norm.  solver is the OperatorSolver of A + lambda I,
    or None to factor it here; one restricted to a reflection's odd
    fields keeps every iterate odd.  A Newton result is kept only if it
    is nonnegative on the nodes half selects (every node for a signed
    state), meets tol and does not raise the ray action (see the module
    docstring).  newton_steps counts steps taken before the call.
    Returns (values, residual, fixed-point plus Newton steps), or raises
    NoConvergence naming where the fixed point, Newton and the polish
    stopped.
    """
    p, lam = params.p, params.lam
    # in 1D a Newton stall above tol is the rounding floor of stored
    # doubles, which only the rounding polish gets below
    one_d = grid.dimension == 1
    if solver is None:
        solver = shifted_solver(grid, lam)
    best_vals = None
    best_res = np.inf
    r_prev = np.inf
    iterations = 0
    stop = "max_iter"
    for iterations in range(1, opts.max_iter + 1):
        # the right-hand side |u|^(p-2) u lives only for the solve
        u_new = solver.solve(np.abs(u) ** (p - 2) * u)
        lp_v = grid.lp_p(u_new, p)
        if lp_v == 0.0:
            raise NoConvergence("iterate collapsed to zero")
        u_new /= lp_v ** (1.0 / p)
        lp_u = grid.lp_p(u_new, p)
        grad = grid.grad_sq(u_new)
        l2 = grid.l2_sq(u_new)
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
        res = _res_norm(grid, w_vals, p, lam)
        j_now = kappa(p) * r_now ** (p / (p - 2.0))
        if res < best_res:
            best_res, best_vals, best_j = res, w_vals, j_now
        if res <= opts.tol or moved <= 5e-14 * scale:
            stop = "tol" if res <= opts.tol else "stall"
            break
        if iterations == _COLD_STEPS:
            vals, res, kept, steps, _ = _polish(
                grid, w_vals, p, lam, opts.tol, solver, j_now,
                rounding="stall" if one_d else None, half=half)
            newton_steps += steps
            if kept:
                best_vals, best_res = vals, res
                break
            del vals  # the fixed point resumes as it was

    if best_vals is None:
        raise NoConvergence("no iterate had a finite residual")
    if best_res > opts.tol:
        vals, res, kept, steps, last = _polish(
            grid, best_vals, p, lam, opts.tol, solver, best_j,
            rounding="any" if one_d else None, half=half)
        newton_steps += steps
        if not kept:
            why = (f"residual {res:.3e} above tol {opts.tol:.1e}"
                   if res > opts.tol else
                   f"Newton's state (residual {res:.3e}) has a node of the "
                   "wrong sign or raises the action")
            raise NoConvergence(
                f"{why} after {iterations} fixed-point and {newton_steps} "
                f"Newton iterations; the fixed point stopped on {stop}, "
                f"then {last} (p={p}, lambda={lam}, n={grid.n})")
        best_vals, best_res = vals, res

    return best_vals, best_res, iterations + newton_steps


def mass_slope(state: GroundState) -> float:
    """Exact derivative of the mass along the branch through state.

    The branch keeps the state's sign pattern, and the mass h^N <u, u>
    changes along it at the rate 2 h^N <u, u'> (see `_tangent`).  For a
    ground state the mass is twice the derivative of the level, so this
    is twice its second derivative.
    """
    u = state.u.values
    return 2.0 * state.u.grid.weight * dot(u, _tangent(state, _SLOPE_RTOL))


def tangent_predictor(state: GroundState, lam: float) -> Field:
    """Euler predictor u + (lam - lambda) u' of the branch through state.

    The start of a continuation step to frequency lam (Keller 1977;
    Allgower and Georg, Numerical Continuation Methods, 1990), which
    `ground_state` hands straight to Newton; the 2D tangent solve is
    loose, as Newton corrects the predictor anyway.
    """
    du = _tangent(state, _PREDICTOR_RTOL)
    du *= lam - state.params.lam
    du += state.u.values
    return Field(state.u.grid, du)


def _tangent(state: GroundState, rtol: float) -> np.ndarray:
    """u', the derivative in lambda of the state along its branch.

    Differentiating the branch's system (zero nodes pinned) in lambda gives
    L u' = -u, with L the linearization Newton uses; rtol is the relative
    residual of the 2D MINRES solve (the 1D solve is direct).
    """
    grid, u = state.u.grid, state.u.values
    p, lam = state.params.p, state.params.lam
    return _FrozenPartition(grid, np.sign(u)).solve(
        lam - (p - 1) * np.abs(u) ** (p - 2), -u, rtol)


def finalize_state(grid: Grid, vals: np.ndarray, params: ActionParams,
                   residual: float, iterations: int, **extra) -> GroundState:
    """Assemble a GroundState record from converged values."""
    field = Field(grid, vals)
    mass = grid.l2_sq(vals)
    j = action(field, params)
    return GroundState(
        u=field,
        params=params,
        action_value=j,
        mass=mass,
        energy=j - 0.5 * params.lam * mass,
        residual=residual,
        node_count=node_count(field),
        iterations=iterations,
        **extra,
    )


def _res_norm(grid: Grid, vals: np.ndarray, p: float, lam: float) -> float:
    r = grid.laplacian(vals) + lam * vals - np.abs(vals) ** (p - 2) * vals
    return float(np.sqrt(grid.weight * dot(r, r)))


def _initial_vector(grid: Grid,
                    init_field: Field | None) -> tuple[np.ndarray, bool]:
    """|init_field| and True, or the first eigenmode and False."""
    if init_field is not None:
        if init_field.grid != grid:
            raise InvalidSpec("initial field lives on a different grid")
        vals = np.abs(init_field.values)
        if np.max(vals) > 0.0:
            return vals, True
    pair = spectral.dirichlet_eigenpairs(grid, 1)[0]
    return pair.vector.values.copy(), False


# -- residual polishing ------------------------------------------------


def _polish(grid: Grid, vals: np.ndarray, p: float, lam: float, tol: float,
            solver, j_ref: float, rounding: str | None, half=slice(None)):
    """Newton from vals, then the exact rescale onto the manifold.

    A result still above tol goes on to the extended-precision rounding
    polish when rounding is "any", or names Newton's stop reason (see
    `linsolve.newton`).  Returns (values, residual, kept, Newton steps,
    last stage): kept says the result is nonnegative on half, meets tol
    and has a ray action at most j_ref (1 + 1e-12); the last stage names
    Newton's stop reason and whether the rounding polish ran.
    """
    out, res, steps, reason = newton(grid, vals, p, lam, tol, solver)
    last = f"Newton on {reason}"
    lp = grid.lp_p(out, p)
    q = grid.grad_sq(out) + lam * grid.l2_sq(out)
    out = (q / lp) ** (1.0 / (p - 2.0)) * out
    res = _res_norm(grid, out, p, lam)
    if res > tol and rounding in ("any", reason):
        out, res = _rounding_polish(grid, out, p, lam, res)
        last += " and the rounding polish"
    kept = (res <= tol and np.min(out[half]) >= 0.0
            and _ray_action_vals(grid, out, p, lam) <= j_ref * (1.0 + 1e-12))
    return out, res, kept, steps, last


def _rounding_polish(grid: Grid, vals: np.ndarray, p: float, lam: float,
                     res: float) -> tuple[np.ndarray, float]:
    """Extended-precision Newton plus optimized storage rounding.

    On fine grids the attainable double-precision residual is limited by
    the rounding of the stored values themselves (noise amplified by
    1/h^2).  Three long-double Newton steps, each solved by mixed-
    precision refinement (`solve_tridiagonal_longdouble`), give a
    reference beyond double accuracy; a min-plus Viterbi pass then
    chooses, per node, between the two neighboring doubles so that the
    second difference of the rounding error -- hence the stored field's
    true residual -- is minimized.  The result is returned only if its
    residual is below res; otherwise vals and res are.
    """
    n = grid.n
    h2l = np.longdouble(grid.h[0]) * np.longdouble(grid.h[0])
    laml = np.longdouble(lam)
    uld = vals.astype(np.longdouble)
    off = np.full(n - 1, -1.0 / h2l, dtype=np.longdouble)
    for _ in range(3):
        power = np.abs(uld) ** (p - 2)
        r = grid._lap_axis(uld, h2l) + laml * uld - power * uld
        diag = 2.0 / h2l + laml - (p - 1) * power
        uld = uld + solve_tridiagonal_longdouble(diag, off, -r)
    nearest = uld.astype(np.float64)
    below = np.where(nearest.astype(np.longdouble) <= uld,
                     nearest, np.nextafter(nearest, -np.inf))
    above = np.nextafter(below, np.inf)
    eps_lo = (below.astype(np.longdouble) - uld).astype(np.float64)
    eps_hi = (above.astype(np.longdouble) - uld).astype(np.float64)
    choices = _viterbi_rounding(eps_lo, eps_hi)
    cand = np.where(choices == 0, below, above)
    rn = _res_norm(grid, cand, p, lam)
    if rn < res:
        return cand, rn
    return vals, res


def _viterbi_rounding(eps_lo: np.ndarray, eps_hi: np.ndarray) -> np.ndarray:
    """Binary rounding choices minimizing sum of squared second differences.

    Node i with error e_i = eps_lo[i] or eps_hi[i] (choice 0 or 1) costs
    (2 e_i - e_{i-1} - e_{i+1})^2, zero padding at the walls, so a dynamic
    program over the choice pairs (c_{i-1}, c_i) finds the least total in
    min-plus arithmetic.  Its n - 2 steps run in blocks of about sqrt(n),
    side by side: a first sweep builds each block's 4 x 4 transfer, a
    short chain of those gives every block's starting costs, and a second
    sweep records each pair's best predecessor and the pair its block
    started from.  The backtrack then walks the blocks' starting pairs and
    every block's predecessors, again side by side.  Ties go to choice 0
    and to the first least final pair.  Needs n >= 2.
    """
    n = eps_lo.size
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
    # the last pair (c_{n-2}, c_{n-1}) = (a, b) as 2a + b
    end = int(np.argmin(dp + r * r))
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
