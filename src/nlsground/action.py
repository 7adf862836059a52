"""Action and energy functionals and the signed ground-state solver.

The ground state at fixed frequency minimizes the homogeneous quotient
R(u) = (||grad u||^2 + lambda ||u||^2) / ||u||_p^2 over nonzero fields;
equivalently, the action constrained to its natural manifold.  The solver
starts with the normalized fixed-point iteration

    solve (A + lambda I) v = |u|^(p-2) u,   u <- v / ||v||_p,

along which R is provably nonincreasing but which converges only
linearly.  After _COLD_STEPS steps Newton's method takes over from the
iterate's exact scalar normalization onto the constraint manifold (the
linearized solve of `linsolve`, banded in 1D and MINRES preconditioned
by the fixed point's own shifted solve in 2D), and its result is
rescaled exactly onto the manifold.  It is kept only if it is
one-signed, meets tol and does not raise the action; otherwise the
fixed point resumes as it was.  When the fixed point stops above tol,
the same Newton stage runs from its best iterate and, in 1D, an
extended-precision polish with an optimized final rounding follows: on
fine grids the storage rounding of the field itself dominates the
attainable residual.  The same linearized solve gives the exact slope of
the mass along the branch of states, `mass_slope`.
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
# relative preconditioned residual of the 2D tangent solve in mass_slope
_SLOPE_RTOL = 1e-12
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
    caps the iterations of one solve.  seed reaches only the "random"
    start of the 2D nodal descent.
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
    sign parts and interface_index the zero node (1-based, 1D only).
    multistart lists (label, action) for every converged start: in 1D the
    one interface walk ("midpoint", or "hint" when warm), in 2D each
    descent start.  iterations counts the solver's steps: for a signed
    state its fixed-point steps plus its Newton steps, rejected ones
    included; for a nodal state the descent and Newton steps of every
    start in 2D, and the interface positions evaluated in 1D.
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
    interface_index: int | None = None
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

    Requires lambda above threshold_floor(lambda_1).  Runs at most
    _COLD_STEPS fixed-point steps from the first eigenmode (or from
    |init_field|), then Newton from the normalized iterate; the fixed
    point resumes only if Newton's result is rejected (see the module
    docstring).  The returned state satisfies the manifold identity to
    machine precision and the PDE residual to opts.tol; NoConvergence is
    raised if the residual cannot reach tol (on fine grids with default
    tol this can only happen when the rounding floor of stored doubles
    exceeds tol).
    """
    opts = opts or SolverOptions()
    p, lam = params.p, params.lam
    if grid.dimension == 2 and p > _P_CAP_2D:
        raise InvalidSpec(f"p={p} above the practical 2D cap {_P_CAP_2D}")
    floor = threshold_floor(spectral.lambda1(grid))
    if lam <= floor:
        raise LambdaBelowThreshold(
            f"lambda={lam} at or below -lambda_1 + margin = {floor:.6g}")

    solver = shifted_solver(grid, lam)
    u = _initial_vector(grid, init_field)
    u = u / grid.lp_p(u, p) ** (1.0 / p)

    best_vals = None
    best_res = np.inf
    r_prev = np.inf
    iterations = newton_steps = 0
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
            break
        if iterations == _COLD_STEPS:
            vals, res, kept, steps = _polish(grid, w_vals, p, lam, opts.tol,
                                             solver, j_now)
            newton_steps += steps
            if kept:
                best_vals, best_res = vals, res
                break
            del vals  # the fixed point resumes as it was

    if best_vals is None:
        raise NoConvergence("no iterate had a finite residual")
    if best_res > opts.tol:
        vals, res, kept, steps = _polish(grid, best_vals, p, lam, opts.tol,
                                         solver, best_j,
                                         rounding=grid.dimension == 1)
        newton_steps += steps
        if not kept:
            why = (f"residual {res:.3e} above tol {opts.tol:.1e}"
                   if res > opts.tol else
                   f"Newton's state (residual {res:.3e}) is not one-signed "
                   "or raises the action")
            raise NoConvergence(
                f"{why} after {iterations} fixed-point and {newton_steps} "
                f"Newton iterations (p={p}, lambda={lam}, n={grid.n})")
        best_vals, best_res = vals, res

    return finalize_state(grid, best_vals, params, best_res,
                          iterations + newton_steps)


def mass_slope(state: GroundState) -> float:
    """Exact derivative of the mass along the branch through state.

    The branch keeps the state's sign pattern.  Differentiating its
    partwise system in lambda gives L u' = -u, with L the linearization
    Newton uses, and the mass h^N <u, u> changes at the rate
    2 h^N <u, u'>.  For a ground state the mass is twice the derivative
    of the level, so this is twice its second derivative.
    """
    grid, u = state.u.grid, state.u.values
    p, lam = state.params.p, state.params.lam
    du = _FrozenPartition(grid, np.sign(u)).solve(
        lam - (p - 1) * np.abs(u) ** (p - 2), -u, _SLOPE_RTOL)
    return 2.0 * grid.weight * dot(u, du)


def finalize_state(grid: Grid, vals: np.ndarray, params: ActionParams,
                   residual: float, iterations: int,
                   action_override: float | None = None,
                   **extra) -> GroundState:
    """Assemble a GroundState record from converged values.

    action_override carries the partwise value for sign-changing fields
    whose supports touch on the lattice: there the raw functional picks
    up spurious interface coupling that the partwise problem excludes.
    """
    field = Field(grid, vals)
    mass = grid.l2_sq(vals)
    j = action(field, params) if action_override is None else action_override
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


def _initial_vector(grid: Grid, init_field: Field | None) -> np.ndarray:
    if init_field is not None:
        if init_field.grid != grid:
            raise InvalidSpec("initial field lives on a different grid")
        vals = np.abs(init_field.values)
        if np.max(vals) > 0.0:
            return vals.copy()
    pair = spectral.dirichlet_eigenpairs(grid, 1)[0]
    return pair.vector.values.copy()


# -- residual polishing ------------------------------------------------


def _polish(grid: Grid, vals: np.ndarray, p: float, lam: float, tol: float,
            solver, j_ref: float, rounding: bool = False):
    """Newton from vals, then the exact rescale onto the manifold.

    With rounding, a result still above tol goes on to the extended-
    precision rounding polish.  Returns (values, residual, kept, Newton
    steps); kept says the result is one-signed, meets tol and has a ray
    action at most j_ref (1 + 1e-12).
    """
    # on a positive field the partwise residual is the full one
    out, res, steps = newton(grid, vals, p, lam, tol, solver)
    lp = grid.lp_p(out, p)
    q = grid.grad_sq(out) + lam * grid.l2_sq(out)
    out = (q / lp) ** (1.0 / (p - 2.0)) * out
    res = _res_norm(grid, out, p, lam)
    if res > tol and rounding:
        out, res = _rounding_polish(grid, out, p, lam, res)
    kept = (res <= tol and np.min(out) >= 0.0
            and _ray_action_vals(grid, out, p, lam) <= j_ref * (1.0 + 1e-12))
    return out, res, kept, steps


def _rounding_polish(grid: Grid, vals: np.ndarray, p: float, lam: float,
                     res: float) -> tuple[np.ndarray, float]:
    """Extended-precision Newton plus optimized storage rounding.

    On fine grids the attainable double-precision residual is limited by
    the rounding of the stored values themselves (noise amplified by
    1/h^2).  A short extended-precision Newton gives a reference beyond
    double accuracy; a Viterbi pass then chooses, per node, between the
    two neighboring doubles so that the second difference of the rounding
    error -- hence the stored field's true residual -- is minimized.
    """
    n = grid.n
    h2l = np.longdouble(grid.h[0]) * np.longdouble(grid.h[0])
    laml = np.longdouble(lam)
    uld = vals.astype(np.longdouble)
    off = np.full(n - 1, -1.0 / h2l, dtype=np.longdouble)
    for _ in range(3):
        r = (grid._lap_axis(uld, h2l) + laml * uld
             - np.abs(uld) ** (p - 2) * uld)
        diag = (2.0 / h2l + laml - (p - 1) * np.abs(uld) ** (p - 2))
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
    """Binary rounding choices minimizing sum of squared second differences."""
    n = eps_lo.size
    e = (eps_lo.tolist(), eps_hi.tolist())
    # dp[a][b]: best cost with choice a at node i-1 and b at node i;
    # the cost of node i couples (i-1, i, i+1), zero padding at the walls.
    dp = [[0.0, 0.0], [0.0, 0.0]]
    for a in range(2):
        for b in range(2):
            r = 2.0 * e[a][0] - e[b][1]
            dp[a][b] = r * r
    back = []
    for i in range(1, n - 1):
        ndp = [[0.0, 0.0], [0.0, 0.0]]
        bk = [[0, 0], [0, 0]]
        for b in range(2):
            for c in range(2):
                r0 = 2.0 * e[b][i] - e[0][i - 1] - e[c][i + 1]
                r1 = 2.0 * e[b][i] - e[1][i - 1] - e[c][i + 1]
                c0 = dp[0][b] + r0 * r0
                c1 = dp[1][b] + r1 * r1
                if c0 <= c1:
                    ndp[b][c] = c0
                    bk[b][c] = 0
                else:
                    ndp[b][c] = c1
                    bk[b][c] = 1
        dp = ndp
        back.append(bk)
    best = np.inf
    state = (0, 0)
    for a in range(2):
        for b in range(2):
            r = 2.0 * e[b][n - 1] - e[a][n - 2]
            tot = dp[a][b] + r * r
            if tot < best:
                best = tot
                state = (a, b)
    choices = np.zeros(n, dtype=np.int8)
    choices[n - 2], choices[n - 1] = state
    for i in range(n - 3, -1, -1):
        choices[i] = back[i][choices[i + 1]][choices[i + 2]]
    return choices
