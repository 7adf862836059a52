"""Action and energy functionals and the signed ground-state solver.

The ground state at fixed frequency minimizes the homogeneous quotient
R(u) = (||grad u||^2 + lambda ||u||^2) / ||u||_p^2 over nonzero fields;
equivalently, the action constrained to its natural manifold.  The solver
is the normalized fixed-point iteration

    solve (A + lambda I) v = |u|^(p-2) u,   u <- v / ||v||_p,

along which R is provably nonincreasing, followed by the exact scalar
normalization onto the constraint manifold and, when tight tolerances
demand it, a Newton polish of the resulting field (in double, then in
extended precision with an optimized final rounding: on fine grids the
storage rounding of the field itself dominates the attainable residual).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from . import spectral
from .errors import (InvalidSpec, LambdaBelowThreshold, NoConvergence,
                     NonpositiveQuotient, ZeroField)
from .grid import Field, Grid, node_count
from .linsolve import shifted_solver, solve_tridiagonal_longdouble

_P_CAP_2D = 10.0  # avoid overflow in |u|^(p-2) on planar domains


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

    tol is the absolute norm the PDE residual must reach; margin_factor
    sets the refusal margin above the existence threshold (relative to
    the threshold eigenvalue).  seed only matters for init="random".
    """

    tol: float = 1e-8
    max_iter: int = 600
    margin_factor: float = 1e-6
    seed: int = 0
    init: str = "phi1"  # or "random"
    engine: str = "direct"
    lp_floor: float = 1e-12
    polish: bool = True
    descent_slack: float = 1e-12

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
    multistart lists (label, action) for every converged start.
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
    g = u.grid
    r = _residual_vec(g, u.values, params.p, params.lam)
    return float(np.sqrt(g.weight * (r @ r)))


def _residual_vec(grid: Grid, vals: np.ndarray, p: float, lam: float) -> np.ndarray:
    return grid.laplacian(vals) + lam * vals - np.abs(vals) ** (p - 2) * vals


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


def threshold_margin(lam_threshold: float, opts: SolverOptions) -> float:
    return opts.margin_factor * abs(lam_threshold)


def ground_state(grid: Grid, params: ActionParams,
                 opts: SolverOptions | None = None,
                 init_field: Field | None = None) -> GroundState:
    """Signed action ground state at fixed frequency.

    Requires lambda > -lambda_1 + margin.  The returned state satisfies
    the manifold identity to machine precision and the PDE residual to
    opts.tol; NoConvergence is raised if the residual cannot reach tol
    (on fine grids with default tol this can only happen when the
    rounding floor of stored doubles exceeds tol).
    """
    opts = opts or SolverOptions()
    p, lam = params.p, params.lam
    if grid.dimension == 2 and p > _P_CAP_2D:
        raise InvalidSpec(f"p={p} above the practical 2D cap {_P_CAP_2D}")
    lam1 = spectral.lambda1(grid)
    margin = threshold_margin(lam1, opts)
    if lam <= -lam1 + margin:
        raise LambdaBelowThreshold(
            f"lambda={lam} at or below -lambda_1 + margin = {-lam1 + margin:.6g}")

    solver = shifted_solver(grid, lam, opts.engine)
    u = _initial_vector(grid, opts, init_field)
    u = u / grid.lp_p(u, p) ** (1.0 / p)

    best_vals = None
    best_res = np.inf
    r_prev = np.inf
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        b = np.abs(u) ** (p - 2) * u
        v = solver.solve(b)
        lp_v = grid.lp_p(v, p)
        if lp_v == 0.0:
            raise NoConvergence("iterate collapsed to zero")
        u_new = v / lp_v ** (1.0 / p)
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
        if r_now > r_prev + opts.descent_slack * r_scale:
            raise NoConvergence(
                f"quotient increased ({r_prev!r} -> {r_now!r}); "
                "fixed-point descent violated")
        moved = float(np.max(np.abs(u_new - u)))
        scale = float(np.max(np.abs(u_new)))
        u = u_new
        r_prev = r_now
        w_vals = (q / lp_u) ** (1.0 / (p - 2.0)) * u
        res = _res_norm(grid, w_vals, p, lam)
        if res < best_res:
            best_res = res
            best_vals = w_vals
        if res <= opts.tol or moved <= 5e-14 * scale:
            break

    if best_vals is None:
        raise NoConvergence("no iterate had a finite residual")
    if best_res > opts.tol and opts.polish:
        best_vals, best_res = _polish(grid, best_vals, p, lam, opts, best_res)
    if best_res > opts.tol:
        raise NoConvergence(
            f"residual {best_res:.3e} above tol {opts.tol:.1e} after "
            f"{iterations} iterations (p={p}, lambda={lam}, n={grid.n})")

    return finalize_state(grid, best_vals, params, best_res, iterations)


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
    r = _residual_vec(grid, vals, p, lam)
    return float(np.sqrt(grid.weight * (r @ r)))


def _initial_vector(grid: Grid, opts: SolverOptions,
                    init_field: Field | None) -> np.ndarray:
    if init_field is not None:
        if init_field.grid != grid:
            raise InvalidSpec("initial field lives on a different grid")
        vals = np.abs(init_field.values)
        if np.max(vals) > 0.0:
            return vals.copy()
    if opts.init == "random":
        rng = np.random.default_rng(opts.seed)
        return np.abs(rng.standard_normal(grid.size)) + 1e-3
    pair = spectral.dirichlet_eigenpairs(grid, 1)[0]
    return pair.vector.values.copy()


# -- residual polishing ------------------------------------------------


def _polish(grid: Grid, vals: np.ndarray, p: float, lam: float,
            opts: SolverOptions, res: float) -> tuple[np.ndarray, float]:
    vals, res = _newton_polish(grid, vals, p, lam, res)
    if res > opts.tol and grid.dimension == 1:
        vals, res = _rounding_polish(grid, vals, p, lam, res)
    return vals, res


def _newton_polish(grid: Grid, vals: np.ndarray, p: float, lam: float,
                   res: float, steps: int = 5) -> tuple[np.ndarray, float]:
    """Newton steps on the full PDE, 1D only.

    The linearization is generally indefinite, so a pivoted banded solve
    is used.  2D grids never need this stage: their coarser spacing keeps
    the fixed point well below any practical tolerance."""
    if grid.dimension != 1:
        return vals, res
    n = grid.n
    h2 = grid.h[0] * grid.h[0]
    best, best_res = vals, res
    cur = vals
    for _ in range(steps):
        r = _residual_vec(grid, cur, p, lam)
        jac = np.zeros((3, n))
        jac[0, 1:] = -1.0 / h2
        jac[2, :-1] = -1.0 / h2
        jac[1, :] = 2.0 / h2 + lam - (p - 1) * np.abs(cur) ** (p - 2)
        try:
            step = solve_banded((1, 1), jac, -r)
        except np.linalg.LinAlgError:
            break
        cur = cur + step
        rn = _res_norm(grid, cur, p, lam)
        if rn < best_res:
            best, best_res = cur, rn
        else:
            break
    return best, best_res


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


def scaled_options(opts: SolverOptions, **changes) -> SolverOptions:
    """Copy of opts with the given fields replaced."""
    return replace(opts, **changes)
