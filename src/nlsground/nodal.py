"""Sign-changing ground states over the partwise constraint set.

A field is admissible when both its positive and negative parts can be
scaled onto the constraint manifold; the nodal level is the infimum of
the action over such fields, which splits as a sum of the two ray
actions.

In 1D the minimizer decouples exactly across a zero node: each sign part
solves the signed problem on its own subinterval, and the action is
minimized over the interface location.  The solver exploits this: it
walks the interface node to the discrete optimum, starting from the
midpoint (both humps leave the zero with the same slope, so the split is
symmetric).  Each side is the signed state on an interval of its node
count at spacing h, solved once per node count; the right part is that
state reversed and negated.  This is the only construction compatible
with machine-precision partwise identities and small full-PDE residuals
at the same time; a descent on the composed functional converges to
overlapping-part configurations whose full residual is dominated by
O(1/h) interface coupling.

In 2D no node-aligned decoupling exists.  From each of several starts
the solver runs a projected descent: the gradient of
u -> action(project(u)) restricted to each sign support, preconditioned
by the shifted Laplacian, with a backtracking line search.  Once the
sign pattern stops changing, Newton's method runs on the partwise system
over that frozen partition (the stencil with the edges between opposite
signs cut), each step a MINRES solve preconditioned by the same shifted
Laplacian; its result is kept only if it meets the tolerance, keeps every
sign and does not raise the action, and the descent resumes otherwise.
The least-action start is returned, or NoConvergence raised when it is
above tol.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import spectral
from .action import (ActionParams, GroundState, SolverOptions, finalize_state,
                     ground_state, kappa)
from .errors import (DegeneratePart, LambdaBelowThreshold, NoConvergence,
                     NonpositiveQuotient, NotSignChanging)
from .grid import DomainSpec, Field, Grid, build_grid, dot
from .linsolve import shifted_solver

# smallest L^p mass a sign part may keep during the 2D descent
_LP_FLOOR = 1e-12
# relative J(m) differences the interface walk treats as rounding noise: on
# fine grids with large lambda J is flat to its last digits near the optimum
_WALK_SLACK = 256 * np.finfo(float).eps


def _parts(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(vals, 0.0), np.minimum(vals, 0.0)


def _part_data(grid: Grid, part: np.ndarray, p: float, lam: float):
    lp = grid.lp_p(part, p)
    q = grid.grad_sq(part) + lam * grid.l2_sq(part) if lp > 0.0 else 0.0
    return lp, q


class NodalCandidate:
    """Feasibility record of a sign-changing field for the projection."""

    def __init__(self, u: Field, params: ActionParams):
        plus, minus = _parts(u.values)
        self.u = u
        self.lp_plus, self.q_plus = _part_data(u.grid, plus, params.p, params.lam)
        self.lp_minus, self.q_minus = _part_data(u.grid, minus, params.p, params.lam)

    @property
    def sign_changing(self) -> bool:
        return self.lp_plus > 0.0 and self.lp_minus > 0.0

    @property
    def feasible(self) -> bool:
        return self.sign_changing and self.q_plus > 0.0 and self.q_minus > 0.0


def _check_parts(u: Field, params: ActionParams):
    cand = NodalCandidate(u, params)
    if not cand.sign_changing:
        raise NotSignChanging("field does not change sign")
    if cand.q_plus <= 0.0:
        raise NonpositiveQuotient(
            f"positive part has Q = {cand.q_plus:.4g} <= 0", part="plus")
    if cand.q_minus <= 0.0:
        raise NonpositiveQuotient(
            f"negative part has Q = {cand.q_minus:.4g} <= 0", part="minus")
    return cand


def nodal_project(u: Field, params: ActionParams) -> Field:
    """Scale each sign part onto the constraint manifold separately."""
    cand = _check_parts(u, params)
    plus, minus = _parts(u.values)
    e = 1.0 / (params.p - 2.0)
    s_plus = (cand.q_plus / cand.lp_plus) ** e
    s_minus = (cand.q_minus / cand.lp_minus) ** e
    return Field(u.grid, s_plus * plus + s_minus * minus)


def nodal_action_of(u: Field, params: ActionParams) -> float:
    """Action of the partwise projection, computed from the two quotients."""
    cand = _check_parts(u, params)
    p = params.p
    ex = p / (p - 2.0)
    r_plus = cand.q_plus / cand.lp_plus ** (2.0 / p)
    r_minus = cand.q_minus / cand.lp_minus ** (2.0 / p)
    return kappa(p) * (r_plus ** ex + r_minus ** ex)


def nodal_ground_state(grid: Grid, params: ActionParams,
                       opts: SolverOptions | None = None,
                       interface_hint: int | None = None,
                       init_field: Field | None = None) -> GroundState:
    """Least-action sign-changing state at fixed frequency.

    Requires lambda > -lambda_2 + margin.  1D grids use the exact
    interface decomposition; 2D grids use projected descent from several
    starts, finished by Newton on the settled partition, and raise
    NoConvergence when the best start stays above tol.
    """
    opts = opts or SolverOptions()
    lam2 = spectral.lambda2(grid)
    margin = opts.margin_factor * abs(lam2)
    if params.lam <= -lam2 + margin:
        raise LambdaBelowThreshold(
            f"lambda={params.lam} at or below -lambda_2 + margin = "
            f"{-lam2 + margin:.6g}")
    if grid.dimension == 1:
        return _nodal_interval(grid, params, opts, interface_hint)
    return _nodal_descent_2d(grid, params, opts, init_field)


# -- 1D: interface decomposition --------------------------------------


class _InterfaceProblem:
    """Memoized two-sided action J(m) = f(m - 1) + f(n - m) at node m.

    f(k) is the signed ground state on an interval of k nodes at spacing
    h.  By translation and reflection it is the left part of one split
    and, reversed and negated, the right part of another, so each node
    count is solved once.
    """

    def __init__(self, grid: Grid, params: ActionParams, opts: SolverOptions):
        self.grid = grid
        self.params = params
        # parts carry the full tolerance; their residuals add in quadrature
        self.side_opts = replace(opts, tol=opts.tol / 1.5, init="phi1")
        self.a = grid.spec.bounds[0][0]
        self.h = grid.h[0]
        self.n = grid.n
        self.sides: dict[int, GroundState | None] = {}
        self.values: dict[int, float] = {}
        self.window = self._feasible_window()

    def _feasible_window(self) -> tuple[int, int]:
        """Interface nodes whose two side intervals both admit ground states.

        Each side grid keeps spacing h, so its first eigenvalue is known in
        closed form; a side is admissible when the frequency clears it by
        the same margin the signed solver demands.
        """
        m = np.arange(4, self.n - 2)
        ok = self._side_ok(m - 1) & self._side_ok(self.n - m)
        idx = np.flatnonzero(ok)
        if not idx.size:
            return 1, 0
        return int(m[idx[0]]), int(m[idx[-1]])

    def _side_ok(self, k: np.ndarray) -> np.ndarray:
        # the spacing the side grid of k nodes derives from its bounds
        h_k = (self.a + (k + 1) * self.h - self.a) / (k + 1)
        lam1 = spectral.axis_eigenvalues(k, h_k, 1)
        return self.params.lam > -lam1 + self.side_opts.margin_factor * lam1

    def side(self, k: int) -> GroundState | None:
        """f(k), or None where the signed solve fails."""
        if k not in self.sides:
            spec = DomainSpec.interval(self.a, self.a + (k + 1) * self.h)
            try:
                self.sides[k] = ground_state(build_grid(spec, k), self.params,
                                             self.side_opts)
            except (LambdaBelowThreshold, NoConvergence, NonpositiveQuotient):
                self.sides[k] = None
        return self.sides[k]

    def evaluate(self, m: int) -> float:
        """Total action with the zero interface at node m (1-based)."""
        if m not in self.values:
            left, right = self.side(m - 1), self.side(self.n - m)
            self.values[m] = (np.inf if left is None or right is None
                              else left.action_value + right.action_value)
        return self.values[m]

    def assemble(self, m: int, multistart) -> GroundState:
        left, right = self.side(m - 1), self.side(self.n - m)
        vals = np.zeros(self.n)
        vals[:m - 1] = left.u.values
        vals[m:] = -right.u.values[::-1]
        # the midpoint split on odd n mirrors one side solve, which cancels
        # the stencil across the zero node bitwise, so there the full
        # residual matches the parts; other splits carry an O(1) interface
        # term and `residual` records the solved system
        return finalize_state(
            self.grid, vals, self.params,
            residual=float(np.hypot(left.residual, right.residual)),
            iterations=len(self.values),
            part_masses=(left.mass, right.mass),
            part_actions=(left.action_value, right.action_value),
            interface_index=m,
            multistart=multistart,
        )


def _nodal_interval(grid: Grid, params: ActionParams, opts: SolverOptions,
                    interface_hint: int | None) -> GroundState:
    prob = _InterfaceProblem(grid, params, opts)
    if prob.window[0] <= prob.window[1]:
        # one hump per side with equal slopes at the zero puts a cold
        # start's node at the midpoint; a warm continuation starts at its hint
        label, m0 = (("midpoint", (grid.n + 1) // 2) if interface_hint is None
                     else ("hint", int(interface_hint)))
        m = _walk_interface(prob, m0)
        value = prob.evaluate(m)
        if np.isfinite(value):
            return prob.assemble(m, ((label, value),))
    raise NoConvergence(
        "no feasible interface split; frequency too close to threshold "
        "for this resolution")


def _walk_interface(prob: _InterfaceProblem, m0: int) -> int:
    """Greedy walk with expanding steps to a local minimum of J(m).

    A neighbour must undercut J(m) by more than _WALK_SLACK to draw the
    walk; ties go toward the smaller m.
    """
    lo, hi = prob.window
    m = min(max(m0, lo), hi)
    step = 1
    while True:
        j_here = prob.evaluate(m)
        j_down = prob.evaluate(m - step) if m - step >= lo else np.inf
        j_up = prob.evaluate(m + step) if m + step <= hi else np.inf
        bar = j_here - _WALK_SLACK * abs(j_here) if np.isfinite(j_here) else j_here
        if j_down >= bar and j_up >= bar:
            if step == 1:
                return m
            step = max(step // 2, 1)
            continue
        m = m - step if j_down <= j_up else m + step
        step = min(step * 2, (hi - lo) // 2 + 1)


# -- 2D: projected descent, then Newton on the frozen partition --------

# accepted descent steps with an unchanged sign pattern before Newton is
# tried on that partition (again after each failed try)
_SETTLED_STEPS = 5
_NEWTON_STEPS = 8
_MINRES_STEPS = 200


def _nodal_descent_2d(grid: Grid, params: ActionParams, opts: SolverOptions,
                      init_field: Field | None) -> GroundState:
    seeds = _descent_seeds(grid, params, opts, init_field)
    metric = shifted_solver(grid, max(params.lam, 0.0))
    results = []
    total_iters = 0
    last_error: Exception | None = None
    for label, vals in seeds:
        try:
            out, iters, reason = _descend(grid, params, opts, metric, vals)
        except (NonpositiveQuotient, NotSignChanging, DegeneratePart) as exc:
            last_error = exc
            continue
        total_iters += iters
        results.append((label, out, reason,
                        nodal_action_of(Field(grid, out), params),
                        _masked_residual(grid, out, params)))
    if not results:
        raise NoConvergence(f"all descent starts failed: {last_error}")
    best_label, best_vals, _, _, residual = min(results, key=lambda t: t[3])
    if residual > opts.tol:
        starts = "; ".join(f"{label}: {reason}, residual {res:.3e}"
                           for label, _, reason, _, res in results)
        raise NoConvergence(
            f"best 2D nodal start {best_label!r} has residual {residual:.3e} "
            f"above tol {opts.tol:.1e} ({starts})")
    part_actions = tuple(
        kappa(params.p) * (q / lp ** (2.0 / params.p)) ** (params.p / (params.p - 2.0))
        for lp, q in (_part_data(grid, part, params.p, params.lam)
                      for part in _parts(best_vals)))
    return finalize_state(
        grid, best_vals, params, residual=residual, iterations=total_iters,
        action_override=sum(part_actions),
        part_masses=tuple(grid.l2_sq(part) for part in _parts(best_vals)),
        part_actions=part_actions,
        multistart=tuple((label, value) for label, _, _, value, _ in results),
    )


def _descent_seeds(grid: Grid, params: ActionParams, opts: SolverOptions,
                   init_field: Field | None):
    seeds = []
    if init_field is not None:
        seeds.append(("warm", init_field.values.copy()))
    phi2 = spectral.dirichlet_eigenpairs(grid, 2)[1]
    seeds.append(("phi2", phi2.vector.values.copy()))
    x, y = grid.meshes()
    (ax, bx), (ay, by) = grid.spec.bounds
    odd = (np.sin(2.0 * np.pi * (x - ax) / (bx - ax))
           * np.sin(np.pi * (y - ay) / (by - ay)))
    seeds.append(("odd-reflection", odd.reshape(-1)))
    width = max((bx - ax), (by - ay)) / max(np.sqrt(abs(params.lam)), 4.0)
    cxl = ax + 0.25 * (bx - ax)
    cxr = ax + 0.75 * (bx - ax)
    cy = 0.5 * (ay + by)
    bumps = (np.exp(-((x - cxl) ** 2 + (y - cy) ** 2) / width ** 2)
             - np.exp(-((x - cxr) ** 2 + (y - cy) ** 2) / width ** 2))
    seeds.append(("two-bump", bumps.reshape(-1)))
    rng = np.random.default_rng(opts.seed)
    seeds.append(("random", rng.standard_normal(grid.size)))
    return seeds


def _partwise_gradient(grid: Grid, vals: np.ndarray,
                       params: ActionParams) -> np.ndarray:
    """Residual of each sign part on its own support, zero elsewhere."""
    p, lam = params.p, params.lam
    g = np.zeros_like(vals)
    for part in _parts(vals):
        mask = part != 0.0
        r = grid.laplacian(part) + lam * part - np.abs(part) ** (p - 2) * part
        g[mask] = r[mask]
    return g


def _masked_residual(grid: Grid, vals: np.ndarray, params: ActionParams) -> float:
    """Norm of the first variation of the composed functional.

    The residual of each projected part on its own support; this is the
    optimality measure of the partwise problem.  The full-PDE residual of
    a sign-changing field on a 2D lattice additionally carries interface
    coupling of order 1/h, which no grid-aligned field can remove.
    """
    g = _partwise_gradient(grid, vals, params)
    return float(np.sqrt(grid.weight * dot(g, g)))


def _descend(grid: Grid, params: ActionParams, opts: SolverOptions, metric,
             vals: np.ndarray) -> tuple[np.ndarray, int, str]:
    """Projected descent from vals; (field, iterations, stop reason).

    Once the sign pattern has held for a while, Newton on the frozen
    partition is tried; its result replaces the descent's only if it
    meets tol, keeps every sign and does not raise the action.  The stop
    reason is one of newton, tol, stall, max_iter or line-search, and
    iterations counts descent and Newton steps.
    """
    u = nodal_project(Field(grid, vals), params).values
    f_val = nodal_action_of(Field(grid, u), params)
    t_start = 1.0
    stalled = 0
    sign = np.sign(u)
    settled = 0
    newton_steps = 0
    reason = "max_iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        gvec = _partwise_gradient(grid, u, params)
        gnorm = float(np.sqrt(grid.weight * dot(gvec, gvec)))
        if gnorm <= opts.tol:
            reason = "tol"
            break
        d = metric.solve(gvec)
        slope = grid.weight * dot(gvec, d)
        if slope <= 0.0:
            reason = "stall"
            break
        t = t_start
        accepted = False
        while t > 1e-14:
            trial = u - t * d
            trial_field = Field(grid, trial)
            cand = NodalCandidate(trial_field, params)
            if cand.feasible and min(cand.lp_plus, cand.lp_minus) >= _LP_FLOOR:
                f_trial = nodal_action_of(trial_field, params)
                if f_trial <= f_val - 1e-4 * t * slope:
                    u = nodal_project(trial_field, params).values
                    f_new = nodal_action_of(Field(grid, u), params)
                    stalled = stalled + 1 if f_val - f_new <= 1e-12 * abs(f_val) else 0
                    f_val = f_new
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            cand = NodalCandidate(Field(grid, u), params)
            if min(cand.lp_plus, cand.lp_minus) < 10.0 * _LP_FLOOR:
                raise DegeneratePart(
                    "a sign part collapsed toward the norm floor during descent")
            reason = "line-search"
            break
        new_sign = np.sign(u)
        settled = settled + 1 if np.array_equal(new_sign, sign) else 0
        sign = new_sign
        if settled >= _SETTLED_STEPS:
            polished, steps = _newton_frozen(grid, params, opts, metric, u)
            newton_steps += steps
            if polished is not None:
                f_polished = nodal_action_of(Field(grid, polished), params)
                if f_polished <= f_val * (1.0 + 1e-12):
                    return polished, it + newton_steps, "newton"
            settled = 0
        if stalled >= 15:
            reason = "stall"
            break
        t_start = min(1.0, 2.0 * t)
    return u, it + newton_steps, reason


class _FrozenPartition:
    """The stencil with every edge between nodes of different sign cut.

    Each sign part then sees the other, and any zero node, as a Dirichlet
    zero: applied to a field with this sign pattern it gives the operator
    `_partwise_gradient` measures.  It is symmetric, so the Jacobian of
    the partwise system is too.
    """

    def __init__(self, grid: Grid, sign: np.ndarray):
        self.grid = grid
        s = sign.reshape(grid.shape)
        self.cut_x = (s[1:] != s[:-1]) / (grid.h[0] * grid.h[0])
        self.cut_y = (s[:, 1:] != s[:, :-1]) / (grid.h[1] * grid.h[1])

    def apply(self, v: np.ndarray) -> np.ndarray:
        # the full stencil couples v_i to a cut neighbour by -v_j/h^2
        out = self.grid.laplacian(v).reshape(self.grid.shape)
        w = v.reshape(self.grid.shape)
        out[:-1] += self.cut_x * w[1:]
        out[1:] += self.cut_x * w[:-1]
        out[:, :-1] += self.cut_y * w[:, 1:]
        out[:, 1:] += self.cut_y * w[:, :-1]
        return out.reshape(-1)


def _newton_frozen(grid: Grid, params: ActionParams, opts: SolverOptions,
                   metric, u: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Newton on the partwise system over u's sign supports.

    Returns (projected field, steps) once the partwise residual of the
    projected field reaches tol with every node keeping its sign, and
    (None, steps) when a step flips a sign or stops shrinking the
    residual.  The Jacobian is indefinite (one negative direction per
    part); each step is a preconditioned MINRES solve with the descent's
    metric as the preconditioner.
    """
    p, lam = params.p, params.lam
    sign = np.sign(u)
    frozen = _FrozenPartition(grid, sign)
    g = _partwise_gradient(grid, u, params)
    res = float(np.sqrt(grid.weight * dot(g, g)))
    for step in range(1, _NEWTON_STEPS + 1):
        shift = lam - (p - 1) * np.abs(u) ** (p - 2)
        # loose solves while far away, and none tighter than the last
        # step needs to land well inside tol
        rtol = max(min(0.1, res), 0.01 * opts.tol / res)
        delta = _minres(lambda v: frozen.apply(v) + shift * v, -g,
                        metric._raw_solve, rtol, _MINRES_STEPS)
        delta[sign == 0.0] = 0.0
        u = u + delta
        if not np.array_equal(np.sign(u), sign):
            return None, step
        g = _partwise_gradient(grid, u, params)
        res_new = float(np.sqrt(grid.weight * dot(g, g)))
        if res_new <= opts.tol:
            # the projection scales each part by a positive factor near 1
            projected = nodal_project(Field(grid, u), params).values
            if _masked_residual(grid, projected, params) <= opts.tol:
                return projected, step
            return None, step
        if not res_new < res:
            return None, step
        res = res_new
    return None, _NEWTON_STEPS


def _minres(apply, b: np.ndarray, precond, rtol: float,
            maxiter: int) -> np.ndarray:
    """Preconditioned MINRES (Paige and Saunders) for symmetric apply.

    precond must be symmetric positive definite.  Stops once the
    preconditioned residual norm falls to rtol times its initial value,
    or after maxiter steps.
    """
    x = np.zeros_like(b)
    y = precond(b)
    beta1 = float(np.sqrt(dot(b, y)))
    if beta1 == 0.0:
        return x
    beta, old_beta = beta1, 0.0
    r1, r2 = b, b
    cs, sn = -1.0, 0.0
    dbar = epsln = 0.0
    phibar = beta1
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    for _ in range(maxiter):
        v = y / beta
        y = apply(v)
        if old_beta:
            y = y - (beta / old_beta) * r1
        alpha = dot(v, y)
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = precond(r2)
        old_beta, beta = beta, float(np.sqrt(dot(r2, y)))
        old_eps = epsln
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(float(np.hypot(gbar, beta)), np.finfo(float).tiny)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1, w2 = w2, w
        w = (v - old_eps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= rtol * beta1 or beta == 0.0:
            break
    return x
