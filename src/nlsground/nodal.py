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
over that frozen partition (`linsolve.newton`: the stencil with the
edges between opposite signs cut, each step a MINRES solve preconditioned
by the sine solve), and its result is projected; it is kept only if it
meets the tolerance and does not raise the action, and the descent
resumes otherwise.
The least-action start is returned, or NoConvergence raised when it is
above tol.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import spectral
from .action import (ActionParams, GroundState, SolverOptions, finalize_state,
                     ground_state, kappa, threshold_floor)
from .errors import (DegeneratePart, LambdaBelowThreshold, NoConvergence,
                     NonpositiveQuotient, NotSignChanging)
from .grid import DomainSpec, Field, Grid, build_grid, dot
from .linsolve import _FrozenPartition, newton, shifted_solver

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
    """Feasibility record of a sign-changing field for the projection.

    Holds one (L^p mass, quadratic form) pair per sign part; the
    projection scales and the projected action both come from it.
    """

    def __init__(self, u: Field, params: ActionParams):
        self.u = u
        self.params = params
        self.plus, self.minus = _parts(u.values)
        self.lp_plus, self.q_plus = _part_data(u.grid, self.plus, params.p, params.lam)
        self.lp_minus, self.q_minus = _part_data(u.grid, self.minus, params.p, params.lam)

    @property
    def sign_changing(self) -> bool:
        return self.lp_plus > 0.0 and self.lp_minus > 0.0

    @property
    def feasible(self) -> bool:
        return self.sign_changing and self.q_plus > 0.0 and self.q_minus > 0.0

    def projected(self) -> np.ndarray:
        """Values with each sign part scaled onto the constraint manifold."""
        e = 1.0 / (self.params.p - 2.0)
        return ((self.q_plus / self.lp_plus) ** e * self.plus
                + (self.q_minus / self.lp_minus) ** e * self.minus)

    def part_actions(self) -> tuple[float, float]:
        """Ray actions of the two parts, which no rescaling of a part changes."""
        p = self.params.p
        ex = p / (p - 2.0)
        return tuple(kappa(p) * (q / lp ** (2.0 / p)) ** ex
                     for lp, q in ((self.lp_plus, self.q_plus),
                                   (self.lp_minus, self.q_minus)))

    def action(self) -> float:
        return sum(self.part_actions())


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
    return Field(u.grid, _check_parts(u, params).projected())


def nodal_action_of(u: Field, params: ActionParams) -> float:
    """Action of the partwise projection, computed from the two quotients."""
    return _check_parts(u, params).action()


def nodal_ground_state(grid: Grid, params: ActionParams,
                       opts: SolverOptions | None = None,
                       interface_hint: int | None = None,
                       init_field: Field | None = None) -> GroundState:
    """Least-action sign-changing state at fixed frequency.

    Requires lambda above threshold_floor(lambda_2).  1D grids use the exact
    interface decomposition; 2D grids use projected descent from several
    starts, finished by Newton on the settled partition, and raise
    NoConvergence when the best start stays above tol.
    """
    opts = opts or SolverOptions()
    floor = threshold_floor(spectral.lambda2(grid))
    if params.lam <= floor:
        raise LambdaBelowThreshold(
            f"lambda={params.lam} at or below -lambda_2 + margin = {floor:.6g}")
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
        self.side_opts = replace(opts, tol=opts.tol / 1.5)
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
        return self.params.lam > threshold_floor(lam1)

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


def _nodal_descent_2d(grid: Grid, params: ActionParams, opts: SolverOptions,
                      init_field: Field | None) -> GroundState:
    seeds = _descent_seeds(grid, params, opts, init_field)
    metric = shifted_solver(grid, max(params.lam, 0.0))
    results = []
    stops = []  # how every start ended, dropped ones included
    total_iters = 0
    for label, vals in seeds:
        try:
            out, iters, reason, residual = _descend(grid, params, opts,
                                                    metric, vals)
        except (NonpositiveQuotient, NotSignChanging, DegeneratePart) as exc:
            stops.append(f"{label}: {type(exc).__name__} ({exc})")
            continue
        total_iters += iters
        stops.append(f"{label}: {reason}, residual {residual:.3e}")
        results.append((label, out, nodal_action_of(Field(grid, out), params),
                        residual))
    if not results:
        raise NoConvergence(f"all descent starts failed ({'; '.join(stops)})")
    best_label, best_vals, _, residual = min(results, key=lambda t: t[2])
    if residual > opts.tol:
        raise NoConvergence(
            f"best 2D nodal start {best_label!r} has residual {residual:.3e} "
            f"above tol {opts.tol:.1e} ({'; '.join(stops)})")
    best = NodalCandidate(Field(grid, best_vals), params)
    return finalize_state(
        grid, best_vals, params, residual=residual, iterations=total_iters,
        action_override=best.action(),
        part_masses=(grid.l2_sq(best.plus), grid.l2_sq(best.minus)),
        part_actions=best.part_actions(),
        multistart=tuple((label, value) for label, _, value, _ in results),
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
    # a start on the ray of an earlier one repeats its descent up to sign:
    # on rectangles wider than tall the odd reflection is phi2
    unit = [vals / (np.max(np.abs(vals)) or 1.0) for _, vals in seeds]
    return [seed for i, seed in enumerate(seeds)
            if not any(_same_ray(unit[i], unit[j]) for j in range(i))]


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a = +-b to rounding, for a and b scaled to max|.| = 1."""
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= 1e-12


def _descend(grid: Grid, params: ActionParams, opts: SolverOptions, metric,
             vals: np.ndarray) -> tuple[np.ndarray, int, str, float]:
    """Projected descent from vals; (field, iterations, stop reason, residual).

    Once the sign pattern has held for a while, Newton on the frozen
    partition is tried; its projected result replaces the descent's only
    if it meets tol and does not raise the action (Newton keeps every
    sign).  The stop reason is one of newton, tol, stall, max_iter or
    line-search, iterations counts descent and Newton steps, and the
    residual is the partwise one of the returned field.
    """
    p, lam = params.p, params.lam
    u = nodal_project(Field(grid, vals), params).values
    f_val = nodal_action_of(Field(grid, u), params)
    t_start = 1.0
    stalled = 0
    sign = np.sign(u)
    # the partwise residual on u's sign pattern is the descent gradient
    frozen = _FrozenPartition(grid, sign)
    settled = 0
    newton_steps = 0
    reason = "max_iter"
    it = 0
    for it in range(1, opts.max_iter + 1):
        gvec, gnorm = frozen.residual(u, p, lam)
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
            cand = NodalCandidate(Field(grid, u - t * d), params)
            if cand.feasible and min(cand.lp_plus, cand.lp_minus) >= _LP_FLOOR:
                # the projection leaves each part's ray action unchanged
                f_trial = cand.action()
                if f_trial <= f_val - 1e-4 * t * slope:
                    u = cand.projected()
                    stalled = stalled + 1 if f_val - f_trial <= 1e-12 * abs(f_val) else 0
                    f_val = f_trial
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
        if np.array_equal(new_sign, sign):
            settled += 1
        else:
            settled = 0
            sign = new_sign
            frozen = _FrozenPartition(grid, sign)
        if settled >= _SETTLED_STEPS:
            polished, res, steps, _ = newton(grid, u, p, lam, opts.tol)
            newton_steps += steps
            if res <= opts.tol:
                # the projection scales each part by a positive factor near
                # 1, so it keeps the sign pattern Newton kept
                cand = NodalCandidate(Field(grid, polished), params)
                projected = cand.projected()
                res_projected = frozen.residual(projected, p, lam)[1]
                if (res_projected <= opts.tol
                        and cand.action() <= f_val * (1.0 + 1e-12)):
                    return projected, it + newton_steps, "newton", res_projected
            settled = 0
        if stalled >= 15:
            reason = "stall"
            break
        t_start = min(1.0, 2.0 * t)
    return u, it + newton_steps, reason, frozen.residual(u, p, lam)[1]
