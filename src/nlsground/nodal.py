"""Sign-changing ground states over the partwise constraint set.

A field is admissible when both its positive and negative parts can be
scaled onto the constraint manifold; the nodal level is the infimum of
the action over such fields, which splits as a sum of the two ray
actions.

In 1D the minimizer decouples exactly across a zero node: each sign part
solves the signed problem on its own subinterval, and the action is
minimized over the interface location.  The solver exploits this: it
walks the interface node to the discrete optimum, solving two signed
subproblems per candidate (one, mirrored, when the split is symmetric).
This is the only construction compatible with machine-precision partwise
identities and small full-PDE residuals at the same time; a descent on
the composed functional converges to overlapping-part configurations
whose full residual is dominated by O(1/h) interface coupling.

In 2D no node-aligned decoupling exists and the solver runs a projected
descent: the gradient of u -> action(project(u)) restricted to each sign
support, preconditioned by the shifted Laplacian, with a backtracking
line search and deterministic multistarts.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .action import (ActionParams, GroundState, SolverOptions, finalize_state,
                     ground_state, kappa, scaled_options)
from .errors import (DegeneratePart, LambdaBelowThreshold, NoConvergence,
                     NonpositiveQuotient, NotSignChanging)
from .grid import DomainSpec, Field, Grid, build_grid
from .linsolve import shifted_solver


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
    deterministic starts.
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
    """Memoized evaluation of the two-sided action at each interface node."""

    def __init__(self, grid: Grid, params: ActionParams, opts: SolverOptions):
        self.grid = grid
        self.params = params
        # parts carry the full tolerance; their residuals add in quadrature
        self.side_opts = scaled_options(opts, tol=opts.tol / 1.5, init="phi1")
        self.a, self.b = grid.spec.bounds[0]
        self.h = grid.h[0]
        self.n = grid.n
        self.cache: dict[int, tuple] = {}
        self.window = self._feasible_window()

    def node_x(self, m: int) -> float:
        return self.a + m * self.h

    def side_grid(self, lo: float, hi: float, n_side: int) -> Grid:
        return build_grid(DomainSpec.interval(lo, hi), n_side)

    def _feasible_window(self) -> tuple[int, int]:
        """Interface nodes whose two subintervals both admit ground states.

        Each side grid keeps spacing h, so its first eigenvalue is known in
        closed form; a side is admissible when the frequency clears it by
        the same margin the signed solver demands.
        """
        m = np.arange(4, self.n - 2)
        x_m = self.a + m * self.h
        mf = self.side_opts.margin_factor
        lam1_left = spectral.axis_eigenvalues(m - 1, (x_m - self.a) / m, 1)
        lam1_right = spectral.axis_eigenvalues(
            self.n - m, (self.b - x_m) / (self.n + 1 - m), 1)
        ok = ((self.params.lam > -lam1_left + mf * lam1_left)
              & (self.params.lam > -lam1_right + mf * lam1_right))
        idx = np.flatnonzero(ok)
        if not idx.size:
            return 1, 0
        return int(m[idx[0]]), int(m[idx[-1]])

    def evaluate(self, m: int) -> float:
        """Total action with the zero interface at node m (1-based)."""
        return self._solve(m)[0]

    def _solve(self, m: int):
        if m in self.cache:
            return self.cache[m]
        n_left = m - 1
        n_right = self.n - m
        if not self.window[0] <= m <= self.window[1]:
            out = (np.inf, None, None)
            self.cache[m] = out
            return out
        x_m = self.node_x(m)
        try:
            left = ground_state(self.side_grid(self.a, x_m, n_left),
                                self.params, self.side_opts)
            if n_left == n_right:
                right = None  # mirror of left; bitwise antisymmetric state
            else:
                right = ground_state(self.side_grid(x_m, self.b, n_right),
                                     self.params, self.side_opts)
        except (LambdaBelowThreshold, NoConvergence, NonpositiveQuotient):
            out = (np.inf, None, None)
            self.cache[m] = out
            return out
        total = 2.0 * left.action_value if right is None \
            else left.action_value + right.action_value
        out = (total, left, right)
        self.cache[m] = out
        return out

    def assemble(self, m: int, iterations: int, multistart) -> GroundState:
        total, left, right = self._solve(m)
        if left is None:
            raise NoConvergence(f"no admissible split at interface node {m}")
        vals = np.zeros(self.n)
        vals[:m - 1] = left.u.values
        if right is None:
            vals[m:] = -left.u.values[::-1]
            right_mass, right_action = left.mass, left.action_value
            part_res = left.residual * np.sqrt(2.0)
        else:
            vals[m:] = -right.u.values
            right_mass, right_action = right.mass, right.action_value
            part_res = float(np.hypot(left.residual, right.residual))
        # mirror splits cancel the stencil across the zero node bitwise, so
        # there the full residual matches the parts; asymmetric splits carry
        # an O(1) interface term and `residual` records the solved system
        return finalize_state(
            self.grid, vals, self.params,
            residual=part_res, iterations=iterations,
            part_masses=(left.mass, right_mass),
            part_actions=(left.action_value, right_action),
            interface_index=m,
            multistart=multistart,
        )


def _nodal_interval(grid: Grid, params: ActionParams, opts: SolverOptions,
                    interface_hint: int | None) -> GroundState:
    prob = _InterfaceProblem(grid, params, opts)
    if prob.window[0] > prob.window[1]:
        raise NoConvergence(
            "no feasible interface split; frequency too close to threshold "
            "for this resolution")
    n = grid.n
    seeds: list[tuple[str, int]] = []
    if interface_hint is not None:
        # warm continuation: the multistart already ran on the cold start
        seeds.append(("hint", int(interface_hint)))
    else:
        phi2 = spectral.dirichlet_eigenpairs(grid, 2)[1]
        seeds.append(("phi2",
                      _first_sign_change(phi2.vector.values) or (n + 1) // 2))
        seeds.append(("odd-reflection", (n + 1) // 2))
        rng = np.random.default_rng(opts.seed)
        seeds.append(("random", int(rng.integers(2, n))))

    results: list[tuple[str, int, float]] = []
    for label, m0 in seeds:
        m = _walk_interface(prob, m0)
        value = prob.evaluate(m)
        if np.isfinite(value):
            results.append((label, m, value))
    if not results:
        raise NoConvergence(
            "no feasible interface split; frequency too close to threshold "
            "for this resolution")
    # deterministic argmin with interface-index tie break
    best = min(results, key=lambda t: (t[2], t[1]))
    multistart = tuple((label, value) for label, _, value in results)
    return prob.assemble(best[1], len(prob.cache), multistart)


def _first_sign_change(vals: np.ndarray) -> int | None:
    thr = 1e-8 * float(np.max(np.abs(vals)))
    signs = np.sign(vals) * (np.abs(vals) > thr)
    idx = np.flatnonzero(signs != 0)
    for k in range(idx.size - 1):
        if signs[idx[k]] != signs[idx[k + 1]]:
            # 1-based interface node between the two (or at a zero node)
            return int((idx[k] + idx[k + 1]) // 2 + 1)
    return None


def _walk_interface(prob: _InterfaceProblem, m0: int) -> int:
    """Greedy walk with expanding steps to a local minimum of J(m)."""
    lo, hi = prob.window
    m = min(max(m0, lo), hi)
    step = 1
    while True:
        j_here = prob.evaluate(m)
        j_down = prob.evaluate(m - step) if m - step >= lo else np.inf
        j_up = prob.evaluate(m + step) if m + step <= hi else np.inf
        if j_here <= j_down and j_here <= j_up:
            if step == 1:
                return m
            step = max(step // 2, 1)
            continue
        m = m - step if j_down < j_up else m + step
        step = min(step * 2, (hi - lo) // 2 + 1)


# -- 2D: projected descent ---------------------------------------------


def _nodal_descent_2d(grid: Grid, params: ActionParams, opts: SolverOptions,
                      init_field: Field | None) -> GroundState:
    seeds = _descent_seeds(grid, params, opts, init_field)
    metric = shifted_solver(grid, max(params.lam, 0.0), opts.engine)
    results = []
    total_iters = 0
    last_error: Exception | None = None
    for label, vals in seeds:
        try:
            out, iters = _descend(grid, params, opts, metric, vals)
        except (NonpositiveQuotient, NotSignChanging, DegeneratePart) as exc:
            last_error = exc
            continue
        total_iters += iters
        results.append((label, out))
    if not results:
        raise NoConvergence(f"all descent starts failed: {last_error}")
    best_label, best_vals = min(
        results, key=lambda t: nodal_action_of(Field(grid, t[1]), params))
    multistart = tuple(
        (label, nodal_action_of(Field(grid, vals), params))
        for label, vals in results)
    residual = _masked_residual(grid, best_vals, params)
    part_actions = tuple(
        kappa(params.p) * (q / lp ** (2.0 / params.p)) ** (params.p / (params.p - 2.0))
        for lp, q in (_part_data(grid, part, params.p, params.lam)
                      for part in _parts(best_vals)))
    return finalize_state(
        grid, best_vals, params, residual=residual, iterations=total_iters,
        action_override=sum(part_actions),
        part_masses=tuple(grid.l2_sq(part) for part in _parts(best_vals)),
        part_actions=part_actions,
        multistart=multistart,
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


def _masked_residual(grid: Grid, vals: np.ndarray, params: ActionParams) -> float:
    """Norm of the first variation of the composed functional.

    The residual of each projected part on its own support; this is the
    optimality measure of the partwise problem.  The full-PDE residual of
    a sign-changing field on a 2D lattice additionally carries interface
    coupling of order 1/h, which no grid-aligned field can remove.
    """
    p, lam = params.p, params.lam
    g = np.zeros_like(vals)
    for part in _parts(vals):
        mask = part != 0.0
        r = grid.laplacian(part) + lam * part - np.abs(part) ** (p - 2) * part
        g[mask] = r[mask]
    return float(np.sqrt(grid.weight * (g @ g)))


def _descend(grid: Grid, params: ActionParams, opts: SolverOptions, metric,
             vals: np.ndarray) -> tuple[np.ndarray, int]:
    p, lam = params.p, params.lam
    u = nodal_project(Field(grid, vals), params).values
    f_val = nodal_action_of(Field(grid, u), params)
    it = 0
    t_start = 1.0
    stalled = 0
    for it in range(1, opts.max_iter + 1):
        gvec = np.zeros_like(u)
        for part in _parts(u):
            mask = part != 0.0
            r = grid.laplacian(part) + lam * part - np.abs(part) ** (p - 2) * part
            gvec[mask] = r[mask]
        gnorm = float(np.sqrt(grid.weight * (gvec @ gvec)))
        if gnorm <= opts.tol:
            break
        d = metric.solve(gvec)
        slope = grid.weight * float(gvec @ d)
        if slope <= 0.0:
            break
        t = t_start
        accepted = False
        while t > 1e-14:
            trial = u - t * d
            trial_field = Field(grid, trial)
            cand = NodalCandidate(trial_field, params)
            if cand.feasible and min(cand.lp_plus, cand.lp_minus) >= opts.lp_floor:
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
            if min(cand.lp_plus, cand.lp_minus) < 10.0 * opts.lp_floor:
                raise DegeneratePart(
                    "a sign part collapsed toward the norm floor during descent")
            break
        if stalled >= 15:
            break
        t_start = min(1.0, 2.0 * t)
    return u, it
