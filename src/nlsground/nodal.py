"""Sign-changing ground states: the least-action state with two nodal domains.

Least-energy nodal solutions have exactly two nodal domains (Bartsch and
Weth 2003) and are critical points of the full action (Castro, Cossio
and Neuberger 1997).  `NodalCandidate` and `nodal_project` scale each
sign part onto the constraint manifold separately; on a field whose
parts are separated by zero nodes that projection is exact.

In 1D the minimizer decouples exactly across a zero node: each sign part
solves the signed problem on its own subinterval, and the action is
minimized over the interface location.  The solver exploits this: it
walks the interface node to the discrete optimum, starting from the
midpoint (both humps leave the zero with the same slope, so the split is
symmetric).  Each side is the signed state on an interval of its node
count at spacing h, solved once per node count; the right part is that
state reversed and negated.

On a box in 2D a reflection R separates the two sign parts.  A field
that is odd under R vanishes on R's fixed nodes, so the signed problem
on the odd fields is the signed problem on half the box, and the signed
solver solves it: the normalized fixed point from the R-odd lambda_2
mode, each sine solve projected onto the odd fields, then Newton on the
full system (`linsolve.newton`, with the zero nodes pinned).  A square
has two such reflections (the transpose and a midline flip), any other
rectangle one (the flip of its longer axis).  The least raw action among
the converged states with exactly two nodal domains is returned, or
NoConvergence raised naming how every start stopped.  A warm start runs
Newton at once from the init and falls back to the reflections if that
result is rejected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import spectral
from .action import (ActionParams, GroundState, SolverOptions,
                     _fixed_point_newton, _polish, action, finalize_state,
                     ground_state, kappa, nehari_scale, threshold_floor)
from .errors import (InvalidSpec, LambdaBelowThreshold, NoConvergence,
                     NonpositiveQuotient, NotSignChanging)
from .grid import DomainSpec, Field, Grid, build_grid, node_count
from .linsolve import odd_part, shifted_solver

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
    interface decomposition, 2D grids the signed solver on the odd fields
    of each reflection of the box (see the module docstring); init_field
    is a 2D warm start, interface_hint a 1D one.
    """
    opts = opts or SolverOptions()
    floor = threshold_floor(spectral.lambda2(grid))
    if params.lam <= floor:
        raise LambdaBelowThreshold(
            f"lambda={params.lam} at or below -lambda_2 + margin = {floor:.6g}")
    if grid.dimension == 1:
        return _nodal_interval(grid, params, opts, interface_hint)
    return _nodal_box(grid, params, opts, init_field)


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


# -- 2D: the signed problem on a reflection's odd fields ---------------


def _reflections(grid: Grid) -> list:
    """(label, reflection, its odd lambda_2 mode) for each cold 2D start.

    A reflection maps the n x n array of node values to its mirror
    image.  A square has the transpose, whose fixed line is the
    diagonal, and the flip of its first axis, whose fixed line is a
    midline; the other midline's state is the transpose of that one.
    Any other rectangle has the flip of its longer axis.  Each mode is
    the discrete lambda_2 eigenvector that is odd under its reflection.
    """
    t = np.arange(1, grid.n + 1) * (np.pi / (grid.n + 1))
    s1, s2 = np.sin(t), np.sin(2.0 * t)
    if grid.h[0] < grid.h[1]:
        return [("midline", lambda a: a[:, ::-1], np.outer(s1, s2))]
    midline = ("midline", lambda a: a[::-1], np.outer(s2, s1))
    if grid.h[0] > grid.h[1]:
        return [midline]
    return [("diagonal", np.transpose, np.outer(s1, s2) - np.outer(s2, s1)),
            midline]


def _nodal_box(grid: Grid, params: ActionParams, opts: SolverOptions,
               init_field: Field | None) -> GroundState:
    p, lam = params.p, params.lam
    iterations = 0
    if init_field is not None:
        if init_field.grid != grid:
            raise InvalidSpec("initial field lives on a different grid")
        # a continuation step: Newton at once from the Nehari-scaled init,
        # which keeps the init's sign pattern
        u = init_field.values
        vals, res, kept, iterations, _ = _polish(
            grid, nehari_scale(init_field, params) * u, p, lam, opts.tol,
            solver=None, j_ref=np.inf, rounding=None, half=u > 0.0)
        if kept and node_count(Field(grid, vals)) == 1:
            return _box_state(grid, params, vals, res, iterations, (
                ("warm", action(Field(grid, vals), params)),))
    candidates = []
    stops = []  # how every start ended
    for label, reflect, mode in _reflections(grid):
        mode = odd_part(mode, reflect).reshape(-1)
        try:
            vals, res, steps = _fixed_point_newton(
                grid, params, opts, mode / grid.lp_p(mode, p) ** (1.0 / p),
                shifted_solver(grid, lam, reflect), half=mode > 0.0)
        except NoConvergence as exc:
            stops.append(f"{label}: {exc}")
            continue
        iterations += steps
        domains = node_count(Field(grid, vals)) + 1
        stops.append(f"{label}: {domains} nodal domains, residual {res:.3e}")
        if domains == 2:
            candidates.append((action(Field(grid, vals), params), label, vals, res))
    if not candidates:
        raise NoConvergence(
            f"no 2D nodal start reached two nodal domains ({'; '.join(stops)})")
    _, _, vals, res = min(candidates, key=lambda c: c[0])
    return _box_state(grid, params, vals, res, iterations,
                      tuple((label, j) for j, label, _, _ in candidates))


def _box_state(grid: Grid, params: ActionParams, vals: np.ndarray, res: float,
               iterations: int, multistart: tuple) -> GroundState:
    plus, minus = _parts(vals)
    return finalize_state(
        grid, vals, params, residual=res, iterations=iterations,
        part_masses=(grid.l2_sq(plus), grid.l2_sq(minus)),
        part_actions=(action(Field(grid, plus), params),
                      action(Field(grid, minus), params)),
        multistart=multistart)
