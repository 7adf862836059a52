"""Sign-changing ground states: the least-action state with two nodal domains.

Least-energy nodal solutions have exactly two nodal domains (Bartsch and
Weth 2003) and are critical points of the full action (Castro, Cossio
and Neuberger 1997).  A reflection R of the box separates the two sign
parts.  A field that is odd under R vanishes on R's fixed nodes, so the
signed problem on the odd fields is the signed problem on half the box,
and the signed solver solves it: the normalized fixed point from the
R-odd lambda_2 mode, each solve restricted to the odd fields, then
Newton on the full system (`linsolve.newton`: the plain stencil maps
odd fields to odd fields, and each step keeps R's fixed nodes exactly
zero).  An interval has one such reflection, the midpoint flip; on
odd n it fixes the midpoint node, on even n it fixes no node and the
sign parts meet across the middle edge.  A square has two (the
transpose and a midline flip), any other rectangle one (the flip of its
longer axis).  The least raw action among the converged states with
exactly two nodal domains is returned, or NoConvergence raised naming
how every start stopped.  A warm start runs Newton at once from the
init and falls back to the reflections if that result is rejected.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .action import (ActionParams, GroundState, SolverOptions,
                     _fixed_point_newton, _polish, action, finalize_state,
                     nehari_scale, threshold_floor)
from .errors import InvalidSpec, LambdaBelowThreshold, NoConvergence
from .grid import Field, Grid, node_count
from .linsolve import odd_part, shifted_solver


def nodal_ground_state(grid: Grid, params: ActionParams,
                       opts: SolverOptions | None = None,
                       init_field: Field | None = None) -> GroundState:
    """Least-action sign-changing state at fixed frequency.

    Requires lambda above threshold_floor(lambda_2).  Runs the signed
    solver on the odd fields of each reflection of the box (see the
    module docstring); init_field is a warm start.  The state's
    iterations count the fixed-point and Newton steps of every start.
    """
    opts = opts or SolverOptions()
    floor = threshold_floor(spectral.lambda2(grid))
    p, lam = params.p, params.lam
    if lam <= floor:
        raise LambdaBelowThreshold(
            f"lambda={lam} at or below -lambda_2 + margin = {floor:.6g}")
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
            return _nodal_state(grid, params, vals, res, iterations, (
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
            f"no nodal start reached two nodal domains ({'; '.join(stops)})")
    _, _, vals, res = min(candidates, key=lambda c: c[0])
    return _nodal_state(grid, params, vals, res, iterations,
                        tuple((label, j) for j, label, _, _ in candidates))


def _reflections(grid: Grid) -> list:
    """(label, reflection, its odd lambda_2 mode) for each cold start.

    A reflection maps the array of node values to its mirror image.  An
    interval has the midpoint flip.  A square has the transpose, whose
    fixed line is the diagonal, and the flip of its first axis, whose
    fixed line is a midline; the other midline's state is the transpose
    of that one.  Any other rectangle has the flip of its longer axis.
    Each mode is the discrete lambda_2 eigenvector that is odd under its
    reflection.
    """
    t = np.arange(1, grid.n + 1) * (np.pi / (grid.n + 1))
    s1, s2 = np.sin(t), np.sin(2.0 * t)
    if grid.dimension == 1:
        return [("midpoint", lambda a: a[::-1], s2)]
    if grid.h[0] < grid.h[1]:
        return [("midline", lambda a: a[:, ::-1], np.outer(s1, s2))]
    midline = ("midline", lambda a: a[::-1], np.outer(s2, s1))
    if grid.h[0] > grid.h[1]:
        return [midline]
    return [("diagonal", np.transpose, np.outer(s1, s2) - np.outer(s2, s1)),
            midline]


def _nodal_state(grid: Grid, params: ActionParams, vals: np.ndarray,
                 res: float, iterations: int, multistart: tuple) -> GroundState:
    plus, minus = np.maximum(vals, 0.0), np.minimum(vals, 0.0)
    return finalize_state(
        grid, vals, params, residual=res, iterations=iterations,
        part_masses=(grid.l2_sq(plus), grid.l2_sq(minus)),
        part_actions=(action(Field(grid, plus), params),
                      action(Field(grid, minus), params)),
        multistart=multistart)
