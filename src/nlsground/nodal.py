"""Sign-changing ground states: the least-action state with two nodal domains.

Least-energy nodal solutions have exactly two nodal domains (Bartsch and
Weth 2003) and are critical points of the full action (Castro, Cossio
and Neuberger 1997).  A reflection R of the box separates the two sign
parts.  A field that is odd under R vanishes on R's fixed nodes, so the
signed problem on the odd fields is the signed problem on half the box,
and the driver of the signed solver, `action.least_action_state`,
checks lambda against -lambda_2 and solves it from the R-odd lambda_2
mode, a sine mode of the box or a difference of two on a square
(`spectral.sine_mode`): each fixed-point solve is
restricted to the odd fields, and Newton on the full system keeps them
odd and R's fixed nodes exactly zero.  An interval has one such
reflection, the midpoint flip; on odd n it fixes the midpoint node, on
even n it fixes no node and the sign parts meet across the middle edge.
A square has two (the transpose and a midline flip), any other
rectangle one (the flip of its longer axis).  A flip's odd fields are a
parity class (`linsolve.OperatorSolver`): the midline state is odd along
the flipped axis and even along the other, so at odd n the midpoint
state's solve lives on the first half of the interval and the midline
state's on a quarter of the grid, from the start to the state, which is
mirrored onto the grid once (`grid.Block`).  The diagonal start, the
transpose's odd lambda_2 mode, is odd under the half-turn too, and
every step keeps both: at odd n its solve lives on the half-turn block
of rows 0..m in the same way (the class `DIAGONAL`), as do a warm start
and a tangent from a field exactly in that class.  At even n, and for
a field odd under the transpose alone, the class is `TRANSPOSE`, kept
by projection on the grid, in the preconditioner of a warm start's
Newton and of a tangent too (`linsolve._metric`).
The least raw action among
the converged states with exactly two nodal domains is returned, or
NoConvergence raised naming how every start stopped.  A warm start runs
Newton at once from the init and falls back to the reflections if that
result is rejected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .action import (ActionParams, GroundState, SolverOptions, _action,
                     least_action_state)
from .errors import InvalidSpec
from .grid import Field, Grid
from .linsolve import DIAGONAL, EVEN, ODD
from .spectral import sine_mode


def nodal_ground_state(grid: Grid, params: ActionParams,
                       opts: SolverOptions | None = None,
                       init_field: Field | None = None) -> GroundState:
    """Least-action sign-changing state at fixed frequency.

    Requires lambda above threshold_floor(lambda_2).  Runs
    `least_action_state` from each reflection of the box (see the module
    docstring); init_field is a warm start.  On a 1D grid of 8191 nodes
    or more the cold midpoint start is solved on the 1023-node grid
    first and finished by Newton, or else runs as on any grid.  The
    state's iterations count the fixed-point and Newton steps of every
    start, on both grids where it nests.
    """
    opts = opts or SolverOptions()
    if init_field is not None and init_field.grid != grid:
        raise InvalidSpec("initial field lives on a different grid")
    state, record = least_action_state(grid, params, opts, init_field,
                                       _reflections(grid), 2)
    # the sign parts lie in no parity class, so their sums run on the grid
    parts = np.maximum(state.u.values, 0.0), np.minimum(state.u.values, 0.0)
    masses = tuple(grid.l2_sq(v) for v in parts)
    actions = tuple(_action(grid, v, params.p, params.lam, l2=m)
                    for v, m in zip(parts, masses))
    return replace(state, part_masses=masses, part_actions=actions,
                   multistart=record)


def _reflections(grid: Grid) -> list:
    """(label, class, builder of its lambda_2 mode) for each cold start.

    An interval has the midpoint flip, whose odd fields are the ODD
    class.  A square has the transpose, whose fixed line is the
    diagonal, and the flip of its first axis, whose fixed line is a
    midline; the other midline's state is the transpose of that one.
    Any other rectangle has the flip of its longer axis.  A midline
    start's class is odd along the flipped axis and even along the
    other; the diagonal's is DIAGONAL, the fields odd under the
    transpose and, where solves fold, the half-turn.  Each builder
    takes a grid of the box and returns the discrete lambda_2
    eigenvector in the class there, flattened; the driver builds it
    when the start runs and projects it exactly onto the class.
    """
    if grid.dimension == 1:
        return [("midpoint", (ODD,), lambda g: sine_mode(g, 2))]
    if grid.h[0] < grid.h[1]:
        return [("midline", (EVEN, ODD), lambda g: sine_mode(g, 1, 2))]
    starts = [("midline", (ODD, EVEN), lambda g: sine_mode(g, 2, 1))]
    if grid.h[0] == grid.h[1]:
        starts.insert(0, ("diagonal", DIAGONAL,
                          lambda g: sine_mode(g, 1, 2) - sine_mode(g, 2, 1)))
    return starts
