"""Lowest Dirichlet eigenpairs of the discrete negative Laplacian.

The stencil is diagonalized by the discrete sine basis.  On an axis with
n interior nodes and spacing h = L/(n+1),

    lambda_j = (4/h^2) sin^2(j pi / 2(n+1)),   phi_j(x_i) = sin(j pi i/(n+1)),

and on a rectangle the pairs are the tensor products phi_j(x) phi_l(y)
with value lambda_j(x) + lambda_l(y).  Only the 2-4 smallest pairs are
ever needed; they set the existence thresholds for the signed and
sign-changing ground-state problems and seed initializations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .grid import Field, Grid

_MAX_PAIRS = 4


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its L2-normalized eigenvector and residual norm."""

    value: float
    vector: Field
    residual: float


def axis_eigenvalues(n, h, j):
    """(4/h^2) sin^2(j pi / 2(n+1)); vectorized over any argument."""
    return 4.0 / (h * h) * np.sin(j * np.pi / (2 * (n + 1))) ** 2


def dirichlet_eigenpairs(grid: Grid, k: int) -> list[EigenPair]:
    """The k smallest Dirichlet eigenpairs of -Laplacian, ascending.

    Pairs are ordered by (value, axis modes).  On a square the tied modes
    (j, l) and (l, j) are returned as their transpose-symmetric and
    transpose-antisymmetric combinations, in that order.

    Sign conventions: the first eigenvector is positive; later ones have a
    nonnegative value at their first clearly nonzero node in row-major
    order.  `residual` is the norm of A v - lambda v for the stored v.
    """
    if not 1 <= k <= _MAX_PAIRS:
        raise InvalidSpec(f"k must be in 1..{_MAX_PAIRS}, got {k}")
    modes = _sorted_modes(grid, k)
    if len(modes) < k:
        raise InvalidSpec(f"grid has only {len(modes)} eigenpairs, asked for {k}")
    # row j-1 holds sin(j pi i/(n+1)) at nodes i = 1..n, on either axis
    table = np.sin(np.outer(np.arange(1, k + 1), np.arange(1, grid.n + 1))
                   * (np.pi / (grid.n + 1)))
    pairs: list[EigenPair] = []
    i = 0
    while len(pairs) < k:
        value, mode = modes[i]
        vec = _mode_vector(table, mode)
        if i + 1 < len(modes) and modes[i + 1] == (value, mode[::-1]):
            partner = _mode_vector(table, mode[::-1])
            combos = [vec + partner, vec - partner]
            i += 2
        else:
            combos = [vec]
            i += 1
        for vec in combos[:k - len(pairs)]:
            vec = _fix_sign(vec / np.sqrt(grid.l2_sq(vec)), first=not pairs)
            r = grid.laplacian(vec) - value * vec
            pairs.append(EigenPair(value, Field(grid, vec),
                                   float(np.sqrt(grid.l2_sq(r)))))
    return pairs


def lambda1(grid: Grid) -> float:
    return _sorted_modes(grid, 1)[0][0]


def lambda2(grid: Grid) -> float:
    return _sorted_modes(grid, 2)[1][0]


def _sorted_modes(grid: Grid, k: int) -> list[tuple[float, tuple]]:
    """(value, modes) of every tensor mode with all indices <= k, sorted."""
    j = np.arange(1, min(k, grid.n) + 1)
    per_axis = [axis_eigenvalues(grid.n, h, j).tolist() for h in grid.h]
    if grid.dimension == 1:
        return [(v, (a,)) for a, v in enumerate(per_axis[0])]
    return sorted((vx + vy, (a, b))
                  for a, vx in enumerate(per_axis[0])
                  for b, vy in enumerate(per_axis[1]))


def _mode_vector(table: np.ndarray, mode: tuple) -> np.ndarray:
    if len(mode) == 1:
        return table[mode[0]].copy()
    return np.outer(table[mode[0]], table[mode[1]]).reshape(-1)


def _fix_sign(x: np.ndarray, first: bool) -> np.ndarray:
    if first:
        return x if float(np.sum(x)) >= 0.0 else -x
    thr = 1e-8 * float(np.max(np.abs(x)))
    idx = np.flatnonzero(np.abs(x) > thr)
    if idx.size and x[idx[0]] < 0.0:
        return -x
    return x
