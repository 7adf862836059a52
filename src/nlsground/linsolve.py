"""Linear solves with the shifted operator A + c I on a grid.

The stencil has constant coefficients on a box, so the solve uses its
structure directly: in 1D A + c I is symmetric tridiagonal and is
factored once by LAPACK's LDL^T (dpttrf/dpttrs); in 2D it is diagonal in
the discrete sine basis, and a solve is a sine transform, a division by
the eigenvalues lambda_j(x) + lambda_l(y) + c and a second transform.
Both are followed by iterative refinement against the stencil evaluation
used everywhere else in the package, so solve residuals are consistent
with how every other module measures them.  Solves are bitwise
deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from . import spectral
from .errors import NoConvergence
from .grid import Grid, dot

# refinement target (relative residual) and step cap; refinement also
# stops as soon as a step fails to halve the residual
_REFINE_TOL = 1e-13
_MAX_REFINE = 4


class OperatorSolver:
    """Repeated solves of (A + c I) x = b on one grid.

    c must keep the operator positive definite (c > -lambda_1 of the
    discrete Laplacian); NoConvergence is raised otherwise.
    """

    def __init__(self, grid: Grid, c: float):
        self.grid = grid
        self.c = float(c)
        self._factorize()

    def _factorize(self):
        g = self.grid
        # the closed-form lambda_1 decides c = -lambda_1 exactly, where a
        # factorization would only see rounding noise
        definite = self.c > -spectral.lambda1(g)
        if definite and g.dimension == 1:
            h2 = g.h[0] * g.h[0]
            d, e, info = dpttrf(np.full(g.n, 2.0 / h2 + self.c),
                                np.full(g.n - 1, -1.0 / h2))
            definite = info == 0
            self._factor = (d, e)
        elif definite:
            j = np.arange(1, g.n + 1)
            lam_x, lam_y = (spectral.axis_eigenvalues(g.n, h, j) for h in g.h)
            # two unnormalized transforms multiply by 2(n+1) per axis
            self._factor = 1.0 / ((2.0 * (g.n + 1)) ** 2
                                  * (lam_x[:, None] + lam_y[None, :] + self.c))
        if not definite:
            raise NoConvergence(
                f"operator A + ({self.c}) I is not positive definite")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.grid.laplacian(x) + self.c * x

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if self.grid.dimension == 1:
            d, e = self._factor
            return dpttrs(d, e, b)[0]
        u = b.reshape(self.grid.shape)
        return _dst2(_dst2(u) * self._factor).reshape(-1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve, refined toward relative residual _REFINE_TOL."""
        bnorm = np.sqrt(dot(b, b))
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = self._raw_solve(b)
        r = b - self.apply(x)
        rnorm = np.sqrt(dot(r, r))
        for _ in range(_MAX_REFINE):
            if rnorm <= _REFINE_TOL * bnorm:
                break
            x_new = x + self._raw_solve(r)
            r_new = b - self.apply(x_new)
            rnorm_new = np.sqrt(dot(r_new, r_new))
            if rnorm_new < rnorm:
                x, r = x_new, r_new
            # as in LAPACK's xGERFS: go on only while each step halves it
            if 2.0 * rnorm_new > rnorm:
                break
            rnorm = rnorm_new
        return x


def shifted_solver(grid: Grid, c: float) -> OperatorSolver:
    """OperatorSolver for A + c I on grid."""
    return OperatorSolver(grid, c)


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I along the last axis, 2 sum_j x_j sin(pi j k/(n+1)).

    The imaginary part of the real FFT of the odd extension; applying it
    twice multiplies by 2(n+1).
    """
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    z[..., 1:n + 1] = x
    z[..., n + 2:] = -x[..., ::-1]
    return -np.fft.rfft(z)[..., 1:n + 1].imag


def _dst2(u: np.ndarray) -> np.ndarray:
    """DST-I along both axes of a square array."""
    return _dst1(_dst1(u).T).T


def solve_tridiagonal_longdouble(diag: np.ndarray, off: np.ndarray,
                                 rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm in extended precision for symmetric tridiagonal systems.

    Used by the final polishing stage of the 1D solvers, where double
    precision storage noise limits attainable residuals.  `diag` may vary
    per node (linearized operators); `off` is the constant off-diagonal.
    """
    n = diag.size
    dd = np.empty(n, dtype=np.longdouble)
    bb = np.empty(n, dtype=np.longdouble)
    dd[0] = diag[0]
    bb[0] = rhs[0]
    for i in range(1, n):
        m = off[i - 1] / dd[i - 1]
        dd[i] = diag[i] - m * off[i - 1]
        bb[i] = rhs[i] - m * bb[i - 1]
    x = np.empty(n, dtype=np.longdouble)
    x[-1] = bb[-1] / dd[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (bb[i] - off[i] * x[i + 1]) / dd[i]
    return x
