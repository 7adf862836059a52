"""Linear solves with the shifted operator A + c I on a grid.

The default engine factorizes once (banded Cholesky in 1D, sparse LU in
2D) and applies iterative refinement against the stencil evaluation used
everywhere else in the package, so solve residuals are consistent with
how every other module measures them.  A hand-rolled conjugate-gradient
engine is available as an alternative; it needs no factorization but is
much slower on fine grids.

Both engines are bitwise deterministic for fixed inputs.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky_banded, cho_solve_banded
from scipy.sparse.linalg import splu

from .errors import NoConvergence
from .grid import Grid


class OperatorSolver:
    """Repeated solves of (A + c I) x = b on one grid.

    c must keep the operator positive definite (c > -lambda_1 of the
    discrete Laplacian); the Cholesky factorization fails otherwise.
    """

    def __init__(self, grid: Grid, c: float, engine: str = "direct"):
        if engine not in ("direct", "cg"):
            raise ValueError(f"unknown engine {engine!r}")
        self.grid = grid
        self.c = float(c)
        self.engine = engine
        self._factor = None
        if engine == "direct":
            self._factorize()

    def _factorize(self):
        g = self.grid
        if g.dimension == 1:
            h2 = g.h[0] * g.h[0]
            ab = np.zeros((2, g.n))
            ab[0, 1:] = -1.0 / h2
            ab[1, :] = 2.0 / h2 + self.c
            try:
                self._factor = ("banded", cholesky_banded(ab, lower=False))
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(
                    f"operator A + ({self.c}) I is not positive definite") from exc
        else:
            n = g.n
            one = np.ones(n)
            t = sparse.diags_array([-one[:-1], 2.0 * one, -one[:-1]],
                                   offsets=[-1, 0, 1], format="csr")
            eye = sparse.identity(n, format="csr")
            mat = (sparse.kron(t / (g.h[0] * g.h[0]), eye)
                   + sparse.kron(eye, t / (g.h[1] * g.h[1]))
                   + self.c * sparse.identity(n * n)).tocsc()
            self._factor = ("splu", splu(mat))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.grid.laplacian(x) + self.c * x

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        kind, fac = self._factor
        if kind == "banded":
            return cho_solve_banded((fac, False), b)
        return fac.solve(b)

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None,
              tol: float = 1e-13, max_refine: int = 4,
              cg_max_iter: int | None = None) -> np.ndarray:
        """Solve to relative residual tol, measured with the stencil apply."""
        if self.engine == "cg":
            x, _ = cg(self.apply, b, x0=x0, tol=tol,
                      max_iter=cg_max_iter or 40 * self.grid.n)
            return x
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = self._raw_solve(b)
        for _ in range(max_refine):
            r = b - self.apply(x)
            if float(np.linalg.norm(r)) <= tol * bnorm:
                break
            x = x + self._raw_solve(r)
        return x


def cg(apply_op, b: np.ndarray, x0: np.ndarray | None = None,
       tol: float = 1e-12, max_iter: int = 100000) -> tuple[np.ndarray, int]:
    """Conjugate gradients on an SPD operator given as a callable.

    Returns (solution, iterations).  Raises NoConvergence if the
    iteration budget is exhausted before the relative residual reaches
    tol.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else x0.astype(float, copy=True)
    r = b - apply_op(x)
    p = r.copy()
    rs = float(r @ r)
    target = tol * bnorm
    for k in range(1, max_iter + 1):
        ap = apply_op(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            return x, k
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise NoConvergence(f"cg: no convergence in {max_iter} iterations "
                        f"(relative residual {np.sqrt(rs) / bnorm:.2e})")


# Factorizations are expensive on 2D grids; keep a small LRU of solvers.
_SOLVER_CACHE: OrderedDict = OrderedDict()
_SOLVER_CACHE_MAX = 24


def shifted_solver(grid: Grid, c: float, engine: str = "direct") -> OperatorSolver:
    """Cached OperatorSolver for (grid, c, engine)."""
    key = (grid.key(), float(c), engine)
    solver = _SOLVER_CACHE.get(key)
    if solver is not None:
        _SOLVER_CACHE.move_to_end(key)
        return solver
    solver = OperatorSolver(grid, c, engine)
    _SOLVER_CACHE[key] = solver
    while len(_SOLVER_CACHE) > _SOLVER_CACHE_MAX:
        _SOLVER_CACHE.popitem(last=False)
    return solver


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
