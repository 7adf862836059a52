"""Linear solves with the shifted operator A + c I on a grid.

The stencil has constant coefficients on a box, so the solve uses its
structure directly: in 1D A + c I is symmetric tridiagonal and is
factored once by LAPACK's LDL^T (dpttrf/dpttrs); in 2D it is diagonal in
the discrete sine basis, and a solve is a sine transform, a division by
the eigenvalues lambda_j(x) + lambda_l(y) + c and a second transform,
each pocketfft's real DST-I (from scipy's extension file, loaded alone
at the first 2D solve; see `_pocketfft_dst`).  The LAPACK routines come
from scipy's _flapack extension file, loaded alone by `_extensions`
before numpy: importing scipy.linalg for them would add about 0.3 s to
every process.
A solve may be restricted to the fields that are odd under a reflection
of the box, which commutes with A.  In 1D the reflection is the midpoint
flip, and the odd fields are fixed by their first n // 2 nodes, on which
the restricted operator is again tridiagonal; in 2D each sine solve is
projected onto the odd fields.  A solve is one back-substitution with
the factor: the direct solve is backward stable, so refining it in
double precision would gain almost nothing (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12).
Solves are bitwise deterministic for fixed inputs.

The same module holds the PDE residual A u + lambda u - |u|^(p-2) u
and the one linearized solve the package uses: the Jacobian of that
residual, the plain stencil plus a diagonal, solved by LAPACK's pivoted
tridiagonal dgtsv in 1D and by MINRES preconditioned with the sine solve
in 2D.  Newton's method on that solve finishes the signed ground state
(from a few fixed-point steps, or at once from a continuation predictor)
and the nodal one, reporting why it stopped, and its solve of -u gives
the tangent of a branch of states: the exact slope of the mass and the
predictor of the next continuation step.  Each long-double Newton step
of the 1D rounding polish forms its residual in long double and solves
its correction once in double by dgtsv (`solve_tridiagonal_longdouble`).
"""

from __future__ import annotations

import functools
import types

import numpy as np

from . import spectral
from ._extensions import lapack, load
from .errors import NoConvergence
from .grid import Grid, dot

dgtsv, dpttrf, dpttrs = lapack.dgtsv, lapack.dpttrf, lapack.dpttrs

# Newton steps per call and MINRES steps per 2D linearized solve
_NEWTON_STEPS = 8
_MINRES_STEPS = 200


class OperatorSolver:
    """Repeated solves of (A + c I) x = b on one grid.

    c must keep the operator positive definite (c > -lambda_1 of the
    discrete Laplacian); NoConvergence is raised otherwise.  reflect maps
    the array of node values to its mirror image under a reflection of
    the box whose odd fields start at lambda_2: the midpoint flip in 1D,
    the transpose of a square or the flip of the longer axis in 2D.
    Every solve is then restricted to those odd fields, and c need only
    exceed -lambda_2.  In 1D the operator on the odd fields is factored
    on the first n // 2 nodes, each solve mirrored onto the full grid;
    in 2D each solve is projected onto them, (x - R x) / 2.  Each solve
    is one back-substitution with the factor.
    """

    def __init__(self, grid: Grid, c: float, reflect=None):
        self.grid = grid
        self.c = float(c)
        self.reflect = reflect
        self._factorize()

    def _factorize(self):
        g = self.grid
        # the closed-form eigenvalue decides c = -lambda_k exactly, where a
        # factorization would only see rounding noise
        bottom = spectral.lambda1(g) if self.reflect is None else spectral.lambda2(g)
        definite = self.c > -bottom
        if definite and g.dimension == 1:
            h2 = g.h[0] * g.h[0]
            k = g.n if self.reflect is None else g.n // 2
            diag = np.full(k, 2.0 / h2 + self.c)
            if self.reflect is not None and g.n % 2 == 0:
                diag[-1] += 1.0 / h2  # the mirror node holds -u_k
            if k == 1:
                # n = 3 on odd fields: dpttrf rejects an empty off-diagonal
                d, e, info = diag, None, int(diag[0] <= 0.0)
            else:
                d, e, info = dpttrf(diag, np.full(k - 1, -1.0 / h2))
            definite = info == 0
            self._factor = (d, e)
        elif definite:
            j = np.arange(1, g.n + 1)
            lam_x, lam_y = (spectral.axis_eigenvalues(g.n, h, j) for h in g.h)
            # two unnormalized transforms multiply by 2(n+1) per axis
            denom = (2.0 * (g.n + 1)) ** 2 * (lam_x[:, None] + lam_y[None, :]
                                              + self.c)
            # on odd fields c may be -lambda_1, whose mode (1, 1) is even
            # under every reflection: its factor is 0, not 1/0
            self._factor = np.divide(1.0, denom, out=np.zeros_like(denom),
                                     where=denom != 0.0)
        if not definite:
            raise NoConvergence(
                f"operator A + ({self.c}) I is not positive definite")

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if self.grid.dimension == 1:
            d, e = self._factor
            if self.reflect is None:
                return dpttrs(d, e, b)[0]
            k = d.size
            x = np.zeros_like(b)
            half = odd_part(b, self.reflect)[:k]
            x[:k] = half / d if k == 1 else dpttrs(d, e, half)[0]
            x[-k:] = -x[k - 1::-1]
            return x
        x = _dst2(b.reshape(self.grid.shape), np.empty(self.grid.shape))
        x *= self._factor
        x = _dst2(x, x)
        if self.reflect is not None:
            x = odd_part(x, self.reflect)
        return x.reshape(-1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (A + c I) x = b, on reflect's odd fields if given."""
        return self._raw_solve(b)


def shifted_solver(grid: Grid, c: float, reflect=None) -> OperatorSolver:
    """OperatorSolver for A + c I on grid, on reflect's odd fields if given."""
    return OperatorSolver(grid, c, reflect)


def odd_part(x: np.ndarray, reflect) -> np.ndarray:
    """(x - R x) / 2 for node values x; exactly zero on R's fixed nodes."""
    out = x - reflect(x)
    out *= 0.5
    return out


def _dst2(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I along both axes of a square array, into out.

    Along an axis the transform is 2 sum_j x_j sin(pi j k/(n+1));
    applying it twice multiplies by 2(n+1).  pocketfft's real-to-real
    kernel computes it on one thread; out may be u itself.
    """
    _pocketfft_dst()(u, 1, (0, 1), 0, out, 1)
    return out


@functools.cache
def _pocketfft_dst():
    """pocketfft's dst(a, type, axes, inorm, out, nthreads), on first use.

    scipy's extension file is loaded by itself (`_extensions.load`),
    without scipy.fft's other imports; without it, scipy.fft.dstn calls
    the same kernel.
    """
    return load("fft._pocketfft.pypocketfft", _dstn_kernel).dst


def _dstn_kernel():
    """pocketfft's dst signature over the public scipy.fft.dstn."""
    from scipy.fft import dstn

    def dst(u, kind, axes, inorm, out, nthreads):
        np.copyto(out, dstn(u, kind, axes=axes, workers=nthreads))

    return types.SimpleNamespace(dst=dst)


def residual(grid: Grid, v: np.ndarray, p: float,
             lam: float) -> tuple[np.ndarray, float]:
    """F(v) = A v + lam v - |v|^(p-2) v and its weighted L2 norm."""
    r = grid.laplacian(v)
    r += lam * v
    r -= np.abs(v) ** (p - 2) * v
    return r, float(np.sqrt(grid.weight * dot(r, r)))


def linearized_solve(grid: Grid, shift: np.ndarray, b: np.ndarray,
                     rtol: float, metric: OperatorSolver | None = None
                     ) -> np.ndarray:
    """x with (A + diag(shift)) x = b.

    The linearization of the PDE at u has shift lambda - (p-1)|u|^(p-2)
    and is generally indefinite.  In 1D it is tridiagonal and solved by
    `_tridiagonal_solve`.  In 2D it is solved by MINRES to the relative
    preconditioned residual rtol, preconditioned by metric's sine solve;
    without a metric, by that of A + max(shift, 0) I (the largest shift
    is lambda up to the smallest |u|), factored here.
    """
    if grid.dimension == 1:
        h2 = grid.h[0] * grid.h[0]
        return _tridiagonal_solve(2.0 / h2 + shift,
                                  np.full(grid.n - 1, -1.0 / h2), b)
    if metric is None:
        metric = _metric(grid, shift)

    def apply(v):
        out = grid.laplacian(v)
        out += shift * v
        return out

    return _minres(apply, b, metric._raw_solve, rtol, _MINRES_STEPS)


def _metric(grid: Grid, shift: np.ndarray) -> OperatorSolver:
    """The sine solver of A + max(shift, 0) I, a preconditioner."""
    return OperatorSolver(grid, max(float(np.max(shift)), 0.0))


def _sign_pattern(v: np.ndarray) -> np.ndarray:
    """The signs of v as int8: +1, -1, or 0 on zero nodes."""
    return (v > 0.0).view(np.int8) - (v < 0.0).view(np.int8)


def newton(grid: Grid, u: np.ndarray, p: float, lam: float, tol: float,
           metric: OperatorSolver | None = None
           ) -> tuple[np.ndarray, float, int, str]:
    """Newton on A u + lam u = |u|^(p-2) u, keeping u's sign pattern.

    Each step is one `linearized_solve` of the plain stencil's Jacobian;
    metric, if given, preconditions the 2D solves, which otherwise share
    one preconditioner factored at the first step.  A step leaves u's
    zero nodes exactly zero.  The stencil maps fields odd under a
    reflection of the box to odd fields, so from an odd u, zero on the
    reflection's fixed nodes, the iterates stay odd up to the solves'
    rounding and exactly zero there.  Returns
    (best iterate, its residual, steps taken, stop reason).  The reason
    is "tol" once the residual reaches tol, "sign-flip" when a step
    changes the sign of a node, "stall" when a step fails to lower the
    residual, "singular" when the linearized solve is singular, and
    "step-cap" after _NEWTON_STEPS steps.
    """
    sign = _sign_pattern(u)
    r, res = residual(grid, u, p, lam)
    step = 0
    reason = "tol"
    while res > tol:
        if step == _NEWTON_STEPS:
            reason = "step-cap"
            break
        step += 1
        # loose solves while far away, and none tighter than the last
        # step needs to land well inside tol
        rtol = max(min(0.1, res), 0.01 * tol / res)
        shift = lam - (p - 1) * np.abs(u) ** (p - 2)
        if metric is None and grid.dimension == 2:
            metric = _metric(grid, shift)
        try:
            trial = linearized_solve(grid, shift, np.negative(r, out=r),
                                     rtol, metric)
        except np.linalg.LinAlgError:
            reason = "singular"
            break
        del r  # negated in place as the solve's right-hand side
        trial[sign == 0] = 0.0
        trial += u
        if not np.array_equal(_sign_pattern(trial), sign):
            reason = "sign-flip"
            break
        r_trial, res_trial = residual(grid, trial, p, lam)
        if not res_trial < res:
            reason = "stall"
            break
        u, r, res = trial, r_trial, res_trial
    return u, res, step, reason


def _minres(apply, b: np.ndarray, precond, rtol: float,
            maxiter: int) -> np.ndarray:
    """Preconditioned MINRES (Paige and Saunders) for symmetric apply.

    precond must be symmetric positive definite; it and apply must
    return new arrays, which are then updated in place, so seven vectors
    are live besides b.  Stops once the preconditioned residual norm
    falls to rtol times its initial value, or after maxiter steps.
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
        v = y
        v /= beta
        y = apply(v)
        if old_beta:
            y -= (beta / old_beta) * r1
        alpha = dot(v, y)
        y -= (alpha / beta) * r2
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
        # w <- (v - old_eps w_{k-2} - delta w_{k-1}) / gamma, in w_{k-2}
        w2 *= old_eps
        np.subtract(v, w2, out=w2)
        w2 -= delta * w
        w2 /= gamma
        w, w2 = w2, w
        x += phi * w
        if phibar <= rtol * beta1 or beta == 0.0:
            break
    return x


def solve_tridiagonal_longdouble(diag: np.ndarray, off: np.ndarray,
                                 rhs: np.ndarray) -> np.ndarray:
    """One Newton correction of the 1D rounding polish, in long double.

    The symmetric tridiagonal system (`diag` per node, `off` the
    off-diagonal) and its right-hand side, a residual formed in long
    double, are rounded to double for one pivoted `_tridiagonal_solve`,
    stable on the polish's indefinite linearizations.  Newton with its
    residual in long double and its correction solved in double
    converges to long-double accuracy by itself (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12; Tisseur, SIAM J. Matrix
    Anal. Appl. 22, 2001), so the solve is not refined.
    """
    x = _tridiagonal_solve(diag.astype(np.float64), off.astype(np.float64),
                           rhs.astype(np.float64))
    return x.astype(np.longdouble)


def _tridiagonal_solve(diag: np.ndarray, off: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """x with T x = b, T symmetric tridiagonal, by LAPACK's dgtsv.

    Gaussian elimination with partial pivoting, stable on indefinite T;
    a singular T raises np.linalg.LinAlgError.  The inputs are left
    unchanged.
    """
    x, info = dgtsv(off, diag, off, b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal matrix (pivot {info})")
    return x
