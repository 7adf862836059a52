"""Linear solves with the shifted operator A + c I on a grid.

The stencil has constant coefficients on a box, so the solve uses its
structure directly: in 1D A + c I is symmetric tridiagonal and is
factored once by LAPACK's LDL^T (dpttrf/dpttrs); in 2D it is diagonal in
the discrete sine basis, and a solve is a sine transform, a division by
the eigenvalues lambda_j(x) + lambda_l(y) + c and a second transform,
each pocketfft's real DST-I (from scipy's extension file, loaded alone
at the first 2D solve; see `_pocketfft_dst`).
A solve may be restricted to the fields that are odd under a reflection
of the box, which commutes with A.  In 1D the reflection is the midpoint
flip, and the odd fields are fixed by their first n // 2 nodes, on which
the restricted operator is again tridiagonal; in 2D each sine solve is
projected onto the odd fields.  A solve is one back-substitution with
the factor: the direct solve is backward stable, so refining it in
double precision would gain almost nothing (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12).
Solves are bitwise deterministic for fixed inputs.

The same module holds the one linearized solve the package uses: the
Jacobian of D u + lambda u = |u|^(p-2) u, D the stencil with a field's
zero nodes pinned, solved by LAPACK's pivoted tridiagonal dgtsv in 1D
and by MINRES preconditioned with the sine solve in 2D.  Newton's method
on that solve finishes the signed ground state (from a few fixed-point
steps, or at once from a continuation predictor) and the nodal one,
reporting why it stopped, and its solve of -u gives the tangent of a
branch of states: the exact slope of the mass and the predictor of the
next continuation step.  The 1D rounding polish solves the same
tridiagonal linearization in long double by mixed-precision refinement
of dgtsv (`solve_tridiagonal_longdouble`).
"""

from __future__ import annotations

import functools
import os
import sys
from importlib import machinery, util

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from . import spectral
from .errors import NoConvergence
from .grid import Grid, dot

# refinement step cap of the long-double solve
_MAX_REFINE = 4
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
            d, e, info = dpttrf(diag, np.full(k - 1, -1.0 / h2))
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

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if self.grid.dimension == 1:
            d, e = self._factor
            if self.reflect is None:
                return dpttrs(d, e, b)[0]
            k = d.size
            x = np.zeros_like(b)
            x[:k] = dpttrs(d, e, odd_part(b, self.reflect)[:k])[0]
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

    scipy's extension file is found in scipy's fft/_pocketfft directory
    and loaded by itself (an ExtensionFileLoader), without scipy.fft's
    other imports, under its own name, where a later `import scipy.fft`
    finds it.  Without the file, scipy.fft.dstn calls the same kernel.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    root = util.find_spec("scipy").submodule_search_locations[0]
    spec = machinery.PathFinder.find_spec(
        name, [os.path.join(root, "fft", "_pocketfft")])
    if spec is None:
        from scipy.fft import dstn
        return lambda u, kind, axes, inorm, out, nthreads: np.copyto(
            out, dstn(u, kind, axes=axes, workers=nthreads))
    if name not in sys.modules:
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].dst


class _FrozenPartition:
    """The stencil with every edge that touches a zero node cut.

    The zero nodes are pinned: each sees only its own diagonal, and no
    other node sees them, which on a field that vanishes there is the
    plain stencil.  Edges between nodes of opposite sign keep their
    coupling.  A field without zero nodes gets the plain stencil (and no
    cut arrays are stored).  It is symmetric, so the Jacobian of its
    system is too.  metric, when given, is the OperatorSolver that
    preconditions the 2D solves.
    """

    def __init__(self, grid: Grid, sign: np.ndarray,
                 metric: OperatorSolver | None = None):
        self.grid = grid
        zero = sign.reshape(grid.shape) == 0
        # per axis, 1/h^2 on every edge with a zero node at either end
        cut = [zero[lo] | zero[hi]
               for lo, hi in map(_edge_ends, range(grid.dimension))]
        self.cuts = ([c / (h * h) for c, h in zip(cut, grid.h)]
                     if zero.any() else [])
        self._metric = metric

    def apply(self, v: np.ndarray) -> np.ndarray:
        # the full stencil couples v_i to a cut neighbour by -v_j/h^2
        out = self.grid.laplacian(v).reshape(self.grid.shape)
        w = v.reshape(self.grid.shape)
        for axis, cut in enumerate(self.cuts):
            lo, hi = _edge_ends(axis)
            out[lo] += cut * w[hi]
            out[hi] += cut * w[lo]
        return out.reshape(-1)

    def residual(self, v: np.ndarray, p: float,
                 lam: float) -> tuple[np.ndarray, float]:
        """F(v) = D v + lam v - |v|^(p-2) v and its weighted L2 norm.

        On a field with this sign pattern F is the full-PDE residual on
        the nonzero nodes and zero on the pinned ones.
        """
        r = self.apply(v)
        r += lam * v
        r -= np.abs(v) ** (p - 2) * v
        return r, float(np.sqrt(self.grid.weight * dot(r, r)))

    def solve(self, shift: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
        """x with (D + diag(shift)) x = b, D this operator.

        The linearization has shift lambda - (p-1)|u|^(p-2) and is
        generally indefinite.  In 1D it is
        tridiagonal and solved by `_tridiagonal_solve`.  In 2D it is solved
        by MINRES to the relative preconditioned residual rtol.  Without
        a metric the preconditioner is the sine solve of
        A + max(shift, 0) I (the largest shift is lambda up to the
        smallest |u|), factored at the first solve and kept for the later
        ones on this partition.
        """
        g = self.grid
        if g.dimension == 1:
            h2 = g.h[0] * g.h[0]
            off = (np.where(self.cuts[0] > 0.0, 0.0, -1.0 / h2) if self.cuts
                   else np.full(g.n - 1, -1.0 / h2))
            return _tridiagonal_solve(2.0 / h2 + shift, off, b)
        if self._metric is None:
            self._metric = OperatorSolver(g, max(float(np.max(shift)), 0.0))

        def apply(v):
            out = self.apply(v)
            out += shift * v
            return out

        return _minres(apply, b, self._metric._raw_solve, rtol, _MINRES_STEPS)


def _edge_ends(axis: int) -> tuple[tuple, tuple]:
    """Indices of the lower and upper nodes of every edge along axis."""
    return ((slice(None),) * axis + (slice(None, -1),),
            (slice(None),) * axis + (slice(1, None),))


def _sign_pattern(v: np.ndarray) -> np.ndarray:
    """The signs of v as int8: +1, -1, or 0 on zero nodes."""
    return (v > 0.0).view(np.int8) - (v < 0.0).view(np.int8)


def newton(grid: Grid, u: np.ndarray, p: float, lam: float, tol: float,
           metric: OperatorSolver | None = None
           ) -> tuple[np.ndarray, float, int, str]:
    """Newton on D u + lam u = |u|^(p-2) u with u's zero nodes pinned.

    D is the stencil with those nodes cut out (`_FrozenPartition`), and
    u's sign pattern stays frozen; metric, if given, preconditions the 2D
    linearized solves.  Returns
    (best iterate, its residual, steps taken, stop reason).  The reason
    is "tol" once the residual reaches tol, "sign-flip" when a step
    changes the sign of a node, "stall" when a step fails to lower the
    residual, "singular" when the linearized solve is singular, and
    "step-cap" after _NEWTON_STEPS steps.
    """
    sign = _sign_pattern(u)
    frozen = _FrozenPartition(grid, sign, metric)
    r, res = frozen.residual(u, p, lam)
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
        try:
            trial = frozen.solve(lam - (p - 1) * np.abs(u) ** (p - 2),
                                 np.negative(r, out=r), rtol)
        except np.linalg.LinAlgError:
            reason = "singular"
            break
        del r  # negated in place as the solve's right-hand side
        trial[sign == 0] = 0.0
        trial += u
        if not np.array_equal(_sign_pattern(trial), sign):
            reason = "sign-flip"
            break
        r_trial, res_trial = frozen.residual(trial, p, lam)
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
    """Extended-precision solve of a symmetric tridiagonal system.

    Mixed-precision iterative refinement (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 12): one pivoted solve in double
    precision (`_tridiagonal_solve`), then corrections x <- x + solve(r)
    with the residual r formed in long double and each correction solved
    in double.  Refinement stops once the residual's max norm is within
    long-double precision of the right-hand side's, after _MAX_REFINE
    steps, or, as in LAPACK's xGERFS, when a step fails to halve it; a
    step that lowers it is kept all the same.  The pivoting keeps the
    solve stable on the indefinite linearizations of the 1D rounding
    polish, where double precision storage noise limits attainable
    residuals.  `diag` may vary per node (linearized operators); `off`
    is the off-diagonal.  Returns the solution in long double.
    """
    dl, d = off.astype(np.float64), diag.astype(np.float64)

    def residual(x):
        # formed in long double, rounded to double for the correction
        r = rhs - diag * x
        r[:-1] -= off * x[1:]
        r[1:] -= off * x[:-1]
        r = r.astype(np.float64)
        return r, np.max(np.abs(r))

    b = rhs.astype(np.float64)
    target = np.finfo(np.longdouble).eps * np.max(np.abs(b))
    x = _tridiagonal_solve(d, dl, b).astype(np.longdouble)
    r, rnorm = residual(x)
    for _ in range(_MAX_REFINE):
        if rnorm <= target:
            break
        x_new = x + _tridiagonal_solve(d, dl, r)
        r_new, rnorm_new = residual(x_new)
        if rnorm_new < rnorm:
            x, r = x_new, r_new
        if 2.0 * rnorm_new > rnorm:
            break
        rnorm = rnorm_new
    return x


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
