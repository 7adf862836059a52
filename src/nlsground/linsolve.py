"""Linear solves with the shifted operator A + c I on a grid.

The stencil has constant coefficients on a box, so the solve uses its
structure directly: in 1D A + c I is symmetric tridiagonal and is
factored once by LAPACK's LDL^T (dpttrf/dpttrs); in 2D it is diagonal in
the discrete sine basis, and a solve is a sine transform, a division by
the eigenvalues lambda_j(x) + lambda_l(y) + c and a second transform,
by pocketfft's real-to-real kernel (from scipy's extension file, loaded
alone at the first 2D solve; see `_pocketfft_dst`).  The LAPACK routines
come from scipy's _flapack extension file, loaded alone by `_extensions`
(importing scipy.linalg for them would add about 0.3 s to every
process), with OpenBLAS on one thread unless the caller chose a count:
the package calls no threaded BLAS routine.
A solve may be restricted to a class of fields that A maps to itself:
per axis, the fields even or odd about the centre of the box, and the
fields of a square odd under its transpose (the class TRANSPOSE), at
odd n also under its half-turn (both centre flips: DIAGONAL).  A solve
takes and returns values on its class's space, the grid or the Block
that stores the class (`grid.Grid.block`).  At odd n = 2m+1, a
class with a parity on every axis lives on its block of m+1 (even) or m
(odd) nodes per axis (`grid.Block`), half of an interval or a quarter
of a rectangle, and DIAGONAL on the half-turn block of rows 0..m.  In
1D the restricted operator is again tridiagonal there: an odd block's
last node is closed by the zero centre, and an even block's centre node
couples twice to the node before it, so its row, halved, makes the
system symmetric.  In 2D the solve transforms the quarter block alone:
DST-III forward and DST-II back along an even axis, DST-I both ways
along an odd one, about a fifth of the work of the full DST-I pair at
n=255.  A DIAGONAL field is w - w^T with w its (ODD, EVEN) part, and
its solve is s - s^T for s the quarter-block solve of w: one folded
pair too (`_diagonal_solve`).  At even n the 1D odd fields are fixed by
their first n // 2 nodes, closed by the mirror node, and every other 2D
solve is the full DST-I pair, projected onto its class, DIAGONAL by
the transpose alone, as TRANSPOSE.  The classes
come from the starts (`action.least_action_state`) and travel with the
states: a field mirrored from a Block records its class (`grid.Field`),
and a warm field or a state is solved on the class it records, or else
on the one its values are exactly in (`field_class`, `parity_class`);
on the grid a square's field odd under the transpose is preconditioned
in TRANSPOSE (`_metric`).  A solve is one
back-substitution with the factor: the direct solve is backward stable,
so refining it in double precision would gain almost nothing (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 12).  Solves are
bitwise deterministic for fixed inputs.

The same module holds the PDE residual A u + lambda u - |u|^(p-2) u
and the one linearized solve the package uses: the Jacobian of that
residual, the plain stencil plus a diagonal, solved by LAPACK's pivoted
tridiagonal dgtsv in 1D (on a Block, the closed half system) and by
MINRES preconditioned with the sine solve in 2D.  Newton's method on
that solve finishes the signed ground state (from a few fixed-point
steps, or at once from a continuation predictor) and the nodal one,
reporting why it stopped, and its solve of -u gives the tangent of a
branch of states: the exact slope of the mass and the predictor of the
next continuation step.  Each of them takes the grid
or the Block its fields live on, whose stencil and inner product it
uses throughout, so a solve on a class that folds at odd n runs on the
block alone; the stencil keeps every field of a class in it, bitwise.
A 1D residual, and a DIAGONAL one, is the grid's norm of the unfolded
residual, so such a state reports its field's residual exactly.  The
stencil image a residual applies also gives the Dirichlet energy
<A u, u> (`evaluate`), so each iterate's stencil runs once.  Each
long-double Newton step of the 1D rounding polish forms its residual in
long double and solves its correction once in double by dgtsv
(`solve_tridiagonal_longdouble`).
"""

from __future__ import annotations

import functools
import types

import numpy as np

from . import spectral
from ._extensions import lapack, load
from .errors import NoConvergence
from .grid import DIAGONAL, EVEN, ODD, TRANSPOSE, Block, Field, Grid, dot

dgtsv, dpttrf, dpttrs = lapack.dgtsv, lapack.dpttrf, lapack.dpttrs

# the class of the part that a solve in DIAGONAL transforms
_DIAGONAL_PART = (ODD, EVEN)
# the odd centre node of a 1D residual mirrored onto the grid
_ZERO = np.zeros(1)

# Newton steps per call and MINRES steps per 2D linearized solve
_NEWTON_STEPS = 8
_MINRES_STEPS = 200


class OperatorSolver:
    """Repeated solves of (A + c I) x = b on one grid, on a class of fields.

    The class is given per axis by parity, EVEN or ODD about the centre
    of the box or 0 (all fields); or parity is DIAGONAL, a square's
    fields odd under its transpose and, where solves fold, its
    half-turn, or TRANSPOSE, those odd under the transpose alone, which
    DIAGONAL becomes where solves do not fold.  c must keep the operator
    positive definite on the class (c > -lambda_1 of the discrete
    Laplacian, or > -lambda_2 for a class with an odd axis, DIAGONAL or
    TRANSPOSE); NoConvergence is raised otherwise.  The solver's `space`
    is where its fields live, `grid.block` of the class, and a solve
    takes and returns values on it.  At odd n = 2m+1 a class with a
    parity on every axis is folded: its fields live on the block of
    their first m+1 (even) or m (odd) nodes per axis (`grid.Block`); in
    1D the solve factors the closed half system, in 2D it transforms
    only that block, by DST-III and DST-I (`_fold_solve`).  DIAGONAL
    folds onto its half-turn block, through the quarter block of its
    (ODD, EVEN) part (`_diagonal_solve`).  Otherwise `space` is the
    grid: a 1D odd axis at even n is factored on its first n // 2 nodes
    and each solve mirrored onto the full grid, and each 2D solve is the
    full transform, projected onto the class (`project`).  An even axis
    counts only where solves fold; at even n, where no node lies on the
    centre, the solve keeps it up to rounding.  Each solve is one
    back-substitution with the factor.
    """

    def __init__(self, grid: Grid, c: float, parity=None):
        self.grid = grid
        self.c = float(c)
        folds = _folds(grid)
        if parity == DIAGONAL and not folds:
            parity = TRANSPOSE  # kept by the transpose alone
        # the class the solves keep, with the parities they use
        self.parity = parity if parity in (DIAGONAL, TRANSPOSE) else tuple(
            s if s == ODD or (s == EVEN and folds) else 0
            for s in parity or (0,) * grid.dimension)
        self.space = grid.block(self.parity)
        self._folded = self.space is not grid
        self._factorize()

    def _factorize(self):
        g = self.grid
        odd = self.parity in (DIAGONAL, TRANSPOSE) or ODD in self.parity
        # the closed-form eigenvalue decides c = -lambda_k exactly, where a
        # factorization would only see rounding noise
        bottom = spectral.lambda2(g) if odd else spectral.lambda1(g)
        definite = self.c > -bottom
        if definite and g.dimension == 1:
            h2 = g.h[0] * g.h[0]
            even_n_odd = odd and g.n % 2 == 0
            k = g.n // 2 if even_n_odd else self.space.shape[0]
            diag = np.full(k, 2.0 / h2 + self.c)
            if even_n_odd:
                diag[-1] += 1.0 / h2  # the mirror node holds -u_k
            elif self.space.mirror[0]:
                diag[-1] *= 0.5  # the even centre's row, halved
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
            # two unnormalized transforms multiply by 2(n+1) per axis; a
            # folded forward transform is half the full one per axis, and
            # a diagonal solve halves the part it transforms
            fold = 1.0
            if self._folded:
                diagonal = self.parity == DIAGONAL
                fold = 2.0 if diagonal else 4.0
                parity = _DIAGONAL_PART if diagonal else self.parity
                # an even field has only the odd-index modes, an odd one
                # only the even-index ones
                lam_x, lam_y = (lam[0::2] if s == EVEN else lam[1::2]
                                for lam, s in zip((lam_x, lam_y), parity))
            denom = (2.0 * (g.n + 1)) ** 2 * (lam_x[:, None] + lam_y[None, :]
                                              + self.c)
            # on odd fields c may be -lambda_1, whose mode (1, 1) is even
            # under every reflection: its factor is 0, not 1/0
            self._factor = np.divide(fold, denom,
                                     out=np.zeros_like(denom),
                                     where=denom != 0.0)
        if not definite:
            raise NoConvergence(
                f"operator A + ({self.c}) I is not positive definite")

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if self.grid.dimension == 2:
            shape = self.space.shape
            if not self._folded:
                x = _dst_axes(b.reshape(shape), [1, 1], np.empty(shape))
                x *= self._factor
                return self.project(_dst_axes(x, [1, 1], x).reshape(-1))
            b = b.reshape(shape)
            if self.parity == DIAGONAL:
                return _diagonal_solve(b, self._factor).reshape(-1)
            return _fold_solve(b, self.parity, self._factor).reshape(-1)
        d, e = self._factor
        if self.parity[0] and not self._folded:
            # odd fields at even n
            k = d.size
            x = np.empty_like(b)
            half = b[:k] - b[::-1][:k]
            half *= 0.5
            x[:k] = dpttrs(d, e, half)[0]
            x[-k:] = -x[k - 1::-1]
            return x
        if self.space.mirror[0]:
            b = b.copy()
            b[-1] *= 0.5  # the even centre's row, halved as in the factor
        return b / d if d.size == 1 else dpttrs(d, e, b)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (A + c I) x = b, on the solver's class of fields."""
        return self._raw_solve(b)

    def project(self, x: np.ndarray) -> np.ndarray:
        """The part of the flat grid array x in the class, exactly in it.

        Per axis with a parity, (x + s R x) / 2 with s = +1 (even) or -1
        (odd) and R the axis's flip; for TRANSPOSE, the odd part under
        the transpose, and for DIAGONAL, that part's odd part under the
        half-turn; x itself if nothing is kept.
        """
        a = x.reshape(self.grid.shape)
        if self.parity in (DIAGONAL, TRANSPOSE):
            a = _part(a, a.T, ODD)
            if self.parity == DIAGONAL:
                a = _part(a, a[::-1, ::-1], ODD)
            return a.reshape(-1)
        for axis, s in enumerate(self.parity):
            if s:
                a = _part(a, np.flip(a, axis), s)
        return a.reshape(-1)


def shifted_solver(grid: Grid, c: float, parity=None) -> OperatorSolver:
    """OperatorSolver for A + c I on the class parity."""
    return OperatorSolver(grid, c, parity)


def parity_class(grid: Grid, x: np.ndarray):
    """The class x is exactly in, where a solve folds it (odd n).

    Per axis, EVEN or ODD if x is exactly that about the box centre, by
    exact comparison with x's flip, and 0 otherwise; or DIAGONAL, for a
    field of a square with no parity on either axis that is exactly odd
    under the transpose and the half-turn.  Every axis reads 0 where a
    solve does not fold.
    """
    if not _folds(grid):
        return (0,) * grid.dimension
    a = x.reshape(grid.shape)
    flips = (a[::-1],) if a.ndim == 1 else (a[::-1], a[:, ::-1])
    cls = tuple(EVEN if (a == flip).all() else ODD if (a == -flip).all()
                else 0 for flip in flips)
    if (cls == (0, 0) and grid.h[0] == grid.h[1]
            and (a == -a.T).all() and (a == -a[::-1, ::-1]).all()):
        return DIAGONAL
    return cls


def field_class(u: Field):
    """The class the field u is exactly in, where a solve folds it.

    The class u records (`grid.Field`), or else `parity_class` of its
    values, also where u records a class that does not fold at odd n:
    its values may be in one that does, whose solves live on a Block.
    """
    grid, cls = u.grid, u.parity
    if cls is None or (_folds(grid) and grid.block(cls) is grid):
        return parity_class(grid, u.values)
    return cls


def _folds(grid: Grid) -> bool:
    """Whether a solve on grid folds: at odd n, with a centre node."""
    return grid.n % 2 == 1


def _part(a: np.ndarray, mirror: np.ndarray, s: int) -> np.ndarray:
    """(a + s R a) / 2 for mirror = R a: exactly even (s = 1) or odd."""
    out = a + mirror if s == EVEN else a - mirror
    out *= 0.5
    return out


def _fold_solve(b: np.ndarray, parity: tuple, factor: np.ndarray
                ) -> np.ndarray:
    """The sine solve in a parity class at odd n, on its quarter block b.

    Along an axis of n = 2m+1 nodes, the DST-I of an even field is twice
    the DST-III of its first m+1 values at the odd-index modes, and that
    of an odd field twice the DST-I of its first m values at the
    even-index modes (Martucci, IEEE Trans. Signal Process. 42, 1994);
    DST-II and DST-I take the modes back, onto the block.  factor holds
    the 4 of the two folds.
    """
    y = _dst_axes(b, [3 if s == EVEN else 1 for s in parity],
                  np.empty(factor.shape))
    y *= factor
    return _dst_axes(y, [2 if s == EVEN else 1 for s in parity], y)


def _diagonal_solve(b: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """The sine solve of DIAGONAL at odd n, on its half-turn block b.

    A field u odd under the transpose T and the half-turn is w - Tw,
    with w its (ODD, EVEN) part, which is (u_ij + u_i,n-1-j) / 2 on
    that class's quarter block; A commutes with T, so the solve of u
    is s - Ts for s the folded solve of w (`_fold_solve`; factor holds
    the 1/2).  Its rows 0..m are formed from s, s's first m columns a
    and its centre column c (s is even along the second axis and 0 on
    the centre row): a - a^T and, past the centre column, a + a^T with
    its columns reversed; c, and on the centre row -c and c reversed.
    Every node is a difference or sum of the same two values as at its
    image under T or the half-turn, so the result is exactly in the
    class.
    """
    m = len(b) - 1
    s = _fold_solve(b[:m, :m + 1] + b[:m, :m - 1:-1], _DIAGONAL_PART, factor)
    a, c = s[:, :m], s[:, m]
    out = np.empty_like(b)
    np.subtract(a, a.T, out=out[:m, :m])
    np.add(a[:, ::-1], a[::-1].T, out=out[:m, m + 1:])
    out[:m, m] = c
    np.negative(c, out=out[m, :m])
    out[m, m] = 0.0
    out[m, m + 1:] = c[::-1]
    return out


def _dst_axes(u: np.ndarray, kinds: list, out: np.ndarray) -> np.ndarray:
    """Unnormalized DST of type kinds[k] along axis k of u, into out.

    out may be u; the DST-I applied twice multiplies by 2(n+1).
    """
    dst = _pocketfft_dst()
    if kinds[0] == kinds[1]:
        dst(u, kinds[0], (0, 1), 0, out, 1)
    else:
        dst(u, kinds[0], (0,), 0, out, 1)
        dst(out, kinds[1], (1,), 0, out, 1)
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


def residual(space: Grid | Block, v: np.ndarray, p: float, lam: float,
             av: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """F(v) = A v + lam v - |v|^(p-2) v and its weighted L2 norm.

    space is the grid, or the Block v lives on; av is the stencil's
    image A v if the caller has applied it.  The stencil gives the
    unfolded field's F node for node, and on a 1D Block and on the
    half-turn block of DIAGONAL the norm is the grid's of F unfolded, so
    those states report their field's residual bitwise; a 2D parity
    class's is the weighted sum, the grid's up to the order of the sum.
    """
    if av is None:
        r = space.laplacian(v)
        r += lam * v
    else:
        r = lam * v
        r += av
    r -= np.abs(v) ** (p - 2) * v
    if isinstance(space, Block) and space.dimension == 1:
        # F mirrored onto the interval past an even centre, or past an
        # odd one's zero centre with the signs, which do not change the
        # squares, left as they are
        full = np.concatenate((r, r[-2::-1]) if space.mirror[0]
                              else (r, _ZERO, r[::-1]))
    elif isinstance(space, Block) and space.parity == DIAGONAL:
        full = space.unfold(r)
    else:
        return r, float(np.sqrt(space.weight * space.dot(r, r)))
    return r, float(np.sqrt(space.weight * dot(full, full)))


def evaluate(space: Grid | Block, v: np.ndarray, p: float, lam: float
             ) -> tuple[np.ndarray, float, float]:
    """(F(v), its norm as `residual` has it, space.grad_sq(v)).

    One stencil application gives both the residual and the Dirichlet
    energy <A v, v>, bitwise as each alone would; the image is dropped
    on return.
    """
    av = space.laplacian(v)
    r, res = residual(space, v, p, lam, av)
    return r, res, space.grad_sq(v, av)


def linearized_solve(space: Grid | Block, shift: np.ndarray, b: np.ndarray,
                     rtol: float, metric: OperatorSolver | None = None
                     ) -> np.ndarray:
    """x with (A + diag(shift)) x = b, on the grid or Block space.

    The linearization of the PDE at u has shift lambda - (p-1)|u|^(p-2)
    and is generally indefinite.  In 1D it is tridiagonal and solved by
    `_tridiagonal_solve`, on a Block with an even centre's row halved
    as in `OperatorSolver`.  In 2D it is solved by MINRES to the relative
    preconditioned residual rtol, in space's inner product, preconditioned
    by metric's sine solve, which must live on space; without a metric,
    by that of A + max(shift, 0) I (the largest shift is lambda up to the
    smallest |u|) on b's class (`_metric`), factored here.  The
    preconditioner must be definite on every field MINRES builds, so
    shift must be exactly even about the centre wherever b has a parity,
    and even under the transpose where b is odd under it, as it is for
    the tangent solve of -u.
    """
    if space.dimension == 1:
        h2 = space.h[0] * space.h[0]
        diag = 2.0 / h2 + shift
        if space.mirror[0]:
            diag[-1] *= 0.5
            b = b.copy()
            b[-1] *= 0.5
        return _tridiagonal_solve(diag, np.full(b.size - 1, -1.0 / h2), b)
    if metric is None:
        metric = _metric(space, shift, b)

    def apply(v):
        out = space.laplacian(v)
        out += shift * v
        return out

    return _minres(apply, b, metric._raw_solve, rtol, _MINRES_STEPS,
                   space.dot)


def _metric(space: Grid | Block, shift: np.ndarray, x: np.ndarray
            ) -> OperatorSolver:
    """The sine solver of A + max(shift, 0) I on x's class of fields.

    It preconditions a linearized solve of fields of that class, on
    space.  On a Block the class is the block's.  On the grid it is
    TRANSPOSE if x is a square's field exactly odd under the transpose,
    and else the class x is exactly in (`parity_class`).  The stencil
    keeps every field of that class in it, bitwise.
    """
    c = max(float(np.max(shift)), 0.0)
    if isinstance(space, Block):
        return OperatorSolver(space.grid, c, space.parity)
    a = x.reshape(space.shape)
    odd_t = (space.dimension == 2 and space.h[0] == space.h[1]
             and np.array_equal(a, -a.T))
    return OperatorSolver(space, c, TRANSPOSE if odd_t
                          else parity_class(space, x))


def _sign_pattern(v: np.ndarray) -> np.ndarray:
    """The signs of v as int8: +1, -1, or 0 on zero nodes."""
    return (v > 0.0).view(np.int8) - (v < 0.0).view(np.int8)


def newton(space: Grid | Block, u: np.ndarray, p: float, lam: float,
           tol: float, metric: OperatorSolver | None = None
           ) -> tuple[np.ndarray, float, int, str, float]:
    """Newton on A u + lam u = |u|^(p-2) u, keeping u's sign pattern.

    u lives on space, the grid or a Block.  Each step is one
    `linearized_solve` of the plain stencil's Jacobian; metric, if
    given, preconditions the 2D solves, which otherwise share one
    preconditioner factored at the first step on u's class, so a start
    that already meets tol factors nothing.  A step leaves u's zero nodes
    exactly zero.  The stencil maps fields odd under a reflection of the
    box to odd fields, so from an odd u, zero on the reflection's fixed
    nodes, the iterates stay odd up to the solves' rounding and exactly
    zero there; with a preconditioner on u's class they stay exactly in
    it.  Returns (best iterate, its residual, steps taken, stop reason,
    its Dirichlet energy), the last from the stencil its residual
    applied (`evaluate`).
    The reason is "tol" once the residual reaches tol, "sign-flip" when
    a step changes the sign of a node, "stall" when a step fails to
    lower the residual, "singular" when the linearized solve is
    singular, and "step-cap" after _NEWTON_STEPS steps.
    """
    sign = _sign_pattern(u)
    r, res, grad = evaluate(space, u, p, lam)
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
        if metric is None and space.dimension == 2:
            metric = _metric(space, shift, u)
        try:
            trial = linearized_solve(space, shift, np.negative(r, out=r),
                                     rtol, metric)
        except np.linalg.LinAlgError:
            reason = "singular"
            break
        del r, shift  # r negated in place as the solve's right-hand side
        trial[sign == 0] = 0.0
        trial += u
        if not (_sign_pattern(trial) == sign).all():
            reason = "sign-flip"
            break
        r_trial, res_trial, grad_trial = evaluate(space, trial, p, lam)
        if not res_trial < res:
            reason = "stall"
            break
        u, r, res, grad = trial, r_trial, res_trial, grad_trial
    return u, res, step, reason, grad


def _minres(apply, b: np.ndarray, precond, rtol: float, maxiter: int,
            dot=dot) -> np.ndarray:
    """Preconditioned MINRES (Paige and Saunders) for symmetric apply.

    apply must be symmetric and precond symmetric positive definite in
    the inner product dot; they must return new arrays, which are then
    updated in place, so seven vectors are live besides b.  Stops once
    the preconditioned residual norm falls to rtol times its initial
    value, or after maxiter steps.
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
    unchanged.  dgtsv rejects the empty off-diagonal of one node, whose
    equation is solved by a division.
    """
    if b.size == 1:
        if diag[0] == 0.0:
            raise np.linalg.LinAlgError("singular 1 x 1 matrix")
        return b / diag
    x, info = dgtsv(off, diag, off, b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal matrix (pivot {info})")
    return x
