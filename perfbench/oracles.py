"""Reference computations made apart from nlsground.

Nothing here imports the package under test.  Fields are plain numpy
arrays of interior values on a uniform grid with spacing h per axis and
implicit zero boundary values; sums use the product weight h^N, as the
package's quadrature does.
"""

from __future__ import annotations

import math

import numpy as np

# Mass of the critical soliton Q = (3 / cosh^2(2x))^(1/4) of
# -u'' + u = u^5 on the line, the 1D critical mass constant:
# the integral of Q^2 = sqrt(3) / cosh(2x) over the line.
SOLITON_MASS_1D = math.sqrt(3.0) * math.pi / 2.0


def dirichlet_eigenvalue_1d(j: int, n: int, length: float = 1.0) -> float:
    """j-th eigenvalue of the 3-point Dirichlet stencil on n interior nodes.

    The tridiagonal matrix is diagonalized by the discrete sine basis:
    (2/h^2)(1 - cos(j pi h / L)) with h = L / (n + 1).
    """
    h = length / (n + 1)
    return 2.0 / (h * h) * (1.0 - math.cos(j * math.pi * h / length))


def dirichlet_eigenvalues_2d(k: int, n: int, lx: float = 1.0,
                             ly: float = 1.0) -> list[float]:
    """The k smallest eigenvalues of the 5-point stencil on an n x n grid.

    The 2D operator is the Kronecker sum of the two axis operators, so
    its eigenvalues are the per-axis sums, with multiplicity.
    """
    m = k + 1
    sums = sorted(dirichlet_eigenvalue_1d(i, n, lx) + dirichlet_eigenvalue_1d(j, n, ly)
                  for i in range(1, m + 1) for j in range(1, m + 1))
    return sums[:k]


def neg_laplacian(values: np.ndarray, h: tuple) -> np.ndarray:
    """Negative 3-/5-point Laplacian with zero boundary, same shape out."""
    u = np.pad(values, 1)
    out = np.zeros_like(values)
    for axis, hx in enumerate(h):
        lo = [slice(1, -1)] * values.ndim
        hi = [slice(1, -1)] * values.ndim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out += (2.0 * values - u[tuple(lo)] - u[tuple(hi)]) / (hx * hx)
    return out


def pde_residual(values: np.ndarray, h: tuple, p: float, lam: float,
                 mask: np.ndarray | None = None) -> float:
    """Weighted L2 norm of -Lap u + lam u - |u|^(p-2) u, optionally on a mask."""
    r = neg_laplacian(values, h) + lam * values - np.abs(values) ** (p - 2) * values
    if mask is not None:
        r = np.where(mask, r, 0.0)
    return math.sqrt(math.prod(h) * float(np.sum(r * r)))


def partwise_residual(values: np.ndarray, h: tuple, p: float, lam: float) -> float:
    """Residual of each sign part on its own support, combined.

    The optimality measure of the sign-changing problem over the
    partwise constraint set: each part solves the equation where it is
    nonzero, with the other part treated as zero.
    """
    plus = np.maximum(values, 0.0)
    minus = np.minimum(values, 0.0)
    res_plus = pde_residual(plus, h, p, lam, mask=plus != 0.0)
    res_minus = pde_residual(minus, h, p, lam, mask=minus != 0.0)
    return math.hypot(res_plus, res_minus)


def nehari_sums(values: np.ndarray, h: tuple, p: float) -> tuple[float, float, float]:
    """(grad_sq, l2_sq, lp_p) with the weight h^N.

    grad_sq is the sum of squared first differences (boundary zeros
    included), which equals <A u, u> by summation by parts; it is not
    evaluated through any stencil application.
    """
    w = math.prod(h)
    u = np.pad(values, 1)
    grad = 0.0
    for axis, hx in enumerate(h):
        d = np.diff(u, axis=axis)
        keep = [slice(1, -1)] * values.ndim
        keep[axis] = slice(None)
        grad += float(np.sum(d[tuple(keep)] ** 2)) / (hx * hx)
    return w * grad, w * float(np.sum(values * values)), w * float(np.sum(np.abs(values) ** p))


def nehari_gap(values: np.ndarray, h: tuple, p: float, lam: float) -> float:
    """|grad_sq + lam l2_sq - lp_p| / lp_p: zero on the constraint manifold."""
    grad, l2, lp = nehari_sums(values, h, p)
    return abs(grad + lam * l2 - lp) / lp


def action(values: np.ndarray, h: tuple, p: float, lam: float) -> float:
    """(1/2) grad_sq + (lam/2) l2_sq - (1/p) lp_p from the Nehari sums."""
    grad, l2, lp = nehari_sums(values, h, p)
    return 0.5 * grad + 0.5 * lam * l2 - lp / p


def pohozaev_residual_1d(values: np.ndarray, h: float, a: float, b: float,
                         p: float, lam: float) -> float:
    """Relative residual of the boundary-weighted identity on (a, b).

    For solutions of -u'' + lam u = |u|^(p-2) u with u(a) = u(b) = 0 and
    c the midpoint: -G/2 - P/p + lam M/2 + (u'(a)^2 (c-a) + u'(b)^2 (b-c))/2
    vanishes, G, M, P being the Nehari sums.  Boundary slopes are
    second-order one-sided differences, so on a discrete solution the
    residual decays like h^2.
    """
    grad, l2, lp = nehari_sums(values, (h,), p)
    c = 0.5 * (a + b)
    du_a = (4.0 * values[0] - values[1]) / (2.0 * h)
    du_b = (4.0 * values[-1] - values[-2]) / (2.0 * h)
    boundary = du_a * du_a * (c - a) + du_b * du_b * (b - c)
    identity = -0.5 * grad - lp / p + 0.5 * lam * l2 + 0.5 * boundary
    return abs(identity) / lp


def sign_changes_1d(values: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Sign changes along a 1D field, ignoring values below rel_tol * max."""
    thr = rel_tol * float(np.max(np.abs(values)))
    signs = np.sign(values[np.abs(values) > thr])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def richardson_ratio(coarse: float, mid: float, fine: float) -> float:
    """(J_h - J_h/2) / (J_h/2 - J_h/4): 2^order for a converging sequence."""
    return (coarse - mid) / (mid - fine)


def observed_order(err_coarse: float, err_fine: float) -> float:
    """log2 of the error ratio between a grid and its halving."""
    return math.log2(err_coarse / err_fine)
