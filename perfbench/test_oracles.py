"""The benchmark's oracles accept exact references and reject perturbed ones.

Reference solutions are made here with a dense Newton iteration, apart
from nlsground.  Run with: python3 -m pytest perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles


def dense_neg_laplacian(n: int, h: float) -> np.ndarray:
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)


def newton_solution(values: np.ndarray, h: float, p: float, lam: float) -> np.ndarray:
    """Discrete solution of -u'' + lam u = |u|^(p-2) u near `values`."""
    a = dense_neg_laplacian(values.size, h)
    u = values.copy()
    for _ in range(30):
        r = a @ u + lam * u - np.abs(u) ** (p - 2) * u
        if math.sqrt(h * float(r @ r)) < 1e-12:
            break
        jac = a + np.diag(lam - (p - 1) * np.abs(u) ** (p - 2))
        u = u - np.linalg.solve(jac, r)
    return u


@pytest.fixture(scope="module")
def positive_state():
    n, p, lam = 255, 4.0, 10.0
    h = 1.0 / (n + 1)
    x = h * np.arange(1, n + 1)
    u = newton_solution(6.0 * np.sin(np.pi * x), h, p, lam)
    assert np.min(u) > 0.0  # the positive solution, not the zero one
    return u, h, p, lam


def sine_mode(j: int, n: int) -> np.ndarray:
    x = np.arange(1, n + 1) / (n + 1)
    return np.sin(j * np.pi * x)


def test_closed_form_1d_matches_dense_spectrum_and_rejects_perturbed_value():
    n = 40
    h = 1.0 / (n + 1)
    dense = np.linalg.eigvalsh(dense_neg_laplacian(n, h))
    exact = [oracles.dirichlet_eigenvalue_1d(j, n) for j in range(1, 5)]
    np.testing.assert_allclose(exact, dense[:4], rtol=1e-12)
    v = sine_mode(2, n)
    v /= math.sqrt(h * float(v @ v))
    theta = h * float(v @ oracles.neg_laplacian(v, (h,)))
    r = oracles.neg_laplacian(v, (h,)) - theta * v
    residual = math.sqrt(h * float(r @ r))
    assert abs(theta - exact[1]) <= residual + 1e-12 * exact[1]
    assert abs(theta * (1 + 1e-6) - exact[1]) > residual + 1e-12 * exact[1]


def test_closed_form_2d_is_the_per_axis_sum_and_rejects_perturbed_value():
    n = 9
    h = 1.0 / (n + 1)
    t = dense_neg_laplacian(n, h)
    eye = np.eye(n)
    dense = np.linalg.eigvalsh(np.kron(t, eye) + np.kron(eye, t))
    exact = oracles.dirichlet_eigenvalues_2d(3, n)
    np.testing.assert_allclose(exact, dense[:3], rtol=1e-12)
    assert exact[1] == exact[2]  # lambda_12 = lambda_21 on the square
    assert not math.isclose(exact[1] * (1 + 1e-6), dense[1], rel_tol=1e-9)


def test_own_stencil_matches_dense_operator_in_1d_and_2d():
    rng = np.random.default_rng(0)
    n, h = 12, 1.0 / 13
    u = rng.standard_normal(n)
    np.testing.assert_allclose(oracles.neg_laplacian(u, (h,)),
                               dense_neg_laplacian(n, h) @ u, rtol=1e-12)
    u2 = rng.standard_normal((n, n))
    t = dense_neg_laplacian(n, h)
    np.testing.assert_allclose(oracles.neg_laplacian(u2, (h, h)),
                               t @ u2 + u2 @ t, rtol=1e-12, atol=1e-9)


def test_residual_accepts_solution_and_rejects_perturbed_field(positive_state):
    u, h, p, lam = positive_state
    assert oracles.pde_residual(u, (h,), p, lam) <= 1e-10
    bumped = u.copy()
    bumped[100] += 1e-6
    assert oracles.pde_residual(bumped, (h,), p, lam) > 1e-8


def test_partwise_residual_on_glued_nodal_field(positive_state):
    _, _, p, lam = positive_state
    h = 1.0 / 128  # 63 nodes on (0, 1/2), a zero node at 1/2, 63 on (1/2, 1)
    x = h * np.arange(1, 64)
    half = newton_solution(10.0 * np.sin(2.0 * np.pi * x), h, p, lam)
    assert np.min(half) > 0.0
    nodal = np.concatenate([half, [0.0], -half[::-1]])
    assert oracles.sign_changes_1d(nodal) == 1
    assert oracles.partwise_residual(nodal, (h,), p, lam) <= 1e-10
    tilted = nodal.copy()
    tilted[:63] *= 1.0 + 1e-7
    assert oracles.partwise_residual(tilted, (h,), p, lam) > 1e-8


def test_nehari_sums_close_on_solution_and_reject_scaled_field(positive_state):
    u, h, p, lam = positive_state
    grad, _, _ = oracles.nehari_sums(u, (h,), p)
    assert math.isclose(grad, h * float(u @ oracles.neg_laplacian(u, (h,))), rel_tol=1e-12)
    assert oracles.nehari_gap(u, (h,), p, lam) <= 1e-12
    assert oracles.nehari_gap(1.001 * u, (h,), p, lam) > 1e-10


def test_soliton_mass_and_critical_level():
    x = np.linspace(-20.0, 20.0, 400001)
    q2 = math.sqrt(3.0) / np.cosh(2.0 * x)
    assert math.isclose(float(np.trapezoid(q2, x)), oracles.SOLITON_MASS_1D, rel_tol=1e-9)
    # J(lambda) = lambda mu_N / 2 for the rescaled soliton on the line (p = 6)
    lam, n = 400.0, 8191
    h = 2.0 / (n + 1)
    xs = -1.0 + h * np.arange(1, n + 1)
    q = lam ** 0.25 * (3.0 / np.cosh(2.0 * math.sqrt(lam) * xs) ** 2) ** 0.25
    gap = abs(oracles.action(q, (h,), 6.0, lam) / lam - oracles.SOLITON_MASS_1D / 2)
    assert gap <= 1e-3
    wide = abs(oracles.action(1.2 * q, (h,), 6.0, lam) / lam - oracles.SOLITON_MASS_1D / 2)
    assert wide > 5e-2


def test_richardson_ratio_and_observed_order():
    def level(h, order):
        return 3.0 + 0.7 * h ** order
    hs = (1 / 64, 1 / 128, 1 / 256)
    assert 3.0 <= oracles.richardson_ratio(*(level(h, 2) for h in hs)) <= 5.0
    assert not 3.0 <= oracles.richardson_ratio(*(level(h, 1) for h in hs)) <= 5.0
    assert math.isclose(oracles.observed_order(4e-6, 1e-6), 2.0)


def test_pohozaev_residual_decays_and_rejects_scaled_field(positive_state):
    u, h, p, lam = positive_state
    fine = oracles.pohozaev_residual_1d(u, h, 0.0, 1.0, p, lam)
    half = newton_solution(u[1::2], 2 * h, p, lam)
    coarse = oracles.pohozaev_residual_1d(half, 2 * h, 0.0, 1.0, p, lam)
    assert fine <= 1e-3
    assert oracles.observed_order(coarse, fine) >= 1.0
    assert oracles.pohozaev_residual_1d(1.01 * u, h, 0.0, 1.0, p, lam) > 1e-3
