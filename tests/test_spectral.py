import numpy as np
import pytest

from nlsground import (DomainSpec, Grid, InvalidSpec, dirichlet_eigenpairs,
                       lambda1, lambda2)

from conftest import tridiag_eigenvalue


def test_matches_closed_form_stencil_values(grid255):
    pairs = dirichlet_eigenpairs(grid255, 4)
    for j, pair in enumerate(pairs, start=1):
        exact = tridiag_eigenvalue(j, grid255.n)
        assert abs(pair.value - exact) <= 1e-10 * exact


def test_continuum_convergence(grid2047):
    pairs = dirichlet_eigenpairs(grid2047, 2)
    assert abs(pairs[0].value - np.pi**2) <= 1e-5 * np.pi**2
    assert abs(pairs[1].value - 4 * np.pi**2) <= 1e-5 * 4 * np.pi**2


def test_unit_square_eigenvalues(unit_square):
    grid = Grid(unit_square, 63)
    pairs = dirichlet_eigenpairs(grid, 2)
    assert abs(pairs[0].value - 2 * np.pi**2) <= 1e-3 * 2 * np.pi**2
    assert abs(pairs[1].value - 5 * np.pi**2) <= 1e-3 * 5 * np.pi**2


def test_strict_ordering_on_rectangle():
    grid = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 31)
    pairs = dirichlet_eigenpairs(grid, 2)
    assert pairs[0].value < pairs[1].value


def test_first_eigenvector_positive(grid255, unit_square):
    assert np.all(dirichlet_eigenpairs(grid255, 1)[0].vector.values > 0.0)
    square = Grid(unit_square, 24)
    assert np.all(dirichlet_eigenpairs(square, 1)[0].vector.values > 0.0)


def test_normalization_orthogonality_residual(grid255):
    pairs = dirichlet_eigenpairs(grid255, 2)
    g = grid255
    for pair in pairs:
        assert g.l2_sq(pair.vector.values) == pytest.approx(1.0, rel=1e-12)
        assert pair.residual <= 1e-10 * pair.value
        # re-evaluated residual of the stored vector stays within the bound
        r = g.laplacian(pair.vector.values) - pair.value * pair.vector.values
        assert np.sqrt(g.weight * (r @ r)) <= 1e-10 * pair.value
    inner = g.weight * (pairs[0].vector.values @ pairs[1].vector.values)
    assert abs(inner) <= 1e-10


def test_repeated_calls_bitwise_identical(grid255, unit_square):
    for grid in (grid255, Grid(unit_square, 31)):
        a = dirichlet_eigenpairs(grid, 4)
        b = dirichlet_eigenpairs(grid, 4)
        for pa, pb in zip(a, b):
            assert pa.value == pb.value
            assert pa.residual == pb.residual
            assert np.array_equal(pa.vector.values, pb.vector.values)


def test_k_validation(grid255):
    with pytest.raises(InvalidSpec):
        dirichlet_eigenpairs(grid255, 0)
    with pytest.raises(InvalidSpec):
        dirichlet_eigenpairs(grid255, 5)


def test_thresholds_shortcuts(grid255):
    assert lambda1(grid255) == dirichlet_eigenpairs(grid255, 1)[0].value
    assert lambda2(grid255) == dirichlet_eigenpairs(grid255, 2)[1].value


def _dense_laplacian(grid):
    """Assembled stencil matrix, built independently of Grid.laplacian."""
    n = grid.n
    mats = [(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)
            for h in grid.h]
    if grid.dimension == 1:
        return mats[0]
    eye = np.eye(n)
    return np.kron(mats[0], eye) + np.kron(eye, mats[1])


def _unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("spec,n", [
    (DomainSpec.interval(0.0, 1.0), 31),
    (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 10),
])
def test_closed_form_matches_dense_eigh(spec, n):
    grid = Grid(spec, n)
    values, vectors = np.linalg.eigh(_dense_laplacian(grid))
    pairs = dirichlet_eigenpairs(grid, 4)
    assert np.all(np.diff(values[:5]) > 1e-6 * values[4])  # nondegenerate
    for j, pair in enumerate(pairs):
        assert abs(pair.value - values[j]) <= 1e-12 * values[j]
        v = _unit(pair.vector.values)
        assert min(np.linalg.norm(v - vectors[:, j]),
                   np.linalg.norm(v + vectors[:, j])) <= 1e-10


def test_square_tie_is_split_by_transpose_symmetry(unit_square):
    grid = Grid(unit_square, 10)
    values, vectors = np.linalg.eigh(_dense_laplacian(grid))
    pairs = dirichlet_eigenpairs(grid, 4)
    for j, pair in enumerate(pairs):
        assert abs(pair.value - values[j]) <= 1e-12 * values[j]
    # pairs 2 and 3 share lambda_12 = lambda_21
    assert pairs[1].value == pairs[2].value
    sym = pairs[1].vector.values.reshape(grid.shape)
    anti = pairs[2].vector.values.reshape(grid.shape)
    assert np.array_equal(sym, sym.T)
    assert np.array_equal(anti, -anti.T)
    space = vectors[:, 1:3]
    for pair in pairs[1:3]:
        v = _unit(pair.vector.values)
        assert np.linalg.norm(v - space @ (space.T @ v)) <= 1e-10
