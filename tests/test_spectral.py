import importlib

import numpy as np
import pytest

from nlsground import (DomainSpec, Grid, InvalidSpec, dirichlet_eigenpairs,
                       lambda1, lambda2)
from nlsground.spectral import sine_mode

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


def test_thresholds_computed_once_per_grid(monkeypatch):
    # every solve checks its frequency against lambda_1 or lambda_2: they
    # are the sums of the axes' closed forms, computed once per grid
    from nlsground import spectral

    grids = [Grid(DomainSpec.interval(0.0, 1.3), 257),
             Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 65),
             Grid(DomainSpec.rectangle(0.0, 1.2, 0.0, 0.7), 33)]
    j = np.arange(1, 3)
    for grid in grids:
        axes = [spectral.axis_eigenvalues(grid.n, h, j).tolist()
                for h in grid.h]
        ref1 = sum(lam[0] for lam in axes)
        ref2 = (axes[0][1] if grid.dimension == 1 else
                min(axes[0][0] + axes[1][1], axes[0][1] + axes[1][0]))
        calls = []
        closed_form = spectral.axis_eigenvalues
        monkeypatch.setattr(spectral, "axis_eigenvalues", lambda *args:
                            calls.append(1) or closed_form(*args))
        values = [(lambda1(grid), lambda2(grid)) for _ in range(3)]
        values.append((lambda1(Grid(grid.spec, grid.n)),
                       lambda2(Grid(grid.spec, grid.n))))
        monkeypatch.undo()
        assert values == [(ref1, ref2)] * 4
        assert len(calls) <= grid.dimension


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


def _axis_sine(n, k):
    """sin(k (i pi/(n+1))): the axis mode with k applied last."""
    return np.sin(k * (np.arange(1, n + 1) * (np.pi / (n + 1))))


@pytest.mark.parametrize("box, sizes", [
    ((0.0, 1.0), (3, 64, 255, 4096)),
    ((0.0, 1.0, 0.0, 1.0), (15, 64)),
    ((0.0, 1.2, 0.0, 1.0), (15, 64)),
])
def test_sine_mode_builds_every_start_bitwise(box, sizes):
    # the cold signed start is the eigenvector of the first pair, and the
    # nodal starts are the lambda_2 modes as sin(k (i pi/(n+1))) forms
    # them: sine_mode forms (k i) pi/(n+1), which is the same double for
    # k = 1, 2, since scaling by 2 is exact
    first_mode = importlib.import_module("nlsground.action")._first_mode
    spec = (DomainSpec.interval(*box) if len(box) == 2
            else DomainSpec.rectangle(*box))
    for n in sizes:
        grid = Grid(spec, n)
        assert np.array_equal(first_mode(grid),
                              dirichlet_eigenpairs(grid, 1)[0].vector.values)
        i, c = np.arange(1, n + 1), np.pi / (n + 1)
        for k in (1, 2):
            assert np.array_equal(k * (i * c), (k * i) * c)
        if grid.dimension == 1:
            assert np.array_equal(sine_mode(grid, 2), _axis_sine(n, 2.0))
        else:
            plane = np.outer(_axis_sine(n, 1.0), _axis_sine(n, 2.0))
            assert np.array_equal(sine_mode(grid, 1, 2), plane.reshape(-1))
            assert np.array_equal(sine_mode(grid, 2, 1), plane.T.reshape(-1))
