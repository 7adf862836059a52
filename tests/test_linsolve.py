import numpy as np
import pytest

from nlsground import DomainSpec, NoConvergence, build_grid, lambda1
from nlsground.linsolve import shifted_solver

# Independent oracle: the assembled dense stencil matrix, solved by LAPACK
# through numpy.  Row-major flattening puts the x index first, so the x
# operator acts on the first kron factor.


def dense_operator(grid, c):
    def second_difference(h):
        n = grid.n
        return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / (h * h)

    if grid.dimension == 1:
        return second_difference(grid.h[0]) + c * np.eye(grid.n)
    eye = np.eye(grid.n)
    return (np.kron(second_difference(grid.h[0]), eye)
            + np.kron(eye, second_difference(grid.h[1]))
            + c * np.eye(grid.size))


GRIDS = {
    "interval-31": (DomainSpec.interval(0.0, 1.0), 31),
    "rectangle-12": (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 12),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("shift", ["near-threshold", "zero", "positive"])
def test_matches_dense_solve(name, shift):
    grid = build_grid(*GRIDS[name])
    c = {"near-threshold": -0.9 * lambda1(grid), "zero": 0.0,
         "positive": 10.0}[shift]
    b = np.random.default_rng(7).standard_normal(grid.size)
    x = shifted_solver(grid, c).solve(b)
    ref = np.linalg.solve(dense_operator(grid, c), b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_indefinite_shift_raises(name):
    grid = build_grid(*GRIDS[name])
    lam1 = lambda1(grid)
    for c in (-lam1, -1.5 * lam1):
        with pytest.raises(NoConvergence):
            shifted_solver(grid, c)


def test_zero_rhs_gives_zero():
    grid = build_grid(*GRIDS["rectangle-12"])
    x = shifted_solver(grid, 1.0).solve(np.zeros(grid.size))
    assert not np.any(x)


def test_refinement_stops_at_the_rounding_floor(grid2047):
    # the 1e-13 relative target is below the attainable floor at n=2047
    # for a positive right-hand side; refinement must stop once it stalls
    solver = shifted_solver(grid2047, 10.0)
    raw = solver._raw_solve
    calls = []

    def counted(b):
        calls.append(b.size)
        return raw(b)

    solver._raw_solve = counted
    b = np.sin(np.pi * grid2047.coords[0]) ** 3
    x = solver.solve(b)
    assert 2 <= len(calls) <= 3
    r = b - solver.apply(x)
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)
