import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import (DomainSpec, Field, Grid, GridMismatch, InvalidSpec,
                       load_field, node_count, norms, save_field, split)
from nlsground.linsolve import DIAGONAL, EVEN, ODD, OperatorSolver

from conftest import tridiag_eigenvalue


def test_unit_interval_n3():
    grid = Grid(DomainSpec.interval(0.0, 1.0), 3)
    assert grid.h == (0.25,)
    assert np.allclose(grid.coords[0], [0.25, 0.5, 0.75])
    assert grid.weight == 0.25


def test_unit_square_n4():
    grid = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 4)
    assert grid.size == 16
    assert grid.weight == pytest.approx(0.04, abs=1e-15)


def test_degenerate_bounds_rejected():
    with pytest.raises(InvalidSpec):
        DomainSpec.interval(1.0, 1.0)
    with pytest.raises(InvalidSpec):
        DomainSpec.interval(0.0, np.inf)
    with pytest.raises(InvalidSpec):
        Grid(DomainSpec.interval(0.0, 1.0), 2)


def test_star_center_must_be_interior():
    with pytest.raises(InvalidSpec):
        DomainSpec.interval(0.0, 1.0, star_center=1.0)
    spec = DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0)
    assert spec.star_center == (0.5, 1.0)


def test_laplacian_discrete_eigenrelation(grid511):
    # sampled sine modes are exact eigenvectors of the stencil
    for j in (1, 2, 3):
        u = grid511.sample(lambda x, j=j: np.sin(j * np.pi * x))
        exact = tridiag_eigenvalue(j, grid511.n)
        out = grid511.laplacian(u.values)
        assert np.max(np.abs(out - exact * u.values)) <= 1e-10 * exact


def test_laplacian_zero_field(grid255):
    zero = Field(grid255, np.zeros(grid255.size))
    assert np.all(grid255.laplacian(zero.values) == 0.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_laplacian_self_adjoint(seed):
    grid = Grid(DomainSpec.interval(-1.0, 2.0), 100)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.size)
    v = rng.standard_normal(grid.size)
    au_v = grid.weight * (grid.laplacian(u) @ v)
    u_av = grid.weight * (u @ grid.laplacian(v))
    scale = grid.l2_norm(u) * grid.l2_norm(v)
    assert abs(au_v - u_av) <= 1e-12 * scale


def test_laplacian_self_adjoint_2d():
    grid = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 24)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid.size)
    v = rng.standard_normal(grid.size)
    gap = abs(grid.weight * (grid.laplacian(u) @ v)
              - grid.weight * (u @ grid.laplacian(v)))
    assert gap <= 1e-12 * grid.l2_norm(u) * grid.l2_norm(v)


def _class_fields(bounds, seed):
    """(grid, class, field): projected random fields of the classes.

    Every class with a parity on both axes, at n = 3 (an odd axis's
    block has one node, an even one's two), 5 and 63, and both classes
    of the interval of the second axis at n = 3, 5 and 255.
    """
    rng = np.random.default_rng(seed)
    cases = [(Grid(DomainSpec.rectangle(*bounds), n), 2) for n in (3, 5, 63)]
    cases += [(Grid(DomainSpec.interval(*bounds[2:]), n), 1)
              for n in (3, 5, 255)]
    for grid, dim in cases:
        for cls in itertools.product((EVEN, ODD), repeat=dim):
            solver = OperatorSolver(grid, 1.0, cls)
            yield grid, cls, solver.project(rng.standard_normal(grid.size))


@pytest.mark.parametrize("bounds", [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.2)])
def test_folded_stencil_equals_full_stencil(bounds):
    # on a field exactly in a class with a parity on every axis, at odd
    # n the stencil of the block, mirrored, is the full stencil, and an
    # odd axis's centre line is exactly 0
    for grid, cls, v in _class_fields(bounds, 11):
        block = grid.block(cls)
        assert block.shape == tuple(grid.n // 2 + (s == EVEN) for s in cls)
        vb = block.restrict(v)
        assert vb.size == np.prod(block.shape)
        assert np.array_equal(block.unfold(vb), v)
        out = block.unfold(block.laplacian(vb))
        assert np.array_equal(out, grid.laplacian(v)), (grid.n, cls)
        a = out.reshape(grid.shape)
        for axis, s in enumerate(cls):
            if s == ODD:
                assert np.all(np.take(a, grid.n // 2, axis=axis) == 0.0)


@pytest.mark.parametrize("bounds", [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.2)])
def test_block_sums_equal_grid_sums(bounds):
    # every sum on a block weighs a node by the grid nodes it stands for,
    # so the block's norms, action and residual are the grid's up to the
    # order of the sum, and the block's residual is the grid's node for
    # node; a 1D block's residual norm is the grid's, bitwise
    from nlsground.action import _action
    from nlsground.linsolve import residual

    p, lam = 4.0, 10.0
    for grid, cls, v in _class_fields(bounds, 13):
        block = grid.block(cls)
        vb = block.restrict(v)
        pairs = [(block.l2_sq(vb), grid.l2_sq(v)),
                 (block.lp_p(vb, p), grid.lp_p(v, p)),
                 (block.lp_p(vb, 3.5), grid.lp_p(v, 3.5)),
                 (block.grad_sq(vb), grid.grad_sq(v)),
                 (_action(block, vb, p, lam), _action(grid, v, p, lam))]
        rb, res_b = residual(block, vb, p, lam)
        r, res = residual(grid, v, p, lam)
        pairs.append((res_b, res))
        for got, ref in pairs:
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (grid.n, cls)
        assert np.array_equal(block.unfold(rb), r)
        assert grid.dimension == 2 or res_b == res


@pytest.mark.parametrize("n", [3, 5, 63])
def test_half_turn_block_equals_grid(unit_square, n):
    # a field of the square odd under its transpose and its half-turn is
    # fixed by its rows 0..m at n = 2m+1: the half-turn block's stencil,
    # mirrored, is the full stencil node for node, its sums are the
    # grid's up to the order of the sum, and its residual norm is the
    # grid's bitwise
    from nlsground.action import _action
    from nlsground.linsolve import residual

    grid = Grid(unit_square, n)
    rng = np.random.default_rng(n)
    v = OperatorSolver(grid, 1.0, DIAGONAL).project(
        rng.standard_normal(grid.size))
    a = v.reshape(grid.shape)
    assert np.array_equal(a, -a.T) and np.array_equal(a, -a[::-1, ::-1])
    block = grid.block(DIAGONAL)
    assert block.shape == (n // 2 + 1, n) and grid.block(DIAGONAL) is block
    vb = block.restrict(v)
    assert np.array_equal(block.unfold(vb), v)
    out = block.unfold(block.laplacian(vb))
    assert np.array_equal(out, grid.laplacian(v))
    p, lam = 4.0, 10.0
    pairs = [(block.l2_sq(vb), grid.l2_sq(v)),
             (block.lp_p(vb, p), grid.lp_p(v, p)),
             (block.grad_sq(vb), grid.grad_sq(v)),
             (_action(block, vb, p, lam), _action(grid, v, p, lam))]
    for got, ref in pairs:
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
    rb, res_b = residual(block, vb, p, lam)
    r, res = residual(grid, v, p, lam)
    assert np.array_equal(block.unfold(rb), r) and res_b == res


def test_half_turn_block_needs_odd_n_on_a_square():
    for grid in (Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 64),
                 Grid(DomainSpec.rectangle(0.0, 1.2, 0.0, 1.0), 63)):
        assert grid.block(DIAGONAL) is grid


@pytest.mark.parametrize("bounds", [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.2)])
def test_stencil_ignores_classes_it_cannot_fold(bounds):
    # even n, a class with no parity on one axis, and 1D: the class
    # changes nothing, even on a field that is not in it
    rng = np.random.default_rng(12)
    cases = [(Grid(DomainSpec.rectangle(*bounds), 64), (EVEN, EVEN)),
             (Grid(DomainSpec.rectangle(*bounds), 64), (ODD, ODD)),
             (Grid(DomainSpec.rectangle(*bounds), 63), (0, EVEN)),
             (Grid(DomainSpec.rectangle(*bounds), 63), (ODD, 0)),
             (Grid(DomainSpec.interval(*bounds[2:]), 64), (EVEN,))]
    for grid, cls in cases:
        v = rng.standard_normal(grid.size)
        assert grid.block(cls) is grid
        assert (grid.laplacian(v, grid.block(cls)).tobytes()
                == grid.laplacian(v).tobytes())


def test_norms_of_first_sine_mode(grid511):
    # sqrt(2) sin(pi x): the discrete sums of sin^2 and sin^4 are exact,
    # so l2_sq = 1 and the quartic norm is 3/2 on every uniform grid
    phi = grid511.sample(lambda x: np.sqrt(2.0) * np.sin(np.pi * x))
    l2_sq, lp_p, grad_sq = norms(phi, 4.0)
    assert l2_sq == pytest.approx(1.0, rel=1e-13)
    assert lp_p == pytest.approx(1.5, rel=1e-13)
    lam1 = tridiag_eigenvalue(1, grid511.n)
    assert grad_sq == pytest.approx(lam1, rel=5e-12)
    assert grad_sq == pytest.approx(np.pi**2, rel=1e-4)


def test_norms_zero_and_validation(grid255):
    zero = Field(grid255, np.zeros(grid255.size))
    assert norms(zero, 4.0) == (0.0, 0.0, 0.0)
    with pytest.raises(InvalidSpec):
        norms(zero, 2.0)


@given(c=st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: abs(v) > 1e-3),
       seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_norms_homogeneity(c, seed, grid255):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid255.size)
    p = 4.0
    l2, lp, gr = norms(Field(grid255, vals), p)
    l2c, lpc, grc = norms(Field(grid255, c * vals), p)
    assert l2c == pytest.approx(c**2 * l2, rel=1e-12)
    assert lpc == pytest.approx(abs(c)**p * lp, rel=1e-12)
    assert grc == pytest.approx(c**2 * gr, rel=1e-12)


def test_quadrature_convergence_order(unit_interval):
    # smooth polynomial with known integrals; dyadic refinement triple
    exact = {"l2": 1.0 / 30.0, "lp": 1.0 / 630.0, "grad": 1.0 / 3.0}
    errors = {"l2": [], "lp": [], "grad": []}
    for n in (63, 127, 255):
        grid = Grid(unit_interval, n)
        u = grid.sample(lambda x: x * (1.0 - x))
        l2, lp, gr = norms(u, 4.0)
        errors["l2"].append(abs(l2 - exact["l2"]))
        errors["lp"].append(abs(lp - exact["lp"]))
        errors["grad"].append(abs(gr - exact["grad"]))
    for key, errs in errors.items():
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 1.9, (key, errs)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_split_reassembles_bitwise(seed, grid255):
    rng = np.random.default_rng(seed)
    u = Field(grid255, rng.standard_normal(grid255.size))
    plus, minus = split(u)
    assert np.all(plus.values >= 0.0)
    assert np.all(minus.values <= 0.0)
    assert np.array_equal(plus.values + minus.values, u.values)


def test_split_sign_structure(grid511):
    u = grid511.sample(lambda x: np.sin(2.0 * np.pi * x))
    plus, minus = split(u)
    x = grid511.coords[0]
    assert np.all(plus.values[x > 0.5 + grid511.h[0]] == 0.0)
    assert np.all(minus.values[x < 0.5 - grid511.h[0]] == 0.0)
    nonneg = Field(grid511, np.abs(u.values))
    _, neg = split(nonneg)
    assert np.all(neg.values == 0.0)


def test_node_count_1d(grid511):
    assert node_count(grid511.sample(lambda x: np.sin(2 * np.pi * x))) == 1
    assert node_count(grid511.sample(lambda x: np.sin(3 * np.pi * x))) == 2
    assert node_count(grid511.sample(lambda x: np.abs(np.sin(np.pi * x)))) == 0
    assert node_count(Field(grid511, np.zeros(grid511.size))) == 0


def _node_count_by_float_signs(vals: np.ndarray) -> int:
    """The 1D count as np.sign times the threshold mask formed it."""
    thr = 1e-9 * float(np.max(np.abs(vals)))
    signs = np.sign(vals) * (np.abs(vals) > thr)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-9, -1e-9, 2e-9, -2e-9,
                                 5e-10, -5e-10, 0.3, -0.7]),
                min_size=3, max_size=40),
       st.floats(1e-300, 1e300))
def test_node_count_1d_matches_float_signs(pattern, scale):
    # exact zeros and values at, just above and just below 1e-9 max|u|,
    # which count as zeros, are among the values
    vals = scale * np.array(pattern)
    if not np.any(vals):
        vals[0] = scale
    u = Field(Grid(DomainSpec.interval(0.0, 1.0), vals.size), vals)
    assert node_count(u) == _node_count_by_float_signs(u.values)


def test_dot_is_einsum_bitwise():
    # the inner products call einsum's C kernel, which np.einsum calls
    # without optimize: the same sums, bit for bit, from 1 to 5000 nodes
    from nlsground.grid import dot

    rng = np.random.default_rng(7)

    def values(n):
        return rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n)

    for n in (1, 2, 3, 17, 128, 255, 1000, 4097, 5000):
        x, y = values(n), values(n)
        assert dot(x, y) == float(np.einsum("i,i->", x, y))
    blocks = [Grid(DomainSpec.interval(0.0, 1.0), n).block((s,))
              for n in (3, 5, 35, 255, 2001, 9999) for s in (EVEN, ODD)]
    square = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 63)
    blocks += [square.block(cls) for cls in ((EVEN, EVEN), (ODD, EVEN),
                                              DIAGONAL)]
    assert {b.shape[0] for b in blocks} >= {1, 2, 5000}
    for block in blocks:
        x, y = values(block._mult.size), values(block._mult.size)
        assert block.dot(x, y) == float(
            np.einsum("i,i,i->", block._mult, x, y))


def test_node_count_2d(unit_square):
    grid = Grid(unit_square, 31)
    u = grid.sample(lambda x, y: np.sin(2 * np.pi * x) * np.sin(np.pi * y))
    assert node_count(u) == 1
    u4 = grid.sample(lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert node_count(u4) == 3


def _bfs_components(u: np.ndarray, thr: float) -> int:
    """Reference count: breadth-first search over {u > thr} and {u < -thr}."""
    count = 0
    for mask in (u > thr, u < -thr):
        seen = np.zeros_like(mask, dtype=bool)
        nx, ny = mask.shape
        for i in range(nx):
            for j in np.flatnonzero(mask[i]):
                if seen[i, j]:
                    continue
                count += 1
                queue = deque([(i, int(j))])
                seen[i, j] = True
                while queue:
                    a, b = queue.popleft()
                    for c, d in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                        if 0 <= c < nx and 0 <= d < ny and mask[c, d] and not seen[c, d]:
                            seen[c, d] = True
                            queue.append((c, d))
    return count


def _rings() -> np.ndarray:
    """Nested rings with holes, of both signs, on a 21 x 21 array."""
    r = np.hypot(*np.meshgrid(np.arange(21) - 10.0, np.arange(21) - 10.0))
    return (np.where((r > 3) & (r < 6), 1.0, 0.0)
            - np.where((r > 7) & (r < 9), 1.0, 0.0)
            + np.where(r < 1.5, 1.0, 0.0))


def _oracle_shapes():
    rng = np.random.default_rng(11)
    shapes = [rng.standard_normal((nx, ny))
              for nx, ny in rng.integers(1, 24, size=(40, 2))]
    shapes += [rng.standard_normal((1, k)) for k in (1, 2, 9)]
    shapes += [rng.standard_normal((k, 1)) for k in (1, 2, 9)]
    shapes.append(_rings())
    # a snake: one component whose rows split into many runs
    snake = -np.ones((15, 15))
    snake[1::2, :] = 1.0
    snake[2::4, 0] = 1.0
    snake[4::4, -1] = 1.0
    shapes.append(snake)
    shapes.append(np.indices((12, 12)).sum(axis=0) % 2 - 0.5)  # checkerboard
    # one-signed, as a signed state is
    shapes += [np.ones((7, 5)), -np.ones((4, 9))]
    return shapes


def test_component_count_matches_search():
    from nlsground.grid import _count_components_2d

    for u in _oracle_shapes():
        scale = float(np.max(np.abs(u)))
        for thr in (0.0, 0.3 * scale, 0.9 * scale, 2.0 * scale):
            assert _count_components_2d(u, thr) == _bfs_components(u, thr)


def test_node_count_2d_matches_search():
    grid = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 21)
    rng = np.random.default_rng(12)
    for vals in (rng.standard_normal(grid.shape), _rings()):
        want = max(_bfs_components(vals, 1e-9 * np.max(np.abs(vals))) - 1, 0)
        assert node_count(Field(grid, vals)) == want


def test_grid_mismatch_guard(grid255, grid511):
    with pytest.raises(GridMismatch):
        Field(grid255, np.ones(grid511.size))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_field_dump_roundtrip_bit_exact(seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    grid = Grid(DomainSpec.interval(-2.0, 3.0, star_center=0.25), 17)
    vals = rng.standard_normal(17) * 10.0 ** rng.integers(-12, 12, size=17)
    u = Field(grid, vals)
    path = tmp_path_factory.mktemp("dumps") / f"f{seed}.field"
    save_field(u, path)
    back = load_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values, u.values)
    assert back.grid.spec.star_center == grid.spec.star_center


def test_field_dump_roundtrip_2d(tmp_path):
    grid = Grid(DomainSpec.rectangle(0.0, 1.0, -1.0, 1.5), 9)
    u = grid.sample(lambda x, y: np.sin(np.pi * x) * y)
    save_field(u, tmp_path / "g.field")
    back = load_field(tmp_path / "g.field")
    assert back.grid == grid
    assert np.array_equal(back.values, u.values)


def test_discrete_poincare(grid255):
    # the Dirichlet energy dominates lambda_1^h times the squared norm
    from nlsground import dirichlet_eigenpairs
    lam1 = dirichlet_eigenpairs(grid255, 1)[0].value
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = Field(grid255, rng.standard_normal(grid255.size))
        l2, _, gr = norms(u, 4.0)
        assert gr >= lam1 * l2 * (1.0 - 1e-12)


@pytest.mark.parametrize("n, parity, size", [
    (32767, (EVEN,), 16384), (32767, (ODD,), 16383),
    (8192, (EVEN,), 8192), (8192, (ODD,), 8192)])
def test_prolong_interpolates_onto_the_block(n, parity, size):
    # a coarse field of the class, exactly even or odd about the centre,
    # is interpolated linearly onto the nodes the fine grid's block
    # stores; at odd n every 32nd node is a coarse node, and at even n an
    # odd field's interpolant is exactly odd
    from nlsground.grid import prolong

    spec = DomainSpec.interval(-1.0, 2.0)
    coarse, fine = Grid(spec, 1023), Grid(spec, n)
    block = coarse.block(parity)
    u = block.field(np.sin((2.0 if parity == (ODD,) else 1.0) * np.pi
                           * (block.grid.coords[0][:block.shape[0]] + 1.0)
                           / 3.0))
    vals = prolong(u, fine, parity)
    assert vals.size == size
    x = fine.coords[0][:size]
    exact = np.interp(x, np.concatenate(([-1.0], coarse.coords[0], [2.0])),
                      np.concatenate(([0.0], u.values, [0.0])))
    assert np.allclose(vals, exact, rtol=0.0, atol=1e-12)
    if n % 2:
        assert np.array_equal(vals[31::32], u.values[:size // 32])
    elif parity == (ODD,):
        assert np.array_equal(vals, -vals[::-1])
