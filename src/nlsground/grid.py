"""Discrete Dirichlet domains and grid functions.

A Grid is a uniform tensor grid of interior nodes on an interval or a
rectangle.  Boundary values are implicit zeros and never stored.  The
negative Laplacian is the standard second-order centered stencil; it is
applied via first differences of first differences, which keeps the
floating-point evaluation error at the level of the gradient rather than
of the function values (this matters when residuals are driven toward
machine precision on fine grids).

All integral quantities use the product quadrature weight h^N per node,
so the discrete integration-by-parts identity <A u, v> = "grad" pairing
holds exactly and the norms entering the variational identities are
mutually consistent to machine precision.

At odd n = 2m+1 a field exactly even or odd about the centre of each
axis is fixed by its block of m+1 (even) or m (odd) nodes per axis, half
of an interval or a quarter of a rectangle, and a `Block` stores the
fields of such a class that way: the stencil runs on the block alone,
closed past it by the mirror node of an even axis or the zero centre
node of an odd one, and every sum weighs a block node by the number of
grid nodes it stands for.  The grid is the space of the class with no
parity, and it and every Block answer one protocol: `grid`, `parity`,
`laplacian`, `dot` and the sums, `restrict` and `unfold`, and `field`.
So a solve on a class lives on its space from its start to its state,
which is mirrored onto the grid once (`unfold`), into a Field that
records the class.  IEEE rounding is symmetric under negation, so the
full stencil of an exactly even or odd field is exactly even or odd,
and the block's stencil gives its values node for node (an exactly zero
value may carry the other sign).

The fields of a square odd under its transpose and under its half-turn
(both centre flips), the class `DIAGONAL` of the diagonal nodal state,
are fixed at odd n by the half grid of rows 0..m, whose Block closes the
stencil past the centre row by the half-turn's image of the row before
it, negated and reversed, and weighs every row below the centre by 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy._core.multiarray import c_einsum

from .errors import GridMismatch, InvalidSpec

# node_count treats values within this fraction of max|u| as zeros
_NODE_REL_TOL = 1e-9
# a field's parity about the centre of the box along one axis; 0 is none
EVEN, ODD = 1, -1
# the class of a square's fields odd under its transpose and its half-turn,
# named in place of the per-axis parities, and that of the fields odd
# under the transpose alone, which no solve folds
DIAGONAL = "diagonal"
TRANSPOSE = "transpose"


@dataclass(frozen=True)
class DomainSpec:
    """An open interval (a,b) or open rectangle (ax,bx) x (ay,by).

    `star_center` is the reference point for boundary-weighted integrals
    (x . nu measured from it); it defaults to the centroid and must lie
    strictly inside the domain.
    """

    dimension: int
    bounds: tuple  # ((a, b),) in 1D, ((ax, bx), (ay, by)) in 2D
    star_center: tuple = field(default=())

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidSpec(f"dimension must be 1 or 2, got {self.dimension}")
        bounds = tuple(tuple(float(v) for v in ax) for ax in self.bounds)
        if len(bounds) != self.dimension or any(len(ax) != 2 for ax in bounds):
            raise InvalidSpec(f"bounds {self.bounds!r} do not match dimension {self.dimension}")
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(hi - lo)):
                raise InvalidSpec("bounds and their lengths must be finite")
            if not lo < hi:
                raise InvalidSpec(f"degenerate axis [{lo}, {hi}]")
        object.__setattr__(self, "bounds", bounds)
        if not self.star_center:
            center = tuple((lo + hi) / 2.0 for lo, hi in bounds)
        else:
            center = tuple(float(c) for c in self.star_center)
        if len(center) != self.dimension:
            raise InvalidSpec("star_center does not match dimension")
        for c, (lo, hi) in zip(center, bounds):
            if not (lo < c < hi):
                raise InvalidSpec(f"star_center {center} not strictly inside the domain")
        object.__setattr__(self, "star_center", center)

    @classmethod
    def interval(cls, a: float, b: float, star_center: float | None = None) -> "DomainSpec":
        sc = () if star_center is None else (star_center,)
        return cls(1, ((a, b),), sc)

    @classmethod
    def rectangle(cls, ax: float, bx: float, ay: float, by: float,
                  star_center: tuple | None = None) -> "DomainSpec":
        return cls(2, ((ax, bx), (ay, by)), star_center or ())

    @property
    def lengths(self) -> tuple:
        return tuple(hi - lo for lo, hi in self.bounds)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product of two flat arrays, summed in one thread.

    BLAS splits long dot products across its threads, so their rounding
    depends on the thread count; einsum's own loop does not.  Its C
    kernel is called directly: `np.einsum` without `optimize` calls the
    same kernel, behind a Python layer that costs more than the sum of a
    few hundred nodes.
    """
    return float(c_einsum("i,i->", x, y))


class _Space:
    """The sums and fields a Grid and a Block share, from their own
    `dot`, `laplacian` and `unfold`."""

    def l2_sq(self, values: np.ndarray) -> float:
        return self.weight * self.dot(values, values)

    def grad_sq(self, values: np.ndarray, av: np.ndarray | None = None
                ) -> float:
        """Dirichlet energy <A u, u> with the quadrature weight.

        av is the stencil's image A u if already applied.
        """
        if av is None:
            av = self.laplacian(values)
        return self.weight * self.dot(values, av)

    def field(self, values: np.ndarray) -> "Field":
        """The field of the values, mirrored onto the grid, which records
        the space's class."""
        return Field.adopt(self.grid, self.unfold(values), self.parity)


class Grid(_Space):
    """Uniform interior grid with spacing h = (b - a)/(n + 1) per axis.

    As a space it stores a field whole; its `field` records no class at
    odd n, where a solve may fold one, and no parity at even n.
    """

    def __init__(self, spec: DomainSpec, n: int):
        if n < 3:
            raise InvalidSpec(f"need at least 3 interior nodes per axis, got {n}")
        self.spec = spec
        self.grid = self
        self.dimension = spec.dimension
        self.n = int(n)
        self.shape = (self.n,) * spec.dimension
        self.h = tuple(length / (self.n + 1) for length in spec.lengths)
        self._h2 = tuple(hx * hx for hx in self.h)
        self.weight = float(np.prod(self.h))
        self.coords = tuple(
            lo + hx * np.arange(1, self.n + 1)
            for (lo, _), hx in zip(spec.bounds, self.h)
        )
        self.size = self.n ** spec.dimension
        self.parity = None if self.n % 2 else (0,) * spec.dimension
        # per axis, how the last node is closed (see Block): by the zero
        # boundary
        self.mirror = (0,) * spec.dimension
        self._blocks = {}

    def key(self):
        return (self.spec, self.n)

    def __eq__(self, other):
        return self is other or (isinstance(other, Grid)
                                 and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Grid({self.spec.bounds}, n={self.n})"

    # -- node geometry -------------------------------------------------

    def meshes(self):
        """Coordinate arrays shaped like the (reshaped) value array."""
        if self.dimension == 1:
            return (self.coords[0],)
        return np.meshgrid(self.coords[0], self.coords[1], indexing="ij")

    def sample(self, fn) -> "Field":
        """Field with values fn(x) (1D) or fn(x, y) (2D) at the nodes."""
        vals = np.asarray(fn(*self.meshes()), dtype=float)
        return Field(self, vals.reshape(-1))

    # -- the Dirichlet Laplacian ----------------------------------------

    def laplacian(self, values: np.ndarray, space: _Space | None = None
                  ) -> np.ndarray:
        """Apply the negative Laplacian stencil, flat array in and out.

        values holds the nodes of space, the grid itself by default or
        one of its Blocks, and so does the result.
        """
        space = self if space is None else space
        return stencil(values.reshape(space.shape), self._h2,
                       space.mirror).reshape(-1)

    # -- quadrature ------------------------------------------------------

    dot = staticmethod(dot)

    def lp_p(self, values: np.ndarray, p: float) -> float:
        return self.weight * float(np.sum(np.abs(values) ** p))

    def l2_norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(self.l2_sq(values)))

    # -- where the fields of a class live --------------------------------

    def block(self, parity) -> "Grid | Block":
        """The Block storing the fields of the class parity, or the grid.

        parity gives per axis EVEN, ODD or 0 (none), or is DIAGONAL or
        TRANSPOSE; at odd n a class folds with a parity on every axis,
        and DIAGONAL on a square.  The grid stores every other class
        whole.  Each Block is built once.
        """
        if parity in (DIAGONAL, TRANSPOSE):
            folds = (parity == DIAGONAL and self.dimension == 2
                     and self.h[0] == self.h[1])
        else:
            folds = all(parity)
            parity = tuple(parity)
        if not (self.n % 2 and folds):
            return self
        if parity not in self._blocks:
            self._blocks[parity] = Block(self, parity)
        return self._blocks[parity]

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """values themselves: the grid stores a field whole."""
        return values

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """A copy of values: the grid stores a field whole."""
        return values.copy()


class Block(_Space):
    """The block that stores the fields of a class at odd n.

    At odd n = 2m+1 a field even or odd about the centre of each axis
    (parity, per axis EVEN or ODD) is fixed by its first m+1 nodes along
    an even axis and its first m along an odd one: half of an interval,
    a quarter of a rectangle.  A field of a square odd under its
    transpose and its half-turn (parity DIAGONAL) is fixed by its rows
    0..m, the half-turn block; its centre row is odd about its centre.
    A Block has its grid's stencil (`Grid.laplacian`, on the block),
    closed past its last node along each axis as `mirror` says: past an
    even axis's centre by the mirror node, past the half-turn block's
    centre row by the half-turn's image of the row before it, and past
    an odd one's centre by the zero centre.  It has quadrature on those
    values: each sum weighs a block node by its multiplicity, the number
    of grid nodes it stands for (2 per folded axis, 1 on an even axis's
    centre and on the centre row), so every inner product, norm and
    action equals the grid's of the unfolded field up to the order of
    the sum.  The stencil is symmetric in that inner product, and so is
    a folded shifted solve (`linsolve.OperatorSolver`).
    """

    def __init__(self, grid: Grid, parity):
        self.grid = grid
        self.dimension = grid.dimension
        self.h = grid.h
        self.parity = parity
        m = grid.n // 2
        if parity == DIAGONAL:
            self.mirror = (ODD, 0)
            self.slices = (slice(m + 1), slice(grid.n))
            mult = [np.full(m + 1, 2.0), np.ones(grid.n)]
        else:
            self.mirror = tuple(EVEN if s == EVEN else 0 for s in parity)
            self.slices = quarter(grid.n, parity)
            mult = [np.full(s.stop, 2.0) for s in self.slices]
        for k, close in zip(mult, self.mirror):
            if close:
                k[-1] = 1.0  # the centre node, or row, stands for itself
        self.shape = tuple(s.stop for s in self.slices)
        self.weight = grid.weight
        self._mult = functools.reduce(np.multiply.outer, mult).reshape(-1)

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        return self.grid.laplacian(values, self)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """The multiplicity-weighted inner product, summed in one thread."""
        return float(c_einsum("i,i,i->", self._mult, x, y))

    def lp_p(self, values: np.ndarray, p: float) -> float:
        return self.weight * dot(self._mult, np.abs(values) ** p)

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The block of a flat grid field of the class (in 1D a view)."""
        return values.reshape(self.grid.shape)[self.slices].reshape(-1)

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The block values mirrored onto the grid, as a new flat array."""
        full = np.empty(self.grid.shape)
        full[self.slices] = values.reshape(self.shape)
        return unfold(full, self.parity).reshape(-1)


def stencil(u: np.ndarray, h2: tuple, mirror: tuple = (0, 0)
            ) -> np.ndarray:
    """The negative Laplacian of the array u, as a new array.

    h2[i] is the squared spacing along axis i, and axis i is closed as
    in `_differences` with mirror[i].  At most three u-sized arrays are
    live besides u.
    """
    g = _differences(u, mirror[0])
    out = g[:-1] - g[1:]
    out /= h2[0]
    if u.ndim == 2:
        # the second axis, as the first of the transposed view
        g = _differences(u.T, mirror[1])
        d = g[:-1] - g[1:]
        del g
        d /= h2[1]
        out += d.T
    return out


def _differences(a: np.ndarray, mirror: int) -> np.ndarray:
    """The len(a) + 1 first differences along axis 0 of a.

    They are closed by the zero boundary before node 0 and, after the
    last node k - 1, by the node k, which is zero (the boundary, or an
    odd centre line) if mirror is 0.  If mirror is EVEN the block ends
    on an even centre line and node k mirrors node k - 2; if ODD, a is
    the half-turn block of a square, ending on its centre row, and row
    k is the half-turn's image of row k - 2, negated and reversed.
    Formed before the second difference, they keep its rounding at the
    scale of the increments, not of the values.
    """
    k = len(a)
    g = np.empty_like(a, shape=(k + 1,) + a.shape[1:])
    g[0] = a[0]
    np.subtract(a[1:], a[:-1], out=g[1:k])
    if mirror == EVEN:
        g[k] = a[k - 2] - a[k - 1]
    elif mirror == ODD:
        np.subtract(-a[k - 2][::-1], a[k - 1], out=g[k])
    else:
        g[k] = -a[k - 1]
    return g


def quarter(n: int, parity: tuple) -> tuple:
    """The block of a parity class at odd n = 2m+1, as slices per axis.

    It holds the first m+1 nodes along an even axis and the first m
    along an odd one, which fix every field of the class.
    """
    m = n // 2
    return tuple(slice(m + 1 if s == EVEN else m) for s in parity)


def unfold(x: np.ndarray, parity) -> np.ndarray:
    """Mirror the block of the interval or square array x onto x, in place.

    Past the centre of an even axis x copies the nodes before it; on an
    odd axis it negates them, and the centre is exactly 0.  Past the
    centre row of a DIAGONAL field's half-turn block x takes the rows
    before it, negated and reversed both ways.
    """
    m = x.shape[0] // 2
    if parity == DIAGONAL:
        np.negative(x[m - 1::-1, ::-1], out=x[m + 1:])
        return x
    # in 2D the second axis on the block's rows, then the first on whole
    # rows, which are contiguous
    axes = [(x, parity[0])]
    if x.ndim == 2:
        axes.insert(0, (x[quarter(x.shape[0], parity)[0]].T, parity[1]))
    for a, s in axes:
        if s == EVEN:
            a[m + 1:] = a[:m][::-1]
        else:
            a[m] = 0.0
            np.negative(a[:m][::-1], out=a[m + 1:])
    return x


def prolong(u: Field, grid: Grid, parity: tuple) -> np.ndarray:
    """The 1D field u linearly interpolated onto grid, exactly in parity.

    u lives on a coarser grid of the same interval and is in the class
    parity, (EVEN,) or (ODD,).  The interpolant, zero at the walls, is
    taken at the nodes that `grid.block(parity)` stores: at odd n its
    block, which holds only fields of the class; at even n every node,
    and the odd part is kept along an ODD axis, as
    `linsolve.OperatorSolver.project` keeps it.
    """
    space = grid.block(parity)
    coarse = u.grid
    # node i of grid lies at i (n_c + 1) / (n + 1) in units of the coarse
    # spacing, counted from the wall
    at = np.arange(1, space.shape[0] + 1) * ((coarse.n + 1) / (grid.n + 1))
    vals = np.interp(at, np.arange(coarse.n + 2.0),
                     np.concatenate(([0.0], u.values, [0.0])))
    if space is grid and parity[0] == ODD:
        vals = vals - vals[::-1]
        vals *= 0.5
    return vals


class Field:
    """Real grid function on the interior nodes of one Grid.

    Values are stored flat in row-major order and frozen after creation;
    combining fields from different grids raises GridMismatch.  parity
    is the class the values are exactly in, as `Grid.block` takes it,
    where that is known: a state's field records the class it was
    solved on (`field` of its Block or Grid), so a solve that reuses it
    need not compare its values (`linsolve.field_class`); None if
    unknown.
    """

    __slots__ = ("grid", "values", "parity")

    def __init__(self, grid: Grid, values: np.ndarray, parity=None):
        self._freeze(grid, np.array(values, dtype=float, copy=True
                                    ).reshape(-1), parity)

    @classmethod
    def adopt(cls, grid: Grid, values: np.ndarray, parity=None) -> "Field":
        """The field of values, a new flat float array, without a copy.

        values is frozen: nothing may write to it afterwards.
        """
        u = object.__new__(cls)
        u._freeze(grid, values, parity)
        return u

    def _freeze(self, grid: Grid, values: np.ndarray, parity) -> None:
        if values.size != grid.size:
            raise GridMismatch(
                f"field has {values.size} values, grid has {grid.size} nodes")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __repr__(self):
        return f"Field(grid={self.grid!r}, max|u|={np.max(np.abs(self.values)):.4g})"


def norms(u: Field, p: float) -> tuple[float, float, float]:
    """(l2_sq, lp_p, grad_sq) of a field, all with the same quadrature.

    grad_sq is <A u, u>, so discrete integration by parts is exact and the
    variational identities close at machine precision.
    """
    if p <= 2:
        raise InvalidSpec(f"exponent p must exceed 2, got {p}")
    g = u.grid
    return g.l2_sq(u.values), g.lp_p(u.values, p), g.grad_sq(u.values)


def split(u: Field) -> tuple[Field, Field]:
    """Positive and negative parts: u = u_plus + u_minus pointwise."""
    plus = np.maximum(u.values, 0.0)
    minus = np.minimum(u.values, 0.0)
    return Field(u.grid, plus), Field(u.grid, minus)


def node_count(u: Field) -> int:
    """Number of sign interfaces: nodal domains minus one.

    Values at or below 1e-9 times max|u| count as zero.  A single-signed field
    has count 0, the zero field has count 0.
    """
    vals = u.values
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    if scale == 0.0:
        return 0
    thr = _NODE_REL_TOL * scale
    if u.grid.dimension == 1:
        # the signs of the nodes above thr in size, True for positive
        positive = vals > thr
        signs = positive[positive | (vals < -thr)]
        return int(np.count_nonzero(signs[1:] != signs[:-1]))
    return max(_count_components_2d(vals.reshape(u.grid.shape), thr) - 1, 0)


def _count_components_2d(u: np.ndarray, thr: float) -> int:
    """Connected components (4-neighborhood) of {u > thr} and {u < -thr}."""
    return sum(_components(mask) for mask in (u > thr, u < -thr))


def _components(mask: np.ndarray) -> int:
    """4-connected components of a boolean matrix.

    Each run of set entries along a row is one node, numbered by a
    cumulative sum over the run starts; runs in adjacent rows that share
    a column are joined by union-find over the distinct such pairs.  A
    mask with no unset entry, such as a one-signed field's, is one
    component without that labelling.
    """
    if mask.all():
        return 1
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    runs = int(np.count_nonzero(starts))
    if runs == 0:
        return 0
    label = np.cumsum(starts).reshape(mask.shape)
    below = mask[:-1] & mask[1:]
    # distinct pairs: sorted, each kept where it differs from the one
    # before (np.unique would import numpy.ma on first use)
    keys = np.sort(label[:-1][below] * (runs + 1) + label[1:][below])
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    parent = list(range(runs + 1))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    count = runs
    for key in pairs.tolist():
        a, b = root(key // (runs + 1)), root(key % (runs + 1))
        if a != b:
            parent[a] = b
            count -= 1
    return count


# -- field dump format -------------------------------------------------
#
# Plain-text record, one value per line using repr(float), which
# round-trips IEEE doubles exactly.

_DUMP_HEADER = "nlsground-field 1"
_DUMP_KEYS = ("dimension", "bounds", "star_center", "n", "values")


def save_field(u: Field, path) -> None:
    spec = u.grid.spec
    lines = [_DUMP_HEADER,
             f"dimension {spec.dimension}",
             "bounds " + " ".join(repr(v) for ax in spec.bounds for v in ax),
             "star_center " + " ".join(repr(v) for v in spec.star_center),
             f"n {u.grid.n}",
             f"values {u.values.size}"]
    lines.extend(repr(float(v)) for v in u.values)
    Path(path).write_text("\n".join(lines) + "\n")


def load_field(path) -> Field:
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec(f"{path}: cannot read field dump ({exc})") from exc
    if not lines or lines[0] != _DUMP_HEADER:
        raise InvalidSpec(f"{path}: not a field dump")
    meta = {}
    for key, row in zip(_DUMP_KEYS, lines[1:]):
        name, _, rest = row.partition(" ")
        if name != key:
            raise InvalidSpec(f"{path}: expected header line {key!r}, got {row!r}")
        meta[key] = rest
    if len(meta) < len(_DUMP_KEYS):
        raise InvalidSpec(f"{path}: truncated header")
    try:
        dim = int(meta["dimension"])
        flat = [float(v) for v in meta["bounds"].split()]
        center = tuple(float(v) for v in meta["star_center"].split())
        n = int(meta["n"])
        count = int(meta["values"])
        values = np.array([float(v) for v in lines[6:6 + count]], dtype=float)
    except ValueError as exc:
        raise InvalidSpec(f"{path}: malformed field dump ({exc})") from exc
    if len(flat) != 2 * dim:
        raise InvalidSpec(f"{path}: {len(flat)} bounds for dimension {dim}")
    if values.size != count:
        raise InvalidSpec(f"{path}: truncated value block")
    if not np.isfinite(values).all():
        raise InvalidSpec(f"{path}: non-finite field value")
    # checked before the grid is built, which allocates n nodes per axis
    if count != n ** dim:
        raise InvalidSpec(f"{path}: {count} values for n={n} in dimension {dim}")
    bounds = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(dim))
    return Field(Grid(DomainSpec(dim, bounds, center), n), values)
