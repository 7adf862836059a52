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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GridMismatch, InvalidSpec

# node_count treats values within this fraction of max|u| as zeros
_NODE_REL_TOL = 1e-9


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


class Grid:
    """Uniform interior grid with spacing h = (b - a)/(n + 1) per axis."""

    def __init__(self, spec: DomainSpec, n: int):
        if n < 3:
            raise InvalidSpec(f"need at least 3 interior nodes per axis, got {n}")
        self.spec = spec
        self.n = int(n)
        self.shape = (self.n,) * spec.dimension
        self.h = tuple(length / (self.n + 1) for length in spec.lengths)
        self.weight = float(np.prod(self.h))
        self.coords = tuple(
            lo + hx * np.arange(1, self.n + 1)
            for (lo, _), hx in zip(spec.bounds, self.h)
        )
        self.size = self.n ** spec.dimension

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def key(self):
        return (self.spec, self.n)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.key() == other.key()

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

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Apply the negative Laplacian stencil, flat array in and out.

        First differences are formed before the second difference so that
        rounding happens at the scale of the increments, not of the values.
        """
        if self.dimension == 1:
            return self._lap_axis(values, self.h[0] * self.h[0])
        u = values.reshape(self.shape)
        hx2 = self.h[0] * self.h[0]
        hy2 = self.h[1] * self.h[1]
        # at most three field-sized arrays are live besides the input
        g = np.empty((self.n + 1, self.n), dtype=values.dtype)
        g[0] = u[0]
        g[-1] = -u[-1]
        np.subtract(u[1:], u[:-1], out=g[1:-1])
        out = g[:-1] - g[1:]
        out /= hx2
        g = np.empty((self.n, self.n + 1), dtype=values.dtype)
        g[:, 0] = u[:, 0]
        g[:, -1] = -u[:, -1]
        np.subtract(u[:, 1:], u[:, :-1], out=g[:, 1:-1])
        d = g[:, :-1] - g[:, 1:]
        del g
        d /= hy2
        out += d
        return out.reshape(-1)

    @staticmethod
    def _lap_axis(values: np.ndarray, h2: float) -> np.ndarray:
        g = np.empty(values.size + 1, dtype=values.dtype)
        g[0] = values[0]
        g[-1] = -values[-1]
        np.subtract(values[1:], values[:-1], out=g[1:-1])
        return (g[:-1] - g[1:]) / h2

    # -- quadrature ------------------------------------------------------

    def l2_sq(self, values: np.ndarray) -> float:
        return self.weight * dot(values, values)

    def lp_p(self, values: np.ndarray, p: float) -> float:
        return self.weight * float(np.sum(np.abs(values) ** p))

    def grad_sq(self, values: np.ndarray) -> float:
        """Dirichlet energy <A u, u> with the quadrature weight."""
        return self.weight * dot(values, self.laplacian(values))

    def l2_norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(self.l2_sq(values)))


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product of two flat arrays, summed in one thread.

    BLAS splits long dot products across its threads, so their rounding
    depends on the thread count; einsum's own loop does not.
    """
    return float(np.einsum("i,i->", x, y))


class Field:
    """Real grid function on the interior nodes of one Grid.

    Values are stored flat in row-major order and frozen after creation;
    combining fields from different grids raises GridMismatch.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.array(values, dtype=float, copy=True).reshape(-1)
        if values.size != grid.size:
            raise GridMismatch(
                f"field has {values.size} values, grid has {grid.size} nodes")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

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
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return 0
    thr = _NODE_REL_TOL * scale
    if u.grid.dimension == 1:
        signs = np.sign(vals) * (np.abs(vals) > thr)
        signs = signs[signs != 0]
        if signs.size == 0:
            return 0
        return int(np.sum(signs[1:] != signs[:-1]))
    return max(_count_components_2d(vals.reshape(u.grid.shape), thr) - 1, 0)


def _count_components_2d(u: np.ndarray, thr: float) -> int:
    """Connected components (4-neighborhood) of {u > thr} and {u < -thr}."""
    return sum(_components(mask) for mask in (u > thr, u < -thr))


def _components(mask: np.ndarray) -> int:
    """4-connected components of a boolean matrix.

    Each run of set entries along a row is one node, numbered by a
    cumulative sum over the run starts; runs in adjacent rows that share
    a column are joined by union-find over the distinct such pairs.
    """
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    runs = int(np.count_nonzero(starts))
    if runs == 0:
        return 0
    label = np.cumsum(starts).reshape(mask.shape)
    below = mask[:-1] & mask[1:]
    pairs = np.unique(label[:-1][below] * (runs + 1) + label[1:][below])
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
    # checked before the grid is built, which allocates n nodes per axis
    if count != n ** dim:
        raise InvalidSpec(f"{path}: {count} values for n={n} in dimension {dim}")
    bounds = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(dim))
    return Field(Grid(DomainSpec(dim, bounds, center), n), values)
