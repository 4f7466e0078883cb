"""Uniform grids over boxes in R^1 / R^2 and functions sampled on them.

Primal (x) and dual (y) spaces are both discretized this way. Nodes along
axis k are exactly ``lo[k] + i * h[k]`` with ``h = (hi - lo) / (n - 1)``;
off-node queries snap to the nearest node, never interpolate, so +inf
structure survives every operation.

CSV layouts (token ``inf`` for +inf, shortest round-trip decimals
otherwise, rows in row-major node order):

* ``SampledFunction``  -- header ``x,value`` (1-D) or ``x,y,value`` (2-D
  coordinates of the sample point).
* ``SampledBivariate`` -- header ``x,y,value`` (1-D spaces) or
  ``x1,x2,y1,y2,value`` (2-D), row-major over (x-node, y-node).
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, InvalidInputError
from .extreal import as_ext_array, finite_mask


@dataclass(frozen=True)
class Grid:
    """Uniform node lattice over a box; dim 1 or 2, >= 3 nodes per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        n = tuple(int(v) for v in self.n)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)
        if not (len(lo) == len(hi) == len(n)):
            raise InvalidInputError("lo, hi, n must have equal length")
        if len(lo) not in (1, 2):
            raise InvalidInputError("only dimensions 1 and 2 are supported")
        for a, b in zip(lo, hi):
            if not a < b:
                raise InvalidInputError(f"need lo < hi per axis, got [{a}, {b}]")
        for k in n:
            if k < 3:
                raise InvalidInputError("need at least 3 nodes per axis")

    @classmethod
    def line(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls((lo,), (hi,), (n,))

    @classmethod
    def box(cls, lo, hi, n) -> "Grid":
        """2-D grid; scalar arguments are broadcast to both axes."""
        as_pair = lambda v: (v, v) if np.isscalar(v) else tuple(v)
        return cls(as_pair(lo), as_pair(hi), as_pair(n))

    @cached_property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def size(self) -> int:
        return int(np.prod(self.n))

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / (k - 1) for a, b, k in zip(self.lo, self.hi, self.n))

    def axis(self, k: int) -> np.ndarray:
        return self.lo[k] + np.arange(self.n[k]) * self.h[k]

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis(k) for k in range(self.dim))

    def coords(self, idx):
        """Coordinates of a node index (int in 1-D, (i, j) in 2-D)."""
        if self.dim == 1:
            i = int(idx) if np.isscalar(idx) else int(idx[0])
            return self.lo[0] + i * self.h[0]
        i, j = (int(v) for v in idx)
        return (self.lo[0] + i * self.h[0], self.lo[1] + j * self.h[1])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.axes, indexing="ij")

    @cached_property
    def points(self) -> np.ndarray:
        """Read-only (size, dim) array of node coordinates, row-major."""
        pts = np.column_stack([g.ravel() for g in self.meshgrid()])
        pts.flags.writeable = False
        return pts

    def snap(self, point):
        """Nearest node index; the point must lie within h/2 of the box."""
        p = np.atleast_1d(np.asarray(point, dtype=np.float64))
        if p.shape != (self.dim,):
            raise InvalidInputError(f"expected a point in R^{self.dim}, got {point!r}")
        idx = []
        for k in range(self.dim):
            t = (p[k] - self.lo[k]) / self.h[k]
            i = int(round(t))
            if i < 0 or i >= self.n[k] or abs(t - i) > 0.5 + 1e-9:
                raise InvalidInputError(
                    f"point {point!r} is outside the grid box on axis {k}")
            idx.append(i)
        return idx[0] if self.dim == 1 else tuple(idx)

    def node_indices(self):
        """All node indices in row-major order."""
        if self.dim == 1:
            return range(self.n[0])
        return itertools.product(range(self.n[0]), range(self.n[1]))

    def __repr__(self):
        parts = ", ".join(
            f"[{a}, {b}]x{k}" for a, b, k in zip(self.lo, self.hi, self.n))
        return f"Grid({parts})"


def pairing(xgrid: Grid, ygrid: Grid) -> np.ndarray:
    """Duality products <x, y> for all node pairs.

    Shape is ``xgrid.shape + ygrid.shape``. 1-D: x*y; 2-D: x1*y1 + x2*y2,
    evaluated as ``fl(fl(x1*y1) + fl(x2*y2))``.
    """
    if xgrid.dim != ygrid.dim:
        raise InvalidInputError("x-grid and y-grid must have the same dimension")
    if xgrid.dim == 1:
        return np.multiply.outer(xgrid.axis(0), ygrid.axis(0))
    x1, x2 = xgrid.meshgrid()
    y1, y2 = ygrid.meshgrid()
    return (np.multiply.outer(x1, y1) + np.multiply.outer(x2, y2))


@dataclass(frozen=True)
class SampledFunction:
    """Extended-real values of a function on the nodes of a grid."""

    grid: Grid
    vals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vals", as_ext_array(self.vals, self.grid.shape))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "SampledFunction":
        """Sample ``fn`` at all nodes; 1-D fn(x), 2-D fn(x1, x2), vectorized."""
        if grid.dim == 1:
            return cls(grid, fn(grid.axis(0)))
        return cls(grid, fn(*grid.meshgrid()))

    @property
    def domain(self) -> np.ndarray:
        return finite_mask(self.vals)

    @property
    def domain_nonempty(self) -> bool:
        return bool(self.domain.any())

    def require_domain(self, who: str) -> None:
        if not self.domain_nonempty:
            raise InvalidInputError(f"{who}: dom(phi) is empty")

    @property
    def finite_max(self) -> float:
        dom = self.domain
        return float(self.vals[dom].max()) if dom.any() else 0.0

    def to_csv(self, path) -> None:
        names = ["x"] if self.grid.dim == 1 else ["x", "y"]
        _write_grid_csv(path, names, (self.grid,), self.vals)

    @classmethod
    def read_csv(cls, path) -> "SampledFunction":
        grids, vals = _read_grid_csv(path, n_coord_groups=1)
        return cls(grids[0], vals)


@dataclass(frozen=True)
class SampledBivariate:
    """Extended-real values on the product of an x-grid and a y-grid."""

    xgrid: Grid
    ygrid: Grid
    vals: np.ndarray

    def __post_init__(self):
        if self.xgrid.dim != self.ygrid.dim:
            raise InvalidInputError("x-grid and y-grid must have the same dimension")
        shape = self.xgrid.shape + self.ygrid.shape
        object.__setattr__(self, "vals", as_ext_array(self.vals, shape))

    @classmethod
    def from_callable(cls, xgrid: Grid, ygrid: Grid, fn) -> "SampledBivariate":
        """Sample fn on the product grid; 1-D fn(x, y), 2-D fn(x1, x2, y1, y2)."""
        if xgrid.dim == 1:
            x = xgrid.axis(0)[:, None]
            y = ygrid.axis(0)[None, :]
            return cls(xgrid, ygrid, fn(x, y))
        x1, x2 = (m[:, :, None, None] for m in xgrid.meshgrid())
        y1, y2 = (m[None, None, :, :] for m in ygrid.meshgrid())
        return cls(xgrid, ygrid, fn(x1, x2, y1, y2))

    def x_slice(self, ix) -> SampledFunction:
        """The function y -> b(x, y) at a fixed x-node."""
        return SampledFunction(self.ygrid, self.vals[ix])

    def y_slice(self, iy) -> SampledFunction:
        """The function x -> b(x, y) at a fixed y-node."""
        if self.ygrid.dim == 1:
            return SampledFunction(self.xgrid, self.vals[..., iy])
        return SampledFunction(self.xgrid, self.vals[..., iy[0], iy[1]])

    def pairing(self) -> np.ndarray:
        return pairing(self.xgrid, self.ygrid)

    @property
    def finite_max(self) -> float:
        dom = finite_mask(self.vals)
        return float(self.vals[dom].max()) if dom.any() else 0.0

    def to_csv(self, path) -> None:
        names = (["x", "y"] if self.xgrid.dim == 1
                 else ["x1", "x2", "y1", "y2"])
        _write_grid_csv(path, names, (self.xgrid, self.ygrid), self.vals)

    @classmethod
    def read_csv(cls, path) -> "SampledBivariate":
        grids, vals = _read_grid_csv(path, n_coord_groups=2)
        return cls(grids[0], grids[1], vals)


# --- CSV plumbing -----------------------------------------------------------

# Both codecs work on blocks of rows, so their working memory is O(block)
# plus the arrays they read or write. The writer's block is one run of the
# last axis; the reader's is a readlines hint in characters, about 24k rows
# of a 1-D bivariate file.
_BLOCK_CHARS = 1 << 20


def _tokens(a: np.ndarray) -> list[str]:
    """CSV tokens of float64 values: shortest round-trip decimals, and
    ``repr`` of +inf is already the token ``inf``."""
    return list(map(repr, a.tolist()))


def _write_grid_csv(path, names, grids, vals) -> None:
    axes = [_tokens(ax) for g in grids for ax in g.axes]
    if len(names) != len(axes):
        raise InvalidInputError("column names do not match grid axes")
    # a row is head + tail + value: the heads run over the leading axes,
    # the tails over the last axis and are built once
    *leading, last = axes
    tails = [t + "," for t in last]
    flat = vals.reshape(-1)
    row = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names + ["value"]) + "\n")
        for lead in itertools.product(*leading):
            head = "".join(t + "," for t in lead)
            vt = _tokens(flat[row:row + len(tails)])
            fh.write("".join([f"{head}{t}{v}\n" for t, v in zip(tails, vt)]))
            row += len(tails)


@contextlib.contextmanager
def _open_csv(path):
    """Open a CSV file for reading; text that is not UTF-8 is a
    FormatError naming the file, wherever the reader meets it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not valid UTF-8 text") from None


def _read_rows(fh, ncoord: int, value_col: bool = True) -> np.ndarray:
    """The rows after FH's one-line header as an (nrows, ncoord + value_col)
    float array, a block of lines at a time.

    Blank lines are skipped. Every field is a real or +inf (token ``inf``);
    the first ``ncoord`` fields of a row are coordinates and must be
    finite. The first bad line raises a FormatError with its number.
    """
    nfields = ncoord + value_col
    blocks = []
    lineno = 2
    while lines := fh.readlines(_BLOCK_CHARS):
        rows = [ln for ln in lines if not ln.isspace()]
        if rows:
            block = _parse_block(rows, nfields, ncoord)
            if block is None:
                block = _parse_lines(lines, lineno, nfields, ncoord)
            blocks.append(block)
        lineno += len(lines)
    if not blocks:
        return np.empty((0, nfields))
    return np.concatenate(blocks)


def _parse_block(rows, nfields: int, ncoord: int) -> np.ndarray | None:
    """ROWS as an (nrows, nfields) array, or None if some row is bad."""
    if any(ln.count(",") != nfields - 1 for ln in rows):
        return None
    toks = ",".join(rows).split(",")
    try:
        a = np.fromiter(map(float, toks), np.float64, len(toks))
    except ValueError:
        return None
    a = a.reshape(-1, nfields)
    vals = a[:, ncoord:]
    if (not np.isfinite(a[:, :ncoord]).all() or np.isnan(vals).any()
            or np.isneginf(vals).any()):
        return None
    return a


def _parse_lines(lines, lineno: int, nfields: int, ncoord: int) -> np.ndarray:
    """Line-by-line parse of a block that _parse_block refused, LINENO
    being the number of its first line; raises at the first bad line.

    Fields are stripped before ``float`` here, so the few whitespace
    characters ``float`` itself rejects (U+001C..U+001F) are accepted
    around a field.
    """
    rows = []
    for lineno, raw in enumerate(lines, start=lineno):
        raw = raw.strip()
        if not raw:
            continue
        toks = raw.split(",")
        if len(toks) != nfields:
            raise FormatError(
                f"expected {nfields} fields, got {len(toks)}", line=lineno)
        row = []
        for k, tok in enumerate(toks):
            try:
                v = float(tok.strip())
            except ValueError:
                v = math.nan
            if math.isnan(v) or v == -math.inf:
                raise FormatError(f"not an extended real: {tok!r}", line=lineno)
            if k < ncoord and v == math.inf:
                raise FormatError("coordinates must be finite", line=lineno)
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def _read_grid_csv(path, n_coord_groups: int):
    with _open_csv(path) as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty file", line=1)
        names = [c.strip() for c in header.strip().split(",")]
        if names[-1] != "value":
            raise FormatError("last column must be 'value'", line=1)
        ncoord = len(names) - 1
        if n_coord_groups == 1 and ncoord not in (1, 2):
            raise FormatError("expected 1 or 2 coordinate columns", line=1)
        if n_coord_groups == 2 and ncoord not in (2, 4):
            raise FormatError("expected 2 or 4 coordinate columns", line=1)
        data = _read_rows(fh, ncoord)

    coords = [data[:, k] for k in range(ncoord)]
    values = data[:, -1]
    axes = []
    for k in range(ncoord):
        uniq = np.unique(coords[k])
        if len(uniq) < 3:
            raise FormatError(f"column {k}: fewer than 3 distinct coordinates")
        steps = np.diff(uniq)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12 * abs(steps[0])):
            raise FormatError(f"column {k}: coordinates are not uniformly spaced")
        axes.append(uniq)
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != len(values):
        raise FormatError(
            f"got {len(values)} rows, expected {int(np.prod(shape))} "
            "(full row-major product grid)")

    # verify row-major ordering of the coordinate columns
    for k, ax in enumerate(axes):
        rep_right = int(np.prod(shape[k + 1:], dtype=np.int64))
        expected = np.tile(np.repeat(ax, rep_right), int(np.prod(shape[:k], dtype=np.int64)))
        if not np.array_equal(coords[k], expected):
            raise FormatError(f"column {k}: rows are not in row-major node order")

    def make_grid(axs):
        lo = tuple(a[0] for a in axs)
        hi = tuple(a[-1] for a in axs)
        n = tuple(len(a) for a in axs)
        return Grid(lo, hi, n)

    if n_coord_groups == 1:
        grids = (make_grid(axes),)
    else:
        half = ncoord // 2
        grids = (make_grid(axes[:half]), make_grid(axes[half:]))
    return grids, values.reshape(shape)
