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

The reader parses a block of rows at a time with numpy's C reader
(``np.loadtxt``), which gives every value ``float``'s bits; only a block
it refuses is parsed again line by line, to name its first bad line.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, InvalidInputError
from .extreal import as_ext_array


@dataclass(frozen=True)
class Grid:
    """Uniform node lattice over a box; dim 1 or 2, >= 3 nodes per axis,
    each axis strictly increasing in float64."""

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
        for k in range(len(n)):
            if not (np.diff(self.axis(k)) > 0).all():
                raise InvalidInputError(
                    f"axis {k}: nodes lo + i*h are not strictly increasing "
                    "in float64 (the step is below the coordinates' spacing)")

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

    def node_index(self, idx) -> np.ndarray:
        """A node index (int in 1-D, (i, j) in 2-D) as an int array of
        shape (dim,); InvalidInputError unless it names a node."""
        i = np.atleast_1d(idx)
        if (i.shape != (self.dim,) or i.dtype.kind not in "iu"
                or not ((i >= 0) & (i < self.n)).all()):
            raise InvalidInputError(
                f"node index {idx!r} is not on the grid of shape {self.shape}")
        return i

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.axes, indexing="ij")

    @cached_property
    def points(self) -> np.ndarray:
        """Read-only (size, dim) array of node coordinates, row-major."""
        pts = np.column_stack([g.ravel() for g in self.meshgrid()])
        pts.flags.writeable = False
        return pts

    def snap(self, point):
        """Nearest node index; the point must be finite and lie within h/2
        of the box."""
        p = np.atleast_1d(np.asarray(point, dtype=np.float64))
        if p.shape != (self.dim,) or not np.isfinite(p).all():
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
    out = _pair_points(xgrid.points, ygrid.points)
    return out.reshape(xgrid.shape + ygrid.shape)


def _pair_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_j> for (size, dim) point arrays, summed over k in order;
    +-inf where it overflows."""
    bt = np.ascontiguousarray(b.T)   # the inner loop runs over b
    with np.errstate(over="ignore"):
        out = np.multiply.outer(a[:, 0], bt[0])
        if a.shape[1] == 2:
            out += np.multiply.outer(a[:, 1], bt[1])
    return out


def _finite_max(vals: np.ndarray) -> float:
    """The largest finite value, 0.0 if there is none; no copy of vals
    is made, and a mask of it only when vals holds +inf."""
    top = float(vals.max(initial=-math.inf))
    if top == math.inf:
        top = float(np.max(vals, where=vals < math.inf, initial=-math.inf))
    return top if top > -math.inf else 0.0


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
        return np.isfinite(self.vals)

    @property
    def domain_nonempty(self) -> bool:
        return bool(self.domain.any())

    def require_domain(self, who: str) -> None:
        if not self.domain_nonempty:
            raise InvalidInputError(f"{who}: dom(phi) is empty")

    @property
    def finite_max(self) -> float:
        return _finite_max(self.vals)

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

    @property
    def finite_max(self) -> float:
        return _finite_max(self.vals)

    def to_csv(self, path) -> None:
        names = (["x", "y"] if self.xgrid.dim == 1
                 else ["x1", "x2", "y1", "y2"])
        _write_grid_csv(path, names, (self.xgrid, self.ygrid), self.vals)

    @classmethod
    def read_csv(cls, path) -> "SampledBivariate":
        grids, vals = _read_grid_csv(path, n_coord_groups=2)
        return cls(grids[0], grids[1], vals)


# --- CSV plumbing -----------------------------------------------------------

# Both codecs work on blocks of rows. The writer's block is one run of the
# last axis, so beyond the array it writes it holds O(block). The reader's
# block is a readlines hint in characters, about 6k rows of a 1-D
# bivariate file; as str objects its lines take about 2.5 bytes a
# character. The grid reader keeps the parsed blocks without joining them,
# takes the axes and checks the row order block by block and copies the
# value column out once, so it holds the parsed rows, the values and a
# block of text.
_BLOCK_CHARS = 1 << 18


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


def _row_blocks(fh, ncoord: int, value_col: bool = True):
    """The rows after FH's one-line header as (nrows, ncoord + value_col)
    float arrays, one per block of lines read; a block of blank lines
    gives none.

    Blank lines are skipped. Every field is a real or +inf (token ``inf``);
    the first ``ncoord`` fields of a row are coordinates and must be
    finite. The first bad line raises a FormatError with its number.
    """
    nfields = ncoord + value_col
    lineno = 2
    while lines := fh.readlines(_BLOCK_CHARS):
        count = len(lines)
        rows = [ln for ln in lines if not ln.isspace()]
        block = None
        if rows:
            block = _parse_block(rows, nfields, ncoord)
            if block is None:
                block = _parse_lines(lines, lineno, nfields, ncoord)
        del lines, rows   # the text is freed before the caller works
        if block is not None:
            yield block
        lineno += count


def _read_rows(fh, ncoord: int, value_col: bool = True) -> np.ndarray:
    """The rows of ``_row_blocks`` as one (nrows, ncoord + value_col)
    array."""
    blocks = list(_row_blocks(fh, ncoord, value_col))
    if not blocks:
        return np.empty((0, ncoord + value_col))
    return np.concatenate(blocks)


def _parse_block(rows, nfields: int, ncoord: int) -> np.ndarray | None:
    """ROWS as an (nrows, nfields) array, or None if some row is bad.

    numpy's C reader parses the fields with ``PyOS_string_to_double``, so
    every value has ``float``'s bits. Tokens ``float`` takes and it does
    not (``1_0``, non-ASCII digits) make a refused block, which
    ``_parse_lines`` then reads as ``float`` does.
    """
    try:
        a = np.loadtxt(rows, np.float64, comments=None, delimiter=",",
                       ndmin=2)
    except ValueError:
        return None
    if a.shape[1] != nfields:
        return None
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
    around a field, as ``_parse_block`` accepts them.
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
        blocks, uniqs = [], [[] for _ in range(ncoord)]
        for block in _row_blocks(fh, ncoord):
            blocks.append(block)
            for k in range(ncoord):
                uniqs[k].append(np.unique(block[:, k]))

    axes, his = [], []
    for k in range(ncoord):
        uniq = _column_axis([b[:, k] for b in blocks], uniqs[k])
        if len(uniq) < 3:
            raise FormatError(f"column {k}: fewer than 3 distinct coordinates")
        hi = _node_hi(uniq)
        if not _on_axis(uniq, hi):
            raise FormatError(f"column {k}: coordinates are not uniformly spaced")
        axes.append(uniq)
        his.append(hi)
    shape = tuple(len(a) for a in axes)
    starts = np.cumsum([0] + [len(b) for b in blocks])
    if int(np.prod(shape)) != starts[-1]:
        raise FormatError(
            f"got {starts[-1]} rows, expected {int(np.prod(shape))} "
            "(full row-major product grid)")

    # verify row-major ordering of the coordinate columns: row r holds
    # node (r // rep_right) % n_k of axis k
    for k, ax in enumerate(axes):
        rep_right = int(np.prod(shape[k + 1:], dtype=np.int64))
        for r0, b in zip(starts, blocks):
            node = np.arange(r0, r0 + len(b)) // rep_right % shape[k]
            if not np.array_equal(b[:, k], ax[node]):
                raise FormatError(
                    f"column {k}: rows are not in row-major node order")

    # read-only, so that as_ext_array keeps it; each block goes once copied
    values = np.empty(starts[-1])
    for r0 in starts[:-1]:
        b = blocks.pop(0)
        values[r0:r0 + len(b)] = b[:, -1]
    values.flags.writeable = False

    def make_grid(ks):
        return Grid(tuple(axes[k][0] for k in ks), tuple(his[k] for k in ks),
                    tuple(len(axes[k]) for k in ks))

    half = ncoord // n_coord_groups
    grids = tuple(make_grid(range(s, s + half)) for s in range(0, ncoord, half))
    return grids, values.reshape(shape)


def _column_axis(cols, uniqs) -> np.ndarray:
    """``np.unique`` of a column given as blocks COLS, from the blocks' own
    uniques UNIQS.

    Equal finite floats differ in their bits only as -0.0 and 0.0, so the
    merged uniques are the column's own unless the column holds both
    zeros. Which zero ``np.unique`` then keeps depends on the order of
    the whole column, so that column is joined and passed to it.
    """
    axis = np.unique(np.concatenate(uniqs)) if uniqs else np.empty(0)
    if (axis == 0).any():
        neg = pos = False
        for col in cols:
            sign = np.signbit(col[col == 0])
            neg |= bool(sign.any())
            pos |= not sign.all()
        if neg and pos:
            axis = np.unique(np.concatenate(cols))
    return axis


def _on_axis(nodes: np.ndarray, hi: float) -> bool:
    """Do NODES lie on the ``Grid.axis`` from their first node to HI, within
    2e-9 of the span (so every axis whose steps agree to 1e-9 relative)
    plus 8 ulps of the largest node (the rounding of ``lo + i*h``)?"""
    axis = Grid.line(nodes[0], hi, len(nodes)).axis(0)
    tol = (2e-9 * (nodes[-1] - nodes[0])
           + 8 * np.spacing(np.abs(nodes[[0, -1]]).max()))
    return bool((np.abs(nodes - axis) <= tol).all())


def _node_hi(nodes: np.ndarray) -> float:
    """An upper bound whose ``Grid.axis`` gives back NODES bit for bit.

    The last node is lo + (n-1)h rounded, which can differ from the hi the
    nodes were made from, and then h and the inner nodes come out shifted
    by an ulp. So the last node and the 8 floats on either side of it are
    tried in order of distance; if none fits, the last node is kept.
    """
    last = nodes[-1]
    up = down = last
    tries = [last]
    for _ in range(8):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        tries += [up, down]
    for hi in tries:
        if hi > nodes[0] and np.array_equal(
                Grid.line(nodes[0], hi, len(nodes)).axis(0), nodes):
            return float(hi)
    return float(last)
