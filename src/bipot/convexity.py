"""Discrete convexity predicates.

Function convexity (``is_convex``) is decided by a line battery: along every
grid row, column and both diagonal directions the finite domain must be
contiguous and interior second differences must be >= -tol. This is a
necessary set of conditions that is sufficient for the smooth and polyhedral
functions this package works with; an exhaustive midpoint oracle cross-checks
it in the test suite. One vectorized scan (``_faults``) is the whole
battery: ``is_convex`` reads the first faulting line, ``batch_is_convex``
keeps verdicts only, and 1-D sets are decided by its gap test. Each
family of lines is one stack: the rows, the columns, and each diagonal
direction sheared into a +inf-padded stack, so a chunk costs four scans
whatever the grid size. Stacks of functions are scanned a chunk of about
``windows._TILE_BYTES`` at a time, the diagonals only over the chunk's
slices that pass its rows and columns; ``first_nonconvex`` stops at the
chunk holding the first failure.

Set convexity (``is_set_convex``) is decided per the hull-margin rule: every
grid node lying deeper than max(h)/2 inside the convex hull of the member
nodes must itself be a member. The margin keeps boundary rasterization from
being flagged. One scan (``_set_scan``) decides a whole stack of sets in
order: ``is_set_convex`` is a stack of one, ``check_bbgraph`` scans its y-
and then its x-sections as two stacks, and ``check_newc_all`` its 2-D U(y).
On finite grids every set is closed, so the closedness half of
bi-closedness is vacuously true wherever it is quoted.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidInputError, require_tol
from .grids import Grid, SampledFunction
from .report import CheckReport, failing, passing
from .windows import _tiles


# --- line battery -----------------------------------------------------------


def _lines(vals: np.ndarray, dim: int):
    """The grid lines of a (B, *shape) stack of functions, in scan order.

    Yields (family, (B, L, m) lines) for the rows, the columns, then the
    diag-down and diag-up diagonals; a row or column's line index is its
    node index along the other axis. Each diagonal family is one view of
    a +inf-padded buffer, sheared so that line off + n1 - 1 holds node
    (i, i + off) (diag-up: of the column-flipped stack) at position i.
    The padding lies past both ends of each line's run of grid nodes, so
    it makes no gap, and every triple touching it gives +inf or NaN.
    """
    if dim == 1:
        yield "row", vals[:, None, :]
        return
    b, n1, n2 = vals.shape
    yield "row", vals
    yield "col", vals.transpose(0, 2, 1)
    buf = np.full((b, n1, n2 + 2 * (n1 - 1)), np.inf)
    s0, s1, s2 = buf.strides
    sheared = as_strided(buf, (b, n1 + n2 - 1, n1), (s0, s2, s1 + s2),
                         writeable=False)
    for family, src in (("diag-down", vals), ("diag-up", vals[:, :, ::-1])):
        buf[:, :, n1 - 1:n1 + n2 - 1] = src
        yield family, sheared


def _faults(lines: np.ndarray, tol: float, locate: bool = False):
    """Faulting lines of a (B, L, m) stack, m >= 3.

    A line faults where its finite domain has a gap, or else where an
    interior second difference is below -tol. Returns the (B, L) fault
    flags; with locate, also the gap flags, the position of each line's
    first fault (the first missing interior index of a gap, else the
    center of the first low triple) and the (B, L, m - 2) second
    differences, so that the one centered at position p is [..., p - 1].
    Values are never NaN or -inf, so a triple holding +inf gives +inf or
    NaN unless its center alone is missing, which is a gap anyway. A
    finite triple whose -2b overflows to -inf is recomputed as
    (a - b) + (c - b).
    """
    fin = np.isfinite(lines)
    cnt = fin.sum(axis=2)
    first = np.argmax(fin, axis=2)
    last = lines.shape[2] - 1 - np.argmax(fin[:, :, ::-1], axis=2)
    gap = (cnt > 0) & (last - first + 1 != cnt)
    a, b, c = lines[:, :, :-2], lines[:, :, 1:-1], lines[:, :, 2:]
    with np.errstate(invalid="ignore", over="ignore"):
        # rounds as a - 2b + c does, in one buffer
        second = -2.0 * b
        second += a
        second += c
        low = second < -tol
        if low.any() and np.fmin.reduce(second, axis=None) == -np.inf:
            big = np.isneginf(second) & fin[:, :, 1:-1]
            second[big] = (a[big] - b[big]) + (c[big] - b[big])
            low = second < -tol
    bad = gap | low.any(axis=2)
    if not locate:
        return bad
    # in a gap line the first finite node followed by a missing one ends
    # the first run, so the missing one is the first interior hole
    hole = np.argmax(fin[:, :, :-1] & ~fin[:, :, 1:], axis=2)
    return bad, gap, 1 + np.where(gap, hole, np.argmax(low, axis=2)), second


def _line_witness(family, line_index, pos, shape):
    """Map a line position back to 2-D node indices."""
    if family == "row":
        return (line_index, pos)
    if family == "col":
        return (pos, line_index)
    j = pos + line_index
    return (pos, j if family == "diag-down" else shape[1] - 1 - j)


def is_convex(f: SampledFunction, tol: float) -> CheckReport:
    """Discrete convexity of a sampled function (see module docstring).

    An identically +inf function passes vacuously. tol >= 0 bounds how
    negative an interior second difference may be. A failure names the
    first faulting line in scan order, a diagonal by its offset.
    """
    require_tol(tol)
    for family, lines in _lines(f.vals[None], f.grid.dim):
        bad, gap, pos, second = (a[0] for a in _faults(lines, tol, locate=True))
        hit = np.flatnonzero(bad)
        if hit.size:
            k, p = int(hit[0]), int(pos[hit[0]])
            axiom, residual = (("domain-contiguous", None) if gap[k] else
                               ("second-difference", float(second[k, p - 1])))
            if f.grid.dim == 1:
                return failing(axiom, (p,), residual)
            if family.startswith("diag"):
                k -= f.grid.n[0] - 1
            return failing(axiom, _line_witness(family, k, p, f.vals.shape),
                           residual, f"line = {family} {k}")
    return passing("convex")


def _chunk_ok(chunk: np.ndarray, dim: int, tol: float) -> np.ndarray:
    """(B,) verdicts of a contiguous (B, *shape) chunk: its rows and
    columns, then its two diagonal families over the slices that pass
    them."""
    ok = np.ones(len(chunk), dtype=bool)
    for _, lines in itertools.islice(_lines(chunk, dim), 2):
        ok &= ~_faults(lines, tol).any(axis=1)
    keep = np.flatnonzero(ok)
    if dim == 2 and keep.size:
        for _, lines in itertools.islice(_lines(chunk[keep], dim), 2, None):
            ok[keep] &= ~_faults(lines, tol).any(axis=1)
    return ok


def batch_is_convex(vals: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    """Vectorized line battery over a batch of sampled functions.

    vals has shape (B, *grid.shape); returns a (B,) boolean verdict array.
    Identically +inf slices pass (callers treat them as empty-domain).
    Each slice is decided alone, so the battery runs on chunks of about
    ``windows._TILE_BYTES``, each copied contiguous (a chunk of a
    transposed stack, such as the y-slices of a product array, is
    scattered in memory).
    """
    ok = np.empty(len(vals), dtype=bool)
    for t in _tiles(len(vals), grid.size * vals.itemsize):
        ok[t] = _chunk_ok(np.ascontiguousarray(vals[t]), grid.dim, tol)
    return ok


def first_nonconvex(vals: np.ndarray, grid: Grid, tol: float) -> int | None:
    """Index of the first slice of a (B, *grid.shape) stack that fails the
    line battery, or None. The battery runs one contiguous chunk of about
    ``windows._TILE_BYTES`` at a time, so no chunk past the one holding
    the first failure is scanned."""
    for t in _tiles(len(vals), grid.size * vals.itemsize):
        bad = np.flatnonzero(~_chunk_ok(np.ascontiguousarray(vals[t]),
                                        grid.dim, tol))
        if bad.size:
            return t.start + int(bad[0])
    return None


# --- set convexity ----------------------------------------------------------

# Sets per pass of ``_set_scan``'s row-end search. Stacks are often views
# with the set index fastest in memory, so a pass reads whole cache lines,
# and a scan that stops at its first failure reads little past it.
_SCAN_CHUNK = 64


def _as_mask(points, grid: Grid) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.dtype == bool:
        if points.shape != grid.shape:
            raise InvalidInputError("mask shape does not match the grid")
        return points
    mask = np.zeros(grid.shape, dtype=bool)
    for idx in points:
        mask[idx if grid.dim == 2 else int(idx)] = True
    return mask


def _hull(pts: list) -> list:
    """Convex hull (Andrew's monotone chain, no collinear vertices) of
    lexicographically sorted, distinct 2-D points given as tuples."""
    lower: list = []
    upper: list = []
    for chain, seq in ((lower, pts), (upper, reversed(pts))):
        for p in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (p[1] - ay) - (p[0] - ax) * (by - ay) > 0.0:
                    break
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def _set_scan(masks: np.ndarray, grid: Grid):
    """Hull-margin verdicts of a (B, *grid.shape) stack of node sets.

    Yields (b, report) for each nonempty set in ascending b, so a caller
    that wants the first failure stops there. 1-D sets are decided by one
    contiguity scan of the stack (``_faults``). In 2-D the hull of a union
    of row runs is the hull of the runs' ends, which one pass finds for
    ``_SCAN_CHUNK`` sets at a time; they arrive sorted by row, then column,
    so the chain needs no sort. The depth of every bounding-box node below
    every hull edge is then one broadcast.
    """
    if grid.dim == 1:
        lines = np.where(masks, 0.0, np.inf)[:, None, :]
        bad, _, pos, _ = (a[:, 0] for a in _faults(lines, 0.0, locate=True))
        ok = passing("set-convex")   # frozen, so one serves every set
        for b in np.flatnonzero(masks.any(axis=1)).tolist():
            yield b, failing("set-convex", (int(pos[b]),), None,
                             "missing interior node") if bad[b] else ok
        return

    ax0, ax1 = grid.axes
    xs, ys = ax0.tolist(), ax1.tolist()
    margin = max(grid.h) / 2.0
    for c in range(0, len(masks), _SCAN_CHUNK):
        chunk = masks[c:c + _SCAN_CHUNK]
        rowany = chunk.any(axis=2)
        first = chunk.argmax(axis=2)
        last = grid.n[1] - 1 - chunk[:, :, ::-1].argmax(axis=2)
        for b in np.flatnonzero(rowany.any(axis=1)).tolist():
            rows = np.flatnonzero(rowany[b])
            left, right = first[b, rows], last[b, rows]
            pts = []
            for i, j, k in zip(rows.tolist(), left.tolist(), right.tolist()):
                pts.append((xs[i], ys[j]))
                if k > j:
                    pts.append((xs[i], ys[k]))
            hull = _hull(pts)
            if len(hull) < 3:
                yield c + b, passing("set-convex",
                                     "degenerate hull: no interior nodes")
                continue
            a = np.array(hull + hull[:1])
            e = a[1:] - a[:-1]
            norm = np.hypot(e[:, 0], e[:, 1])[:, None, None]
            ex, ey = e[:, 0, None, None], e[:, 1, None, None]
            i0, i1 = int(rows[0]), int(rows[-1])
            j0, j1 = int(left.min()), int(right.max())
            gx = ax0[None, i0:i1 + 1, None] - a[:-1, 0, None, None]
            gy = ax1[None, None, j0:j1 + 1] - a[:-1, 1, None, None]
            depth = ((ex * gy - ey * gx) / norm).min(axis=0)
            missing = (depth > margin) & ~chunk[b, i0:i1 + 1, j0:j1 + 1]
            if not missing.any():
                yield c + b, passing("set-convex")
                continue
            wi, wj = divmod(int(np.argmax(missing)), j1 - j0 + 1)
            yield c + b, failing("set-convex", (wi + i0, wj + j0),
                                 float(depth[wi, wj] - margin),
                                 "missing hull-interior node")


def is_set_convex(points, grid: Grid) -> CheckReport:
    """Hull-margin convexity of a set of grid nodes.

    points: boolean mask over the grid or an iterable of node indices.
    1-D sets must be index-contiguous. 2-D sets: every node deeper than
    h/2 inside the member hull must be a member; degenerate (collinear)
    hulls have no such nodes and pass.
    """
    mask = _as_mask(points, grid)
    if not mask.any():
        raise InvalidInputError("the empty set has no convexity verdict")
    return next(_set_scan(mask[None], grid))[1]
