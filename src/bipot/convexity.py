"""Discrete convexity predicates.

Function convexity (``is_convex``) is decided by a line battery: along every
grid row, column and both diagonal directions the finite domain must be
contiguous and interior second differences must be >= -tol. This is a
necessary set of conditions that is sufficient for the smooth and polyhedral
functions this package works with; an exhaustive midpoint oracle cross-checks
it in the test suite. One vectorized scan (``_faults``) is the whole
battery: ``is_convex`` reads the first faulting line, ``batch_is_convex``
keeps verdicts only, and 1-D sets are decided by its gap test. Stacks of
functions are scanned a chunk of about ``windows._TILE_BYTES`` at a time:
``first_nonconvex`` stops at the chunk holding the first failure, and
``batch_is_convex`` scans the diagonals last, once, over the slices that
pass the rows and columns.

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

import numpy as np

from .errors import InvalidInputError, require_tol
from .grids import Grid, SampledFunction
from .report import CheckReport, failing, passing
from .windows import _tiles


# --- line battery -----------------------------------------------------------


def _lines(vals: np.ndarray, dim: int):
    """The grid lines of a (B, *shape) stack of functions, in scan order.

    Yields (family, line indices, (B, L, m) view): all rows, all columns,
    then each diagonal of the two directions on its own. A row or column
    index is its node index along the other axis, a diagonal's is its
    offset. Diagonals shorter than 3 nodes cannot fault and are skipped.
    """
    if dim == 1:
        yield "row", (0,), vals[:, None, :]
        return
    _, n1, n2 = vals.shape
    yield "row", range(n1), vals
    yield "col", range(n2), vals.transpose(0, 2, 1)
    for family, flipped in (("diag-down", vals), ("diag-up", vals[:, :, ::-1])):
        for off in range(3 - n1, n2 - 2):
            yield family, (off,), np.diagonal(flipped, off, 1, 2)[:, None, :]


def _faults(lines: np.ndarray, tol: float, locate: bool = False):
    """Faulting lines of a (B, L, m) stack, m >= 3.

    A line faults where its finite domain has a gap, or else where an
    interior second difference is below -tol. Returns the (B, L) fault
    flags; with locate, also the gap flags, the position of each line's
    first fault (the first missing interior index of a gap, else the
    center of the first low triple) and the (B, L, m - 2) second
    differences, so that the one centered at position p is [..., p - 1].
    Values are never NaN or -inf, so a triple holding +inf gives +inf or
    NaN unless its center alone is missing, which is a gap anyway.
    """
    fin = np.isfinite(lines)
    cnt = fin.sum(axis=2)
    first = np.argmax(fin, axis=2)
    last = lines.shape[2] - 1 - np.argmax(fin[:, :, ::-1], axis=2)
    gap = (cnt > 0) & (last - first + 1 != cnt)
    # rounds as a - 2b + c does, in one buffer
    second = -2.0 * lines[:, :, 1:-1]
    with np.errstate(invalid="ignore"):
        second += lines[:, :, :-2]
        second += lines[:, :, 2:]
    low = second < -tol
    bad = gap | low.any(axis=2)
    if not locate:
        return bad
    # in a gap line the first finite node followed by a missing one ends
    # the first run, so the missing one is the first interior hole
    hole = np.argmax(fin[:, :, :-1] & ~fin[:, :, 1:], axis=2)
    return bad, gap, 1 + np.where(gap, hole, np.argmax(low, axis=2)), second


def _first_fault(vals: np.ndarray, dim: int, tol: float):
    """(family, line index, axiom, position, residual) of the first
    faulting line of one function, or None."""
    for family, ids, lines in _lines(vals[None], dim):
        bad, gap, pos, second = (a[0] for a in _faults(lines, tol, locate=True))
        hit = np.flatnonzero(bad)
        if hit.size:
            k, p = hit[0], int(pos[hit[0]])
            if gap[k]:
                return family, ids[k], "domain-contiguous", p, None
            return family, ids[k], "second-difference", p, float(second[k, p - 1])
    return None


def _line_witness(family, line_index, pos, shape):
    """Map a 1-D line position back to 2-D node indices."""
    n1, n2 = shape
    if family == "row":
        return (line_index, pos)
    if family == "col":
        return (pos, line_index)
    i0 = max(-line_index, 0)
    j0 = max(line_index, 0)
    if family == "diag-down":
        return (i0 + pos, j0 + pos)
    return (i0 + pos, n2 - 1 - (j0 + pos))


def is_convex(f: SampledFunction, tol: float) -> CheckReport:
    """Discrete convexity of a sampled function (see module docstring).

    An identically +inf function passes vacuously. tol >= 0 bounds how
    negative an interior second difference may be.
    """
    require_tol(tol)
    hit = _first_fault(f.vals, f.grid.dim, tol)
    if hit is None:
        return passing("convex")
    family, li, axiom, pos, residual = hit
    if f.grid.dim == 1:
        return failing(axiom, (pos,), residual)
    return failing(axiom, _line_witness(family, li, pos, f.vals.shape),
                   residual, f"line = {family} {li}")


def _straight_ok(chunk: np.ndarray, dim: int, tol: float) -> np.ndarray:
    """(B,) verdicts of a contiguous (B, *shape) chunk over its rows and
    columns."""
    ok = np.ones(len(chunk), dtype=bool)
    for family, _, lines in _lines(chunk, dim):
        if family not in ("row", "col"):
            break
        ok &= ~_faults(lines, tol).any(axis=1)
    return ok


def _diagonal_ok(chunk: np.ndarray, dim: int, tol: float,
                 ok: np.ndarray) -> np.ndarray:
    """Narrow ok, the (B,) verdicts of a contiguous chunk's rows and
    columns, by its diagonals, in place; each diagonal is scanned only
    over the slices that still pass."""
    for family, _, lines in _lines(chunk, dim):
        if family in ("row", "col"):
            continue
        sub = np.flatnonzero(ok)
        if sub.size == 0:
            break
        ok[sub] = ~_faults(lines[sub], tol)[:, 0]
    return ok


def batch_is_convex(vals: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    """Vectorized line battery over a batch of sampled functions.

    vals has shape (B, *grid.shape); returns a (B,) boolean verdict array.
    Identically +inf slices pass (callers treat them as empty-domain).
    Each slice is decided alone, so the battery runs on chunks of about
    ``windows._TILE_BYTES``, each copied contiguous (a chunk of a
    transposed stack, such as the y-slices of a product array, is
    scattered in memory): rows and columns chunk by chunk, then the
    diagonals once, over the slices that pass them, gathered into chunks.
    """
    ok = np.empty(len(vals), dtype=bool)
    item = grid.size * vals.itemsize
    for t in _tiles(len(vals), item):
        ok[t] = _straight_ok(np.ascontiguousarray(vals[t]), grid.dim, tol)
    if grid.dim == 2:
        keep = np.flatnonzero(ok)
        for u in _tiles(len(keep), item):
            rows = keep[u]
            ok[rows] = _diagonal_ok(np.ascontiguousarray(vals[rows]),
                                    grid.dim, tol, np.ones(len(rows), bool))
    return ok


def first_nonconvex(vals: np.ndarray, grid: Grid, tol: float) -> int | None:
    """Index of the first slice of a (B, *grid.shape) stack that fails the
    line battery, or None. The whole battery runs one contiguous chunk of
    about ``windows._TILE_BYTES`` at a time, so no chunk past the one
    holding the first failure is scanned."""
    for t in _tiles(len(vals), grid.size * vals.itemsize):
        chunk = np.ascontiguousarray(vals[t])
        flags = _diagonal_ok(chunk, grid.dim, tol,
                             _straight_ok(chunk, grid.dim, tol))
        bad = np.flatnonzero(~flags)
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
