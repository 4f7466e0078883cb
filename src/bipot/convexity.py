"""Discrete convexity predicates and the grid min-filter.

Function convexity (``is_convex``) is decided by a line battery: along every
grid row, column and both diagonal directions the finite domain must be
contiguous and interior second differences must be >= -tol. This is a
necessary set of conditions that is sufficient for the smooth and polyhedral
functions this package works with; an exhaustive midpoint oracle cross-checks
it in the test suite. One vectorized scan (``_faults``) is the whole
battery: ``is_convex`` reads the first faulting line, ``batch_is_convex``
keeps verdicts only, and 1-D sets are decided by its gap test.

Set convexity (``is_set_convex``) is decided per the hull-margin rule: every
grid node lying deeper than h/2 inside the convex hull of the member nodes
must itself be a member. The margin keeps boundary rasterization from being
flagged. On finite grids every set is closed, so the closedness half of
bi-closedness is vacuously true wherever it is quoted.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .grids import Grid, SampledFunction
from .report import CheckReport, failing, passing
from .windows import ball_min_filter


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
    if tol < 0:
        raise InvalidInputError("tol must be >= 0")
    hit = _first_fault(f.vals, f.grid.dim, tol)
    if hit is None:
        return passing("convex")
    family, li, axiom, pos, residual = hit
    if f.grid.dim == 1:
        return failing(axiom, (pos,), residual)
    return failing(axiom, _line_witness(family, li, pos, f.vals.shape),
                   residual, f"line = {family} {li}")


def batch_is_convex(vals: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    """Vectorized line battery over a batch of sampled functions.

    vals has shape (B, *grid.shape); returns a (B,) boolean verdict array.
    Identically +inf slices pass (callers treat them as empty-domain).
    Rows and columns are scanned over the whole stack; each diagonal only
    over the slices that still pass.
    """
    ok = np.ones(len(vals), dtype=bool)
    for family, _, lines in _lines(vals, grid.dim):
        if family in ("row", "col"):
            ok &= ~_faults(lines, tol).any(axis=1)
            continue
        sub = np.flatnonzero(ok)
        if sub.size == 0:
            break
        ok[sub] = ~_faults(lines[sub], tol)[:, 0]
    return ok


# --- set convexity ----------------------------------------------------------


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points (Andrew's monotone chain), CCW, no collinears."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                ax, ay = chain[-2]
                bx, by = chain[-1]
                if (bx - ax) * (p[1] - ay) - (p[0] - ax) * (by - ay) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append((p[0], p[1]))
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    return np.asarray(hull)


def _as_mask(points, grid: Grid) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.dtype == bool:
        if points.shape != grid.shape:
            raise InvalidInputError("mask shape does not match the grid")
        return points
    mask = np.zeros(grid.shape, dtype=bool)
    for idx in points:
        mask[idx if grid.dim == 2 else int(idx)] = True
    return mask


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
    if grid.dim == 1:
        hit = _first_fault(np.where(mask, 0.0, np.inf), 1, 0.0)
        if hit is None:
            return passing("set-convex")
        return failing("set-convex", (hit[3],), None, "missing interior node")

    ax0, ax1 = grid.axes
    # hull of a union of horizontal runs = hull of the runs' endpoints
    rows = np.flatnonzero(mask.any(axis=1))
    first = mask[rows].argmax(axis=1)
    last = grid.n[1] - 1 - mask[rows, ::-1].argmax(axis=1)
    x = ax0[rows]
    hull = monotone_chain(np.concatenate([np.column_stack([x, ax1[first]]),
                                          np.column_stack([x, ax1[last]])]))
    if len(hull) < 3:
        return passing("set-convex", "degenerate hull: no interior nodes")

    margin = max(grid.h) / 2.0
    i0, i1 = int(rows[0]), int(rows[-1])
    j0, j1 = int(first.min()), int(last.max())
    gx, gy = np.meshgrid(ax0[i0:i1 + 1], ax1[j0:j1 + 1], indexing="ij")
    depth = np.full(gx.shape, np.inf)
    for k in range(len(hull)):
        a = hull[k]
        b = hull[(k + 1) % len(hull)]
        ex, ey = b[0] - a[0], b[1] - a[1]
        norm = float(np.hypot(ex, ey))
        signed = (ex * (gy - a[1]) - ey * (gx - a[0])) / norm
        np.minimum(depth, signed, out=depth)
    deep = depth > margin
    missing = deep & ~mask[i0:i1 + 1, j0:j1 + 1]
    if not missing.any():
        return passing("set-convex")
    flat = int(np.argmax(missing))
    wi, wj = np.unravel_index(flat, missing.shape)
    return failing("set-convex", (int(wi + i0), int(wj + j0)),
                   float(depth[wi, wj] - margin),
                   "missing hull-interior node")


# --- min filter -------------------------------------------------------------


def min_filter(f: SampledFunction, radius: float) -> SampledFunction:
    """g(y) = min{ f(node) : ||node - y|| <= radius }.

    The window always contains y itself, so g <= f pointwise and radius 0
    returns f unchanged. Windows are clipped at the box boundary.
    """
    if radius < 0:
        raise InvalidInputError("radius must be >= 0")
    return SampledFunction(f.grid, ball_min_filter(f.vals, f.grid, radius))
