"""Discrete convexity predicates and the grid min-filter.

Function convexity (``is_convex``) is decided by a line battery: along every
grid row, column and both diagonal directions the finite domain must be
contiguous and interior second differences must be >= -tol. This is a
necessary set of conditions that is sufficient for the smooth and polyhedral
functions this package works with; an exhaustive midpoint oracle cross-checks
it in the test suite.

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


def _line_violation(vals: np.ndarray, tol: float):
    """First violation on one grid line, or None.

    Returns (kind, position, residual): kind 'domain-contiguous' with the
    first missing interior index, or 'second-difference' with the center
    index of the first violating triple and its (negative) residual.
    """
    fin = np.isfinite(vals)
    cnt = int(fin.sum())
    if cnt == 0:
        return None
    idx = np.flatnonzero(fin)
    first, last = int(idx[0]), int(idx[-1])
    if last - first + 1 != cnt:
        interior = np.flatnonzero(~fin[first:last]) + first
        return ("domain-contiguous", int(interior[0]), None)
    if len(vals) >= 3:
        a, b, c = vals[:-2], vals[1:-1], vals[2:]
        tri = fin[:-2] & fin[1:-1] & fin[2:]
        with np.errstate(invalid="ignore"):
            second = np.where(tri, a - 2.0 * b + c, np.inf)
        bad = np.flatnonzero(tri & (second < -tol))
        if bad.size:
            i = int(bad[0])
            return ("second-difference", i + 1, float(second[i]))
    return None


def _iter_lines(vals: np.ndarray):
    """All grid lines of a 2-D array with an addressing tag.

    Yields (family, line_index, 1-D array). Families in scan order: rows
    (fixed axis-0 index), columns, the two diagonal directions.
    """
    n1, n2 = vals.shape
    for i in range(n1):
        yield ("row", i, vals[i, :])
    for j in range(n2):
        yield ("col", j, vals[:, j])
    for off in range(-(n1 - 1), n2):
        yield ("diag-down", off, np.diagonal(vals, offset=off))
    flipped = vals[:, ::-1]
    for off in range(-(n1 - 1), n2):
        yield ("diag-up", off, np.diagonal(flipped, offset=off))


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
    if any(k < 3 for k in f.grid.n):
        raise InvalidInputError("need at least 3 nodes per axis")
    if f.grid.dim == 1:
        hit = _line_violation(f.vals, tol)
        if hit is None:
            return passing("convex")
        kind, pos, residual = hit
        return failing(kind, (pos,), residual)
    for family, li, line in _iter_lines(f.vals):
        hit = _line_violation(np.ascontiguousarray(line), tol)
        if hit is not None:
            kind, pos, residual = hit
            witness = _line_witness(family, li, pos, f.vals.shape)
            return failing(kind, witness, residual, f"line = {family} {li}")
    return passing("convex")


def batch_is_convex(vals: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    """Vectorized line battery over a batch of sampled functions.

    vals has shape (B, *grid.shape); returns a (B,) boolean verdict array.
    Identically +inf slices pass (callers treat them as empty-domain).
    """
    if grid.dim == 1:
        vals3 = vals[:, None, :]
    else:
        vals3 = vals
    B, n1, n2 = vals3.shape
    ok = np.ones(B, dtype=bool)

    def fold_lines(a):
        # a: (B, L, m) stack of lines; checks contiguity + second differences
        fin = np.isfinite(a)
        cnt = fin.sum(axis=2)
        first = np.argmax(fin, axis=2)
        last = a.shape[2] - 1 - np.argmax(fin[:, :, ::-1], axis=2)
        contig = (cnt == 0) | (last - first + 1 == cnt)
        good = contig.all(axis=1)
        if a.shape[2] >= 3:
            tri = fin[:, :, :-2] & fin[:, :, 1:-1] & fin[:, :, 2:]
            x, y, z = a[:, :, :-2], a[:, :, 1:-1], a[:, :, 2:]
            with np.errstate(invalid="ignore"):
                second = np.where(tri, x - 2.0 * y + z, np.inf)
            good &= ~(second < -tol).any(axis=(1, 2))
        return good

    ok &= fold_lines(vals3)                       # rows
    if grid.dim == 1:
        return ok
    ok &= fold_lines(vals3.transpose(0, 2, 1))    # columns
    for flipped in (vals3, vals3[:, :, ::-1]):    # both diagonal directions
        for off in range(-(n1 - 1), n2):
            line = np.diagonal(flipped, offset=off, axis1=1, axis2=2)
            sub = ok.nonzero()[0]
            if sub.size == 0:
                return ok
            ok[sub] &= fold_lines(line[sub][:, None, :])
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
        hit = _line_violation(np.where(mask, 0.0, np.inf), 0.0)
        if hit is None:
            return passing("set-convex")
        return failing("set-convex", (hit[1],),
                       None, "missing interior node")

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
