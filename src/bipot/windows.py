"""Discrete ball windows and grid-wide min-filter / dilation sweeps.

A radius-eps ball around a node is realized as the set of node offsets d
with ||d * h|| <= eps (Euclidean norm; a relative slack of 1e-9 keeps
exact-rim offsets in despite float rounding). One chord table,
``_ball_chords``, describes it: the disc as rows (d1, w) of offsets
(d1, d2) with |d2| <= w, a 1-D grid being one row, clamped once to the
offsets that join two nodes of the grid, so that no consumer grows with
the radius. The sweeps reduce it one sliding 1-D window per row offset
(Urbach & Wilkinson, IEEE TIP 17(1), 2008) with the batched line kernels
in ``bipot._kernels``, and ``ball_offsets`` expands it for the consumers
that index offsets one by one. Windows are clipped at the box: each row of
the line buffer carries identity cells on its right, as many as the
widest chord's half-width, so that a tile of rows is one flat line for the
kernel and a window that runs off a row meets only identities. A sweep
runs over its caller's tiles with one chord plan.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._kernels._fallback import _sliding
from .errors import InvalidInputError, ResolutionError
from .grids import Grid, _pair_points

_SLACK = 1e-9

# Bytes per tile of the items that ``_sweep`` takes as one block, and per
# slice chunk elsewhere; a sweep's padded buffer is at most twice a tile.
# On a 2-core x86 VM with 2 MiB of L2 per core, padded buffers of 128 KiB
# to 1 MiB ran the cone-81 y-ball min-filter (``blur._yball_blur``) in
# 1.8-2.5 s, against 3.5-3.6 s at 4-16 MiB and 3.8 s at 64 KiB.
_TILE_BYTES = 1 << 18


def _tiles(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each about ``_TILE_BYTES`` of
    items of item_bytes bytes, and at least one item."""
    step = max(1, _TILE_BYTES // max(1, item_bytes))
    return [slice(s, s + step) for s in range(0, count, step)]


def _pair_tiles(xgrid: Grid, ygrid: Grid, cols=slice(None)):
    """(t, <x, y>) over consecutive x-tiles t of about ``_TILE_BYTES`` of
    float64 pairs with the y-nodes of flat indices cols, shape
    (tile, len(cols)), with the bits of ``grids.pairing``."""
    ypts = ygrid.points[cols]
    for t in _tiles(xgrid.size, len(ypts) * 8):
        yield t, _pair_points(xgrid.points[t], ypts)


def radius_nodes(eps: float, h: float) -> int:
    """Largest k with k*h <= eps (up to relative slack)."""
    if math.isnan(eps) or eps < 0:
        raise InvalidInputError(f"radius must be >= 0, got {eps}")
    k = eps / h * (1.0 + _SLACK) + _SLACK
    if math.isinf(k):
        raise InvalidInputError(f"radius {eps} is too large for grid step {h}")
    return int(math.floor(k))


def _ball_chords(grid: Grid, eps: float) -> list[tuple[int, int]]:
    """The eps-ball as rows (d1, w), ascending in d1: its offsets are the
    (d1, d2) with |d2| <= w, and a 1-D grid is the one row d1 = 0. Rows
    and half-widths are clamped to |d1| <= n1 - 1 and w <= n2 - 1, since
    no other offset joins two nodes; so the table grows with the grid, not
    with the radius."""
    r1 = radius_nodes(eps, grid.h[0])
    if grid.dim == 1:
        return [(0, min(r1, grid.n[0] - 1))]
    (n1, n2), (h1, h2) = grid.n, grid.h
    chords = []
    for d1 in range(-min(r1, n1 - 1), min(r1, n1 - 1) + 1):
        rem = eps * eps * (1.0 + _SLACK) - (d1 * h1) ** 2
        if rem >= 0.0:   # the row meets the disc; eps * eps may be +inf
            c = math.sqrt(rem) / h2 * (1.0 + _SLACK) + _SLACK
            chords.append((d1, math.floor(min(c, n2 - 1))))
    return chords


def ball_offsets(grid: Grid, eps: float):
    """The node offsets of ``_ball_chords``' table, those with
    ||offset * h|| <= eps that join two nodes of the grid.

    Returns ints in 1-D and (d1, d2) tuples in 2-D, in ascending order.
    Always contains the zero offset.
    """
    offs = [(d1, d2) for d1, w in _ball_chords(grid, eps)
            for d2 in range(-w, w + 1)]
    return offs if grid.dim == 2 else [d2 for _, d2 in offs]


def require_resolvable(eps: float, grid: Grid) -> None:
    """Blur radii must be 0 or at least one node spacing."""
    if eps == 0:
        return
    if radius_nodes(eps, max(grid.h)) < 1:
        raise ResolutionError(
            f"blur radius below grid resolution (eps={eps}, h={max(grid.h)})")


def _chord_plan(n1: int, n2: int, chords):
    """(pad, steps) of a sweep over the chord table ``chords`` on rows of
    n2 + pad cells.

    Each step is (widening, [(dst, src)]): the line buffer's windows grow
    by ``widening`` to the next distinct chord half-width, then each row
    offset d1 of that chord reduces flat slice src of an item's buffer
    into flat slice dst of its result, pairing row i with row i + d1 over
    the rows where both lie in the box. pad is the widest half-width.
    """
    by_w: dict[int, list[int]] = {}
    for d1, w in chords:
        by_w.setdefault(w, []).append(d1)
    pad = max(by_w, default=0)
    row = n2 + pad
    steps, w_prev = [], 0
    for w, d1s in sorted(by_w.items()):
        pairs = []
        for d1 in d1s:
            lo, hi = max(0, -d1), n1 - max(0, d1)
            pairs.append((slice(lo * row, hi * row),
                          slice((lo + d1) * row, (hi + d1) * row)))
        steps.append((w - w_prev, pairs))
        w_prev = w
    return pad, steps


def _sweep(blocks, grid: Grid, chords, kernel, ufunc, fill):
    """(key, result) for each (key, block) of ``blocks``: the block, of
    shape (k, *grid.shape), reduced over its grid axes with ``ufunc`` over
    the window of offsets (d1, d2) with |d2| <= w for each row (d1, w) of
    the chord table ``chords``, clamped to the box as ``_ball_chords``
    makes it; a 1-D grid is one row of n nodes. ``kernel`` is the batched
    1-D line filter that reduces with ``ufunc``, and ``fill`` is the
    identity of ``ufunc``.

    Each row of the line buffer carries ``pad`` identity cells on its
    right, pad being the widest chord half-width, so a whole block is one
    flat line: a window that runs off a row meets only identities. The
    buffer grows in place from each distinct chord half-width to the next
    (a window of half-width d over windows of half-width w is the window of
    half-width w + d), and each chord is reduced into the result at its row
    offsets, one flat slice per offset. The plan and the two buffers are
    made once per call, the buffers sized by the first block, which no
    later block may exceed; callers pass cache-sized tiles. The key passes
    through, and the result is a view that the next block overwrites.
    """
    n1, n2 = (1, *grid.n)[-2:]
    pad, steps = _chord_plan(n1, n2, chords)
    buf = res = None
    for key, block in blocks:
        k = len(block)
        if buf is None:
            buf = np.empty((k, n1, n2 + pad), dtype=block.dtype)
            res = np.empty_like(buf)
        lines, acc = buf[:k], res[:k]
        lines[:, :, :n2] = block.reshape(k, n1, n2)
        lines[:, :, n2:] = fill
        acc.fill(fill)
        flat = lines.reshape(1, -1)
        items, sums = lines.reshape(k, -1), acc.reshape(k, -1)
        for widening, pairs in steps:
            kernel(flat, widening, out=flat)
            for dst, src in pairs:
                ufunc(sums[:, dst], items[:, src], out=sums[:, dst])
        yield key, acc[:, :, :n2].reshape(block.shape)


def _ball_sweep(a: np.ndarray, grid: Grid, eps: float, kernel, ufunc, fill):
    """``_sweep`` of a whole array over the eps-ball, a tile of its
    leading items at a time."""
    if a.shape[-grid.dim:] != grid.shape:
        raise InvalidInputError("trailing axes do not match the grid")
    items = np.ascontiguousarray(a).reshape((-1,) + grid.shape)
    out = np.empty_like(items)
    blocks = ((t, items[t])
              for t in _tiles(len(items), grid.size * items.itemsize))
    for t, res in _sweep(blocks, grid, _ball_chords(grid, eps), kernel,
                         ufunc, fill):
        out[t] = res
    return out.reshape(a.shape)


def ball_min_filter(vals: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """min over the eps-ball of the trailing grid axes.

    out[..., y] = min{ vals[..., y + d] : ||d * h|| <= eps }, windows clipped
    at the box boundary. Leading axes are batched.
    """
    return _ball_sweep(vals, grid, eps, _kernels.sliding_min, np.minimum,
                       np.inf)


def ball_dilate(mask: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """Binary dilation of the trailing grid axes by the eps-ball."""
    u8 = np.ascontiguousarray(mask, dtype=bool).view(np.uint8)
    return _ball_sweep(u8, grid, eps, _kernels.sliding_max_u8, np.maximum,
                       0).view(bool)


def chebyshev_dilate(mask: np.ndarray, grid: Grid, nodes: int) -> np.ndarray:
    """Dilate the trailing grid axes by `nodes` steps in every direction.

    The window is a box: each trailing axis is dilated in turn, in place
    on one bool copy of the mask in the mask's memory layout (a transposed
    view is not made contiguous), by the line kernels' doubling."""
    out = np.array(mask, dtype=bool, order="K")
    for ax in range(out.ndim - grid.dim, out.ndim):
        line = np.moveaxis(out, ax, -1)
        _sliding(line, nodes, np.logical_or, line)
    return out
