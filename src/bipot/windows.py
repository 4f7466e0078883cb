"""Discrete ball windows and grid-wide min-filter / dilation sweeps.

A radius-eps ball around a node is realized as the set of node offsets d
with ||d * h|| <= eps (Euclidean norm; a relative slack of 1e-9 keeps
exact-rim offsets in despite float rounding). In 2-D the disc decomposes
into chords, one sliding 1-D window per row offset (Urbach & Wilkinson,
IEEE TIP 17(1), 2008), so every sweep reduces to the batched line kernels
in ``bipot._kernels``; a 1-D grid is one row. Windows are clipped at the
box: each row of the line buffer carries identity cells on its right, as
many as the widest chord's half-width, so that a tile of rows is one flat
line for the kernel and a window that runs off a row meets only
identities. A sweep runs over its caller's tiles with one chord plan.
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


def _chord(eps: float, d1: int, h1: float, h2: float) -> float:
    """Half-width in second-axis nodes, before flooring, of the disc's row
    at first-axis offset d1; negative if the row misses the disc. May be
    +inf when eps*eps overflows."""
    rem = eps * eps * (1.0 + _SLACK) - (d1 * h1) ** 2
    if rem < 0.0:
        return -1.0
    return math.sqrt(rem) / h2 * (1.0 + _SLACK) + _SLACK


def ball_offsets(grid: Grid, eps: float):
    """All node offsets of the grid with ||offset * h|| <= eps.

    Returns ints in 1-D and (d1, d2) tuples in 2-D, in ascending order.
    Always contains the zero offset.
    """
    r1 = radius_nodes(eps, grid.h[0])
    if grid.dim == 1:
        return list(range(-r1, r1 + 1))
    out = []
    for d1 in range(-r1, r1 + 1):
        c = _chord(eps, d1, *grid.h)
        if c >= 0:
            w = math.floor(c)
            out.extend((d1, d2) for d2 in range(-w, w + 1))
    return out


def require_resolvable(eps: float, grid: Grid) -> None:
    """Blur radii must be 0 or at least one node spacing."""
    if eps == 0:
        return
    if radius_nodes(eps, max(grid.h)) < 1:
        raise ResolutionError(
            f"blur radius below grid resolution (eps={eps}, h={max(grid.h)})")


def _chord_plan(n1: int, n2: int, r1: int, halfwidth):
    """(pad, steps) of a 2-D sweep on rows of n2 + pad cells.

    Each step is (widening, [(dst, src)]): the line buffer's windows grow
    by ``widening`` to the next distinct chord half-width, then each row
    offset d1 of that chord reduces flat slice src of an item's buffer
    into flat slice dst of its result, pairing row i with row i + d1 over
    the rows where both lie in the box. Half-widths are clamped to n2 - 1
    and pad is the widest of them.
    """
    by_w: dict[int, list[int]] = {}
    for d1 in range(-r1, r1 + 1):
        c = halfwidth(d1)
        if c >= 0:
            by_w.setdefault(math.floor(min(c, n2 - 1)), []).append(d1)
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


def _sweep(blocks, grid: Grid, r1: int, halfwidth, kernel, ufunc, fill):
    """(key, result) for each (key, block) of ``blocks``: the block, of
    shape (k, *grid.shape), reduced over its grid axes with ``ufunc`` over
    the window of offsets (d1, d2) with |d1| <= r1 and
    |d2| <= floor(halfwidth(d1)), no row where halfwidth(d1) < 0. A 1-D
    grid is one row, whose window is r1. ``kernel`` is the batched 1-D line
    filter that reduces with ``ufunc``, and ``fill`` is the identity of
    ``ufunc``. Half-widths are clamped to n - 1 on each axis: the window is
    clipped at the box anyway, so neither memory nor the row loop grows
    with the radius.

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
    if grid.dim == 1:
        n1, (n2,), w = 1, grid.n, r1
        r1, halfwidth = 0, lambda d1: w
    else:
        n1, n2 = grid.n
    pad, steps = _chord_plan(n1, n2, min(r1, n1 - 1), halfwidth)
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


def _ball_window(grid: Grid, eps: float):
    """(r1, halfwidth) of the eps-ball for ``_sweep``."""
    h = grid.h
    return (radius_nodes(eps, h[0]),
            lambda d1: _chord(eps, d1, h[0], h[-1]))


def _ball_sweep(a: np.ndarray, grid: Grid, eps: float, kernel, ufunc, fill):
    """``_sweep`` of a whole array over the eps-ball, a tile of its
    leading items at a time."""
    if a.shape[-grid.dim:] != grid.shape:
        raise InvalidInputError("trailing axes do not match the grid")
    items = np.ascontiguousarray(a).reshape((-1,) + grid.shape)
    out = np.empty_like(items)
    blocks = ((t, items[t])
              for t in _tiles(len(items), grid.size * items.itemsize))
    r1, halfwidth = _ball_window(grid, eps)
    for t, res in _sweep(blocks, grid, r1, halfwidth, kernel, ufunc, fill):
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
