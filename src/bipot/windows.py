"""Discrete ball windows and grid-wide min-filter / dilation sweeps.

A radius-eps ball around a node is realized as the set of node offsets d
with ||d * h|| <= eps (Euclidean norm; a relative slack of 1e-9 keeps
exact-rim offsets in despite float rounding). In 2-D the disc decomposes
into chords, one sliding 1-D window per row offset (Urbach & Wilkinson,
IEEE TIP 17(1), 2008), so every sweep reduces to the batched line kernels
in ``bipot._kernels``. Windows are clipped at the box.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import InvalidInputError, ResolutionError
from .grids import Grid

_SLACK = 1e-9


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
    if eps < 0:
        raise InvalidInputError("blur radius must be >= 0")
    if radius_nodes(eps, max(grid.h)) < 1:
        raise ResolutionError(
            f"blur radius below grid resolution (eps={eps}, h={max(grid.h)})")


def _overlap(shape, offset):
    """Index tuples (dst, src) pairing dst[i] with src[i - offset] over the
    nodes where both lie in the box; empty slices when none do."""
    dst, src = [], []
    for n, d in zip(shape, offset):
        lo = max(0, d)
        hi = max(lo, n + min(0, d))
        dst.append(slice(lo, hi))
        src.append(slice(lo - d, hi - d))
    return tuple(dst), tuple(src)


def _shift_reduce(out: np.ndarray, src: np.ndarray, offsets, ufunc) -> None:
    """out[i] = ufunc(out[i], src[i - d]) for each offset d, in order."""
    for off in offsets:
        dst, s = _overlap(out.shape, off)
        ufunc(out[dst], src[s], out=out[dst])


def _sweep(a: np.ndarray, grid: Grid, r1: int, halfwidth, kernel, ufunc,
           fill) -> np.ndarray:
    """Reduce the trailing grid axes of ``a`` with ``ufunc`` over a window.

    The window holds the offsets (d1, d2) with |d1| <= r1 and
    |d2| <= floor(halfwidth(d1)), a row being empty when halfwidth(d1) < 0;
    a 1-D grid has the axis of d1 alone. ``kernel`` is the batched 1-D line
    filter that reduces with ``ufunc``, and ``fill`` is the identity of
    ``ufunc``. Leading axes are batched. Half-widths are clamped to n - 1
    on each axis: the window is clipped at the box anyway, so the result
    is the same, and neither memory nor the row loop grows with the radius.

    In 2-D one line buffer is grown in place from each distinct chord
    half-width to the next: a window of half-width d over windows of
    half-width w clipped at the box is the window of half-width w + d,
    clipped the same way. Each chord is then shifted by its row offsets
    and reduced into the result.
    """
    shape = a.shape
    if shape[-grid.dim:] != grid.shape:
        raise InvalidInputError("trailing axes do not match the grid")
    a = np.ascontiguousarray(a)
    if grid.dim == 1:
        n = grid.n[0]
        return kernel(a.reshape(-1, n), min(r1, n - 1)).reshape(shape)

    n1, n2 = grid.n
    a = a.reshape(-1, n1, n2)
    r1 = min(r1, n1 - 1)
    by_w: dict[int, list[int]] = {}
    for d1 in range(-r1, r1 + 1):
        c = halfwidth(d1)
        if c >= 0:
            by_w.setdefault(math.floor(min(c, n2 - 1)), []).append(d1)
    out = np.full_like(a, fill)
    buf = a.copy()
    lines = buf.reshape(-1, n2)
    w_prev = 0
    for w, d1s in sorted(by_w.items()):
        kernel(lines, w - w_prev, out=lines)
        w_prev = w
        _shift_reduce(out, buf, [(0, -d1, 0) for d1 in d1s], ufunc)
    return out.reshape(shape)


def _ball_window(grid: Grid, eps: float):
    """(r1, halfwidth) of the eps-ball for ``_sweep``."""
    h = grid.h
    return (radius_nodes(eps, h[0]),
            lambda d1: _chord(eps, d1, h[0], h[-1]))


def ball_min_filter(vals: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """min over the eps-ball of the trailing grid axes.

    out[..., y] = min{ vals[..., y + d] : ||d * h|| <= eps }, windows clipped
    at the box boundary. Leading axes are batched.
    """
    r1, halfwidth = _ball_window(grid, eps)
    return _sweep(vals, grid, r1, halfwidth, _kernels.sliding_min,
                  np.minimum, np.inf)


def ball_dilate(mask: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """Binary dilation of the trailing grid axes by the eps-ball."""
    r1, halfwidth = _ball_window(grid, eps)
    return _sweep(mask.astype(np.uint8), grid, r1, halfwidth,
                  _kernels.sliding_max_u8, np.maximum, 0).astype(bool)


def chebyshev_dilate(mask: np.ndarray, grid: Grid, nodes: int) -> np.ndarray:
    """Dilate the trailing grid axes by `nodes` steps in every direction."""
    if nodes <= 0:
        return mask.astype(bool).copy()
    return _sweep(mask.astype(np.uint8), grid, nodes, lambda d1: nodes,
                  _kernels.sliding_max_u8, np.maximum, 0).astype(bool)
