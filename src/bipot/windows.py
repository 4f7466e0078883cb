"""Discrete ball windows and grid-wide min-filter / dilation sweeps.

A radius-eps ball around a node is realized as the set of node offsets d
with ||d * h|| <= eps (Euclidean norm; a relative slack of 1e-9 keeps
exact-rim offsets in despite float rounding). In 2-D the disc decomposes
into one sliding 1-D window per row offset, so every sweep reduces to the
batched line kernels in ``bipot._kernels``.
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


def disc_halfwidths(eps: float, h1: float, h2: float) -> list[tuple[int, int]]:
    """Pairs (d1, w) describing the disc: |d2| <= w allowed at row offset d1."""
    out = []
    for d1 in range(-radius_nodes(eps, h1), radius_nodes(eps, h1) + 1):
        rem = eps * eps * (1.0 + _SLACK) - (d1 * h1) ** 2
        if rem < 0.0:
            continue
        w = int(math.floor(math.sqrt(rem) / h2 * (1.0 + _SLACK) + _SLACK))
        out.append((d1, w))
    return out


def ball_offsets(grid: Grid, eps: float):
    """All node offsets of the grid with ||offset * h|| <= eps.

    Returns ints in 1-D and (d1, d2) tuples in 2-D, in ascending order.
    Always contains the zero offset.
    """
    if grid.dim == 1:
        r = radius_nodes(eps, grid.h[0])
        return list(range(-r, r + 1))
    return [(d1, d2)
            for d1, w in disc_halfwidths(eps, grid.h[0], grid.h[1])
            for d2 in range(-w, w + 1)]


def require_resolvable(eps: float, grid: Grid) -> None:
    """Blur radii must be 0 or at least one node spacing."""
    if eps == 0:
        return
    if eps < 0:
        raise InvalidInputError("blur radius must be >= 0")
    if radius_nodes(eps, max(grid.h)) < 1:
        raise ResolutionError(
            f"blur radius below grid resolution (eps={eps}, h={max(grid.h)})")


def _shift_min_rows(out: np.ndarray, src: np.ndarray, d1: int) -> None:
    """out[:, i1, :] = min(out[:, i1, :], src[:, i1 + d1, :]) where valid."""
    n1 = out.shape[1]
    lo = max(0, -d1)
    hi = n1 - max(0, d1)
    if lo >= hi:
        return
    np.minimum(out[:, lo:hi, :], src[:, lo + d1:hi + d1, :],
               out=out[:, lo:hi, :])


def _shift_max_rows(out: np.ndarray, src: np.ndarray, d1: int) -> None:
    n1 = out.shape[1]
    lo = max(0, -d1)
    hi = n1 - max(0, d1)
    if lo >= hi:
        return
    np.maximum(out[:, lo:hi, :], src[:, lo + d1:hi + d1, :],
               out=out[:, lo:hi, :])


def ball_min_filter(vals: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """min over the eps-ball of the trailing grid axes.

    out[..., y] = min{ vals[..., y + d] : ||d * h|| <= eps }, windows clipped
    at the box boundary. Leading axes are batched.
    """
    if eps < 0:
        raise InvalidInputError("radius must be >= 0")
    shape = vals.shape
    gd = grid.dim
    if shape[-gd:] != grid.shape:
        raise InvalidInputError("trailing axes do not match the grid")
    if grid.dim == 1:
        n = grid.n[0]
        flat = vals.reshape(-1, n)
        w = radius_nodes(eps, grid.h[0])
        return _kernels.sliding_min(flat, w).reshape(shape)

    n1, n2 = grid.n
    a = np.ascontiguousarray(vals.reshape(-1, n1, n2))
    out = np.full_like(a, np.inf)
    pairs = disc_halfwidths(eps, grid.h[0], grid.h[1])
    by_w: dict[int, list[int]] = {}
    for d1, w in pairs:
        by_w.setdefault(w, []).append(d1)
    buf = np.empty_like(a)
    for w, d1s in sorted(by_w.items()):
        _kernels.sliding_min(a.reshape(-1, n2), w, out=buf.reshape(-1, n2))
        for d1 in d1s:
            _shift_min_rows(out, buf, d1)
    return out.reshape(shape)


def ball_dilate(mask: np.ndarray, grid: Grid, eps: float) -> np.ndarray:
    """Binary dilation of the trailing grid axes by the eps-ball."""
    if eps < 0:
        raise InvalidInputError("radius must be >= 0")
    shape = mask.shape
    gd = grid.dim
    if shape[-gd:] != grid.shape:
        raise InvalidInputError("trailing axes do not match the grid")
    m8 = np.ascontiguousarray(mask.astype(np.uint8))
    if grid.dim == 1:
        n = grid.n[0]
        w = radius_nodes(eps, grid.h[0])
        out = _kernels.sliding_max_u8(m8.reshape(-1, n), w)
        return out.reshape(shape).astype(bool)

    n1, n2 = grid.n
    a = m8.reshape(-1, n1, n2)
    out = np.zeros_like(a)
    by_w: dict[int, list[int]] = {}
    for d1, w in disc_halfwidths(eps, grid.h[0], grid.h[1]):
        by_w.setdefault(w, []).append(d1)
    buf = np.empty_like(a)
    for w, d1s in sorted(by_w.items()):
        _kernels.sliding_max_u8(a.reshape(-1, n2), w, out=buf.reshape(-1, n2))
        for d1 in d1s:
            _shift_max_rows(out, buf, d1)
    return out.reshape(shape).astype(bool)


def chebyshev_dilate(mask: np.ndarray, grid: Grid, nodes: int) -> np.ndarray:
    """Dilate the trailing grid axes by `nodes` steps in every direction."""
    if nodes <= 0:
        return mask.astype(bool).copy()
    m8 = np.ascontiguousarray(mask.astype(np.uint8))
    shape = mask.shape
    if grid.dim == 1:
        out = _kernels.sliding_max_u8(m8.reshape(-1, grid.n[0]), nodes)
        return out.reshape(shape).astype(bool)
    n1, n2 = grid.n
    a = m8.reshape(-1, n1, n2)
    buf = _kernels.sliding_max_u8(a.reshape(-1, n2), nodes).reshape(a.shape)
    out = np.zeros_like(a)
    for d1 in range(-nodes, nodes + 1):
        _shift_max_rows(out, buf, d1)
    return out.reshape(shape).astype(bool)
