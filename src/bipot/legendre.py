"""Fenchel conjugation on grids, and the tolerances of Fenchel-Young sets.

The production transform is the linear-time discrete Legendre transform
(lower hull + monotone argmax pointer, in ``bipot._kernels``); in 2-D it
factors into iterated per-axis 1-D transforms. Candidates are evaluated
as ``fl(<x, y> - phi(x))``, the association of the exhaustive-maximization
oracle ``conjugate_bruteforce`` in the tests, so the two agree bit for bit.

Finite grids cannot hold phi* = +inf where the sup escapes the box, so
values above ``cap`` (default 1e12) are reported as +inf.

The discrete subdifferential of phi* at a y-node is the x-nodes where
phi(x) + phi*(y) - <x, y> <= tol(x); ``default_subdiff_tol`` and
``x_tol`` give tol, and ``blur._fy_tiles`` builds the set an x-tile at
a time.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import InvalidInputError
from .grids import Grid, SampledFunction
from .extreal import INF

DEFAULT_CAP = 1e12


def _axis_slope_range(vals: np.ndarray, h: float, axis: int):
    """Range of finite-difference quotients between adjacent finite nodes."""
    v = np.moveaxis(vals, axis, -1)
    fin = np.isfinite(v)
    both = fin[..., :-1] & fin[..., 1:]
    if not both.any():
        return 0.0, 0.0
    with np.errstate(invalid="ignore"):
        d = np.where(both, v[..., 1:] - v[..., :-1], 0.0)[both] / h
    return float(d.min()), float(d.max())


def default_dual_grid(phi: SampledFunction) -> Grid:
    """Dual box from the slope range of phi, padded 10%, same node counts.

    Conjugate values at slopes outside this range are boundary-dominated
    artifacts, so it is the default evaluation window for phi*. The pad is
    a whole number of grid steps per side (5% of them, at least one but
    none on a 3-node axis), which keeps the slope range endpoints (in
    particular the exact slopes of flat pieces) on nodes.
    """
    phi.require_domain("default_dual_grid")
    lo, hi = [], []
    for k in range(phi.grid.dim):
        n = phi.grid.n[k]
        smin, smax = _axis_slope_range(phi.vals, phi.grid.h[k], k)
        span = smax - smin
        if span <= 0.0:
            w = 0.5 * max(1.0, abs(smin))
            lo.append(smin - w)
            hi.append(smax + w)
            continue
        m = min(max(1, round(0.05 * (n - 1))), (n - 2) // 2)
        h = span / (n - 1 - 2 * m)
        lo.append(smin - m * h)
        hi.append(smax + m * h)
    return Grid(tuple(lo), tuple(hi), phi.grid.n)


def _cap_to_inf(vals: np.ndarray, cap: float) -> np.ndarray:
    out = vals.copy()
    out[out > cap] = INF
    return out


def conjugate(phi: SampledFunction, ygrid: Grid | None = None,
              cap: float = DEFAULT_CAP) -> SampledFunction:
    """phi*(y) = max over x-nodes of <x, y> - phi(x), fast path.

    1-D uses the linear-time transform directly; 2-D iterates it per axis
    (max over x2 first, then over x1), which is exact because the maxima
    nest. The result is convex regardless of the input.
    """
    phi.require_domain("conjugate")
    if np.isnan(cap):   # every `out > cap` would be false
        raise InvalidInputError("cap must not be NaN")
    if ygrid is None:
        ygrid = default_dual_grid(phi)
    if ygrid.dim != phi.grid.dim:
        raise InvalidInputError("ygrid dimension must match phi")
    if phi.grid.dim == 1:
        out = _kernels.lf_transform(phi.grid.axis(0), phi.vals[None, :],
                                    ygrid.axis(0))[0]
        return SampledFunction(ygrid, _cap_to_inf(out, cap))

    x1, x2 = phi.grid.axes
    y1, y2 = ygrid.axes
    # inner transform along x2 for every x1-row: u[x1, y2]
    u = _kernels.lf_transform(x2, phi.vals, y2)
    # outer transform along x1 for every y2-column; -u flips max into the
    # kernel's sup form, with -inf rows (empty x1-lines) turning into +inf
    outer_in = np.ascontiguousarray(-u.T)
    out = _kernels.lf_transform(x1, outer_in, y1).T
    return SampledFunction(ygrid, _cap_to_inf(np.ascontiguousarray(out), cap))


def default_subdiff_tol(grid: Grid) -> np.ndarray:
    """Per-candidate Fenchel-Young tolerance h * (1 + ||x||), flat over x.

    Resolution-consistent: snapping the dual point by one node moves the
    residual by about h times the candidate's magnitude.
    """
    return max(grid.h) * (1.0 + np.linalg.norm(grid.points, axis=1))


def x_tol(tol, grid: Grid) -> np.ndarray:
    """tol as float64: a scalar, or an array over the x-grid (its shape or
    flat) made flat; capped at the largest float, so a residual of +inf
    never passes, not even tol = +inf. NaN and negative values are
    refused."""
    t = np.asarray(tol, dtype=np.float64)
    if not (t >= 0).all():
        raise InvalidInputError("tol must be >= 0 and not NaN")
    if t.ndim > 0:
        if t.shape not in (grid.shape, (grid.size,)):
            raise InvalidInputError("array tol must match the x-grid shape")
        t = t.reshape(-1)
    return np.minimum(t, np.finfo(np.float64).max)
