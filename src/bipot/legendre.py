"""Fenchel conjugation on grids and subdifferentials via Fenchel-Young.

The production transform is the linear-time discrete Legendre transform
(lower hull + monotone argmax pointer, in ``bipot._kernels``); in 2-D it
factors into iterated per-axis 1-D transforms. ``conjugate_bruteforce``
is the exhaustive-maximization oracle kept for tests: both paths evaluate
candidates as ``fl(<x, y> - phi(x))`` with identical association, so their
outputs agree bit for bit.

Finite grids cannot hold phi* = +inf where the sup escapes the box, so
values above ``cap`` (default 1e12) are reported as +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    a whole number of grid steps per side (5% of them, at least one),
    which keeps the slope range endpoints (in particular the exact slopes
    of flat pieces) on nodes.
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
        m = max(1, round(0.05 * (n - 1)))
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


def conjugate_bruteforce(phi: SampledFunction, ygrid: Grid | None = None,
                         cap: float = DEFAULT_CAP) -> SampledFunction:
    """Exhaustive O(N*M) conjugation; the test oracle for `conjugate`."""
    phi.require_domain("conjugate_bruteforce")
    if ygrid is None:
        ygrid = default_dual_grid(phi)
    if ygrid.dim != phi.grid.dim:
        raise InvalidInputError("ygrid dimension must match phi")
    if phi.grid.dim == 1:
        xs = phi.grid.axis(0)
        ys = ygrid.axis(0)
        with np.errstate(invalid="ignore"):
            cand = ys[:, None] * xs[None, :] - phi.vals[None, :]
        out = cand.max(axis=1)
        return SampledFunction(ygrid, _cap_to_inf(out, cap))

    x1, x2 = phi.grid.axes
    y1ax, y2ax = ygrid.axes
    out = np.empty(ygrid.shape)
    with np.errstate(invalid="ignore"):
        for j2, yb in enumerate(y2ax):
            inner = x2[None, :] * yb - phi.vals      # (n1, n2)
            for j1, ya in enumerate(y1ax):
                out[j1, j2] = np.max(x1[:, None] * ya + inner)
    return SampledFunction(ygrid, _cap_to_inf(out, cap))


@dataclass(frozen=True)
class ConjugatePair:
    """A function and its conjugate, tied by the Fenchel-Young inequality.

    phi(x) + phistar(y) >= <x, y> - fy_tol at every node pair (trivially
    where either value is +inf); construction verifies this.
    """

    phi: SampledFunction
    phistar: SampledFunction
    fy_tol: float = -1.0   # sentinel: derive from value scale

    def __post_init__(self):
        if self.fy_tol < 0:
            scale = 1.0 + abs(self.phi.finite_max) + abs(self.phistar.finite_max)
            object.__setattr__(self, "fy_tol", 1e-9 * scale)
        worst = self.min_fy_residual()
        if worst < -self.fy_tol:
            raise InvalidInputError(
                f"Fenchel-Young violated by {-worst:.3e} (> fy_tol={self.fy_tol:.3e})")

    def min_fy_residual(self) -> float:
        """min over node pairs of phi(x) + phistar(y) - <x, y> (finite pairs)."""
        pv = self.phi.vals.reshape(-1)
        sv = self.phistar.vals.reshape(-1)
        worst = np.inf
        xpts = self.phi.grid.points
        ypts = self.phistar.grid.points
        fin_x = np.isfinite(pv)
        fin_y = np.isfinite(sv)
        if not fin_x.any() or not fin_y.any():
            return worst
        xi = np.flatnonzero(fin_x)
        yi = np.flatnonzero(fin_y)
        chunk = max(1, 2_000_000 // max(len(yi), 1))
        for s in range(0, len(xi), chunk):
            rows = xi[s:s + chunk]
            prod = xpts[rows] @ ypts[yi].T
            resid = pv[rows, None] + sv[None, yi] - prod
            worst = min(worst, float(resid.min()))
        return worst


def conjugate_pair(phi: SampledFunction, ygrid: Grid | None = None) -> ConjugatePair:
    return ConjugatePair(phi, conjugate(phi, ygrid))


def default_subdiff_tol(grid: Grid) -> np.ndarray:
    """Per-candidate Fenchel-Young tolerance h * (1 + ||x||), flat over x.

    Resolution-consistent: snapping the dual point by one node moves the
    residual by about h times the candidate's magnitude.
    """
    return max(grid.h) * (1.0 + np.linalg.norm(grid.points, axis=1))


def subdiff_mask(phi: SampledFunction, phistar: SampledFunction, at_y,
                 tol=None) -> np.ndarray:
    """Boolean x-grid mask of the discrete subdifferential of phistar at
    a y-node: { x : phi(x) + phistar(y) - <x, y> <= tol }."""
    grid = phi.grid
    ps = phistar.vals[at_y] if grid.dim == 1 else phistar.vals[at_y[0], at_y[1]]
    if not np.isfinite(ps):
        return np.zeros(grid.shape, dtype=bool)
    ypt = np.atleast_1d(np.asarray(phistar.grid.coords(at_y)))
    pv = phi.vals.reshape(-1)
    with np.errstate(invalid="ignore"):
        resid = pv + ps - grid.points @ ypt
    if tol is None:
        tol = default_subdiff_tol(grid)
    hit = np.isfinite(pv) & (resid <= tol)
    return hit.reshape(grid.shape)


def subdiff_points(pair: ConjugatePair, at_y, tol: float | None = None):
    """Discrete subdifferential of phistar at a y-node, as index sets.

    May be empty. The default tolerance is the resolution-consistent
    per-candidate array of ``default_subdiff_tol``.
    """
    grid = pair.phi.grid
    hit = np.argwhere(subdiff_mask(pair.phi, pair.phistar, at_y, tol))
    if grid.dim == 1:
        return set(int(i) for (i,) in hit)
    return set((int(i), int(j)) for i, j in hit)


def biconjugate_residual(phi: SampledFunction, ygrid: Grid | None = None) -> float:
    """max |phi**(x) - phi(x)| over nodes where both are finite.

    For convex lsc phi this is O(h^2 * curvature); for nonconvex phi it
    measures the gap to the convex envelope.
    """
    phi.require_domain("biconjugate_residual")
    star = conjugate(phi, ygrid)
    star2 = conjugate(star, phi.grid)
    both = np.isfinite(phi.vals) & np.isfinite(star2.vals)
    if not both.any():
        return 0.0
    return float(np.abs(star2.vals[both] - phi.vals[both]).max())
