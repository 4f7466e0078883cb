"""Indeterminacy sets, the inf-convolution blur, and blurred graphs.

An indeterminacy set A (a BB-graph containing (0, 0)) spreads a
constitutive law over a tolerance region: the blurred sync is the
inf-convolution c_A = c (inf-conv) chi_A, the blurred law is
b_A = c_A + <x, y>, and the blurred graph is M + A. A is the paper's
{0} x (closed ball of radius eps in Y), realized as a min-filter in y.

c_A and b_A share one min-filter in y,
v(x, y) = min over ||a - y|| <= eps of phi*(a) - <x, a>: c_A = phi(x) + v,
and b_A = phi(x) + (<x, y> + v) is the direct form
b_A(x, y) = phi(x) + inf_{||a|| <= eps} [phi*(y - a) + <x, a>] after the
substitution a -> y - a. M + A is the eps-ball dilation in y of the
Fenchel-Young set {phi(x) + phi*(y) - <x, y> <= tol}, ``_blurred_mask``,
on every route, and ``check_newc`` reads U(y) off the same set.

The y-ball blur has no coupling across x, so c_A and b_A, the
Fenchel-Young set (``_fy_tiles``) and its dilation, and ``BlurredLaw``'s
self-check run an x-tile at a time on its <x, y> (``windows._pair_tiles``)
and write straight into read-only outputs, which ``SampledBivariate`` and
``GraphSet`` keep without a copy. Only the outputs stay whole. The
min-filter and the dilation are one ``windows._sweep`` each, over those
x-tiles, so each builds its chord plan once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bipotentials import (GraphSet, _sync_tiles, _yslice_stack, check_bbgraph,
                           check_sync, default_graph_tol, graphs_match_within)
from .convexity import _set_scan, is_set_convex
from .errors import InvalidInputError
from .extreal import INF
from .grids import Grid, SampledBivariate, SampledFunction
from .legendre import conjugate, default_subdiff_tol, x_tol
from .report import CheckReport, failing, passing
from .windows import (_ball_window, _pair_tiles, _sweep, ball_dilate,
                      ball_min_filter, ball_offsets, require_resolvable)


@dataclass(frozen=True)
class BlurSpec:
    """The indeterminacy set A = {0} x closed ball of radius eps in Y
    (Euclidean); it contains (0, 0) and is a BB-graph by construction."""

    eps: float

    def __post_init__(self):
        if not self.eps >= 0:   # NaN fails too, as in radius_nodes
            raise InvalidInputError(f"radius must be >= 0, got {self.eps}")


def inf_convolve_blur(c: SampledBivariate, spec: BlurSpec) -> SampledBivariate:
    """c_A = c (inf-conv) chi_A on the grid: a per-x min-filter over the
    eps-ball in y, windows clipped at the box. c >= 0 gives c_A >= 0."""
    require_resolvable(spec.eps, c.ygrid)
    if spec.eps == 0:
        return SampledBivariate(c.xgrid, c.ygrid, c.vals.copy())
    out = ball_min_filter(c.vals, c.ygrid, spec.eps)
    return SampledBivariate(c.xgrid, c.ygrid, out)


def _yball_conjugate(phi: SampledFunction, spec: BlurSpec, ygrid: Grid | None,
                     who: str) -> SampledFunction:
    """phi* on the dual grid, once the blur is known to resolve on it."""
    phi.require_domain(who)
    if ygrid is None:
        ygrid = phi.grid   # node-aligned dual box by default
    star = conjugate(phi, ygrid)
    require_resolvable(spec.eps, star.grid)
    return star


def _yball_blur(phi: SampledFunction, star: SampledFunction, eps: float,
                with_cA: bool) -> tuple[SampledBivariate | None,
                                        SampledBivariate]:
    """(c_A, b_A) of the y-ball blur from one min-filter
    v(x, y) = min over ||a - y|| <= eps of phi*(a) - <x, a>:
    c_A = phi(x) + v and b_A = (<x, y> + v) + phi(x). c_A is None
    without with_cA.

    The filter runs in y alone, so the x-tiles of ``windows._pair_tiles``
    are the blocks of one ``windows._sweep``: each is paired, filtered and
    summed into the outputs, and no other product-grid array is held.
    """
    xg, yg = phi.grid, star.grid
    bA = np.empty((xg.size,) + yg.shape)
    cA = np.empty_like(bA) if with_cA else None
    pv = phi.vals.reshape((-1,) + (1,) * yg.dim)
    tiles = ((t, P.reshape((-1,) + yg.shape)) for t, P in _pair_tiles(xg, yg))
    blocks = (((t, P), star.vals - P) for t, P in tiles)
    for (t, P), v in _sweep(blocks, yg, *_ball_window(yg, eps),
                            _kernels.sliding_min, np.minimum, np.inf):
        if cA is not None:
            np.add(v, pv[t], out=cA[t])
        P += v
        np.add(P, pv[t], out=bA[t])
    # read-only, so SampledBivariate keeps the arrays instead of copying
    bA.flags.writeable = False
    if cA is not None:
        cA.flags.writeable = False
        cA = SampledBivariate(xg, yg, cA.reshape(xg.shape + yg.shape))
    return cA, SampledBivariate(xg, yg, bA.reshape(xg.shape + yg.shape))


def blurred_bipotential(phi: SampledFunction, spec: BlurSpec,
                        ygrid: Grid | None = None) -> SampledBivariate:
    """b_A(x, y) = phi(x) + min over node offsets ||a|| <= eps of
    [phi*(y - a) + <x, a>].

    Evaluated as <x, y> + min-filter of phi*(a) - <x, a> over the ball
    around y, which is the same minimum after substituting a -> y - a.
    """
    star = _yball_conjugate(phi, spec, ygrid, "blurred_bipotential")
    return _yball_blur(phi, star, spec.eps, with_cA=False)[1]


def blurred_graph(phi: SampledFunction, spec: BlurSpec, tol=None,
                  ygrid: Grid | None = None) -> GraphSet:
    """M(phi, eps) = M + A: pairs (x, y) with a ball neighbor of y whose
    Fenchel-Young residual phi(x) + phi*(y~) - <x, y~> is <= tol.

    tol may be a scalar or an array over the x-grid (per-candidate
    tolerances); default is the equality-set threshold h^2/2.
    """
    star = _yball_conjugate(phi, spec, ygrid, "blurred_graph")
    if tol is None:
        tol = default_graph_tol(phi.grid, star.grid)
    return GraphSet(phi.grid, star.grid,
                    _blurred_mask(phi, star, spec.eps, tol))


@dataclass(frozen=True)
class BlurredLaw:
    """A law phi with its blur: c_A, b_A and M + A on shared grids."""

    phi: SampledFunction
    spec: BlurSpec
    cA: SampledBivariate
    bA: SampledBivariate
    MplusA: GraphSet

    def __post_init__(self):
        xg, yg = self.phi.grid, self.bA.ygrid
        parts = (self.cA, self.bA, self.MplusA)
        if any((p.xgrid, p.ygrid) != (xg, yg) for p in parts):
            raise InvalidInputError(
                "c_A, b_A and M + A must lie on phi's grid and one y-grid")
        # b_A - <x, y> and c_A are two roundings of sums of <x, y>, phi and
        # the filtered phi* - <x, a>, so the bound grows with their size
        corner = lambda g: np.maximum(np.abs(g.lo), np.abs(g.hi))
        vals = self.phi.vals
        scale = float(corner(xg) @ corner(yg)) + float(
            np.max(np.abs(vals), where=np.isfinite(vals), initial=0.0))
        bound = 1e-9 * max(1.0, scale)
        gap = _shift_gap(self.bA, self.cA)
        if gap > bound:
            raise InvalidInputError(
                f"b_A - <x,y> differs from c_A by {gap:.3e} (> {bound:.3e})")


def _shift_gap(bA: SampledBivariate, cA: SampledBivariate) -> float:
    """max |(b_A - <x, y>) - c_A| over the pairs where both are finite
    (0.0 if there is none), or +inf if they disagree on where +inf is;
    a tile of x-nodes at a time."""
    c_rows = cA.vals.reshape(cA.xgrid.size, cA.ygrid.size)
    gap = 0.0
    for t, a in _sync_tiles(bA):
        c = c_rows[t]
        if (np.isposinf(a) != np.isposinf(c)).any():
            return INF
        both = np.isfinite(a) & np.isfinite(c)
        if both.any():
            gap = max(gap, float(np.abs(a[both] - c[both]).max()))
    return gap


def blur_law(phi: SampledFunction, spec: BlurSpec, ygrid: Grid | None = None,
             tol=None) -> BlurredLaw:
    """Assemble c_A, b_A and M + A for the blur of Graph(d phi).

    One conjugate serves all three: one min-filter gives c_A and b_A, and
    M + A is the Fenchel-Young mask dilated in y (``_blurred_mask``), tol
    as in ``blurred_graph``. BlurredLaw checks b_A - <x, y> against c_A.
    """
    star = _yball_conjugate(phi, spec, ygrid, "blur_law")
    cA, bA = _yball_blur(phi, star, spec.eps, with_cA=True)
    if tol is None:
        tol = default_graph_tol(phi.grid, star.grid)
    return BlurredLaw(phi, spec, cA, bA, GraphSet(
        phi.grid, star.grid, _blurred_mask(phi, star, spec.eps, tol)))


# --- checkers ---------------------------------------------------------------


def _fy_tiles(phi: SampledFunction, star: SampledFunction, tol,
              cols=slice(None)):
    """(t, mask) of the Fenchel-Young set (phi(x) + phi*(y)) - <x, y> <=
    tol(x) over the x-tiles t of ``windows._pair_tiles`` and the y-nodes
    of flat indices cols; column k is the discrete subdifferential of phi*
    at y-node cols[k]. tol is as in ``legendre.x_tol``, which admits no
    +inf residual (default ``default_subdiff_tol``)."""
    grid = phi.grid
    tol = x_tol(default_subdiff_tol(grid) if tol is None else tol, grid)
    pv = phi.vals.reshape(-1, 1)
    sv = star.vals.reshape(-1)[cols]
    for t, P in _pair_tiles(grid, star.grid, cols):
        resid = np.subtract(pv[t] + sv, P, out=P)
        yield t, resid <= (tol[t, None] if tol.ndim else tol)


def _blurred_mask(phi: SampledFunction, star: SampledFunction, eps: float,
                  tol) -> np.ndarray:
    """M + A over the (x, y) product, read-only: the eps-ball dilation in
    y of the Fenchel-Young set at tol, whose x-tiles (``_fy_tiles``) are
    the blocks of one ``windows._sweep``, read and written as bytes."""
    yg = star.grid
    out = np.empty((phi.grid.size,) + yg.shape, dtype=bool)
    u8 = out.view(np.uint8)
    blocks = ((t, E.view(np.uint8).reshape((-1,) + yg.shape))
              for t, E in _fy_tiles(phi, star, tol))
    for t, D in _sweep(blocks, yg, *_ball_window(yg, eps),
                       _kernels.sliding_max_u8, np.maximum, 0):
        u8[t] = D
    out.flags.writeable = False
    return out.reshape(phi.grid.shape + yg.shape)


def check_newc(phi: SampledFunction, eps: float, at_y, tol=None,
               ygrid: Grid | None = None) -> CheckReport:
    """Convexity of U(y) = union of subdifferentials of phi* over the
    eps-ball of y-nodes around at_y.

    Each subdifferential is a column of the Fenchel-Young set ``_fy_tiles``
    at the per-candidate tolerance (default ``default_subdiff_tol``); only
    the ball's in-box y-nodes are evaluated, so U(y) is the (x, at_y)
    section of M + A at that tolerance, and one verdict of
    ``check_newc_all``. The witness is ``is_set_convex``'s.
    """
    star = _yball_conjugate(phi, BlurSpec(eps), ygrid, "check_newc")
    ygrid = star.grid

    at_t = ygrid.node_index(at_y)
    center = ygrid.coords(at_y)
    offs = np.array(ball_offsets(ygrid, eps)).reshape(-1, ygrid.dim)
    idx = offs + at_t
    inbox = ((idx >= 0) & (idx < np.array(ygrid.n))).all(axis=1)
    cols = np.ravel_multi_index(tuple(idx[inbox].T), ygrid.shape)
    union = np.empty(phi.grid.size, dtype=bool)
    for t, E in _fy_tiles(phi, star, tol, cols):
        E.any(axis=1, out=union[t])
    union = union.reshape(phi.grid.shape)
    notes = [f"y = {(center,) if ygrid.dim == 1 else center}", f"eps = {eps}"]
    if not inbox.all():
        notes.append("ball clipped at the y-box boundary")
    if not union.any():
        return passing("newc", "U(y) is empty", *notes)
    rep = is_set_convex(union, phi.grid)
    if rep.ok:
        return passing("newc", *notes, *rep.notes)
    return failing("newc", rep.witness, rep.residual, *notes, *rep.notes)


def check_newc_all(phi: SampledFunction, eps: float, tol=None,
                   ygrid: Grid | None = None) -> np.ndarray:
    """``check_newc``'s verdict at every y-node, as a boolean array over
    ``ygrid.shape`` (True where U(y) is convex or empty).

    One conjugate gives M + A at the subdifferential tolerance
    (``_blurred_mask``), whose y-sections are every U(y), decided as one
    stack by ``is_set_convex``'s scan.
    """
    star = _yball_conjugate(phi, BlurSpec(eps), ygrid, "check_newc_all")
    U = _yslice_stack(_blurred_mask(phi, star, eps, tol), phi.grid.dim)
    ok = np.ones(star.grid.size, dtype=bool)
    for j, rep in _set_scan(U, phi.grid):
        ok[j] = rep.ok
    return ok.reshape(star.grid.shape)


def minkowski_blur(M: GraphSet, spec: BlurSpec):
    """(M + A, clipped): the nodewise Minkowski sum, and whether any
    member's ball was truncated by the box boundary. The empty set is its
    own sum, never clipped."""
    require_resolvable(spec.eps, M.ygrid)
    out = ball_dilate(M.mask, M.ygrid, spec.eps)
    return GraphSet(M.xgrid, M.ygrid, out), _any_near_boundary(M, spec.eps)


def _any_near_boundary(M: GraphSet, eps: float) -> bool:
    """Does a member node lie within eps of the box on a y-axis? Decided
    per axis on the mask's projection."""
    xd, g = M.xgrid.dim, M.ygrid
    for k in range(g.dim):
        others = tuple(a for a in range(xd + g.dim) if a != xd + k)
        c = g.lo[k] + np.flatnonzero(M.mask.any(axis=others)) * g.h[k]
        if ((c - g.lo[k] < eps) | (g.hi[k] - c < eps)).any():
            return True
    return False


def check_admits_blurring(M_or_c: GraphSet | SampledBivariate,
                          spec: BlurSpec, tol: float | None = None) -> CheckReport:
    """Does the law admit the blurring A?

    Graph form: M + A (Minkowski sum on the grid) must be a BB-graph.
    Sync form: c_A = c (inf-conv) chi_A must be a sync AND its zero set
    must equal c^{-1}(0) + A within one node per axis.
    """
    if isinstance(M_or_c, GraphSet):
        MA, clipped = minkowski_blur(M_or_c, spec)
        rep = check_bbgraph(MA)
        if clipped:
            rep = rep.with_notes("minkowski-clipped: sum truncated at the "
                                 "box boundary; excluded from acceptance")
        return rep

    c = M_or_c
    if (c.vals < 0).any():
        raise InvalidInputError("sync form requires c >= 0")
    cA = inf_convolve_blur(c, spec)
    rep = check_sync(cA, tol)
    if not rep.ok:
        return failing(f"blurred-sync[{rep.axiom}]", rep.witness,
                       rep.residual, *rep.notes)
    ztol = tol if tol is not None else \
        max(1e-12, 0.1 * max(max(c.xgrid.h), max(c.ygrid.h)) ** 2)
    z_ca = GraphSet(c.xgrid, c.ygrid, cA.vals <= ztol)
    z_c = GraphSet(c.xgrid, c.ygrid, c.vals <= ztol)
    z_sum, clipped = minkowski_blur(z_c, spec)
    notes = [f"zero-set tol = {ztol!r}"]
    if clipped:
        notes.append("minkowski-clipped: sum truncated at the box boundary")
    if not graphs_match_within(z_ca, z_sum, 1):
        return failing("zero-set-identity", None, None,
                       "c_A^{-1}(0) and c^{-1}(0) + A disagree beyond one node",
                       *notes)
    return rep.with_notes(*notes)
