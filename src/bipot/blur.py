"""Indeterminacy sets, the inf-convolution blur, and blurred graphs.

An indeterminacy set A (a BB-graph containing (0, 0)) spreads a
constitutive law over a tolerance region: the blurred sync is the
inf-convolution c_A = c (inf-conv) chi_A, the blurred law is
b_A = c_A + <x, y>, and the blurred graph is M + A. Two shapes of A are
supported: {0} x (ball of radius eps in Y), realized as a min-filter in y,
and the product ball ||(x, y)||_p <= eps, realized by an offset sweep.

For the y-ball, b_A also has the direct form
b_A(x, y) = phi(x) + inf_{||a|| <= eps} [phi*(y - a) + <x, a>], which this
module evaluates through the same min-filter after the substitution
a -> y - a; the two routes agree to float re-association (~1e-13), which
tests pin at 1e-9.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bipotentials import (GraphSet, check_bbgraph, check_sync,
                           default_graph_tol, graphs_match_within)
from .convexity import is_set_convex
from .errors import InvalidInputError
from .extreal import INF
from .grids import Grid, SampledBivariate, SampledFunction, pairing
from .legendre import conjugate, default_subdiff_tol, subdiff_mask
from .report import CheckReport, failing, passing
from .windows import (_shift_reduce, ball_dilate, ball_min_filter,
                      ball_offsets, radius_nodes, require_resolvable)

Y_BALL = "yball"
PRODUCT_BALL = "product"


@dataclass(frozen=True)
class BlurSpec:
    """Shape of the indeterminacy set A.

    kind 'yball':  A = {0} x closed ball of radius eps in Y (Euclidean);
    kind 'product': A = {(x, y) : (||x||^p + ||y||^p)^(1/p) <= eps}.
    Both contain (0, 0) and are BB-graphs by construction.
    """

    eps: float
    kind: str = Y_BALL
    p: float = 2.0

    def __post_init__(self):
        if self.eps < 0:
            raise InvalidInputError("eps must be >= 0")
        if self.kind not in (Y_BALL, PRODUCT_BALL):
            raise InvalidInputError(f"unknown blur kind {self.kind!r}")
        if self.p < 1:
            raise InvalidInputError("p must be >= 1")

    def require_resolvable(self, xgrid: Grid, ygrid: Grid) -> None:
        if self.kind == Y_BALL:
            require_resolvable(self.eps, ygrid)
        else:
            require_resolvable(self.eps, xgrid)
            require_resolvable(self.eps, ygrid)

    def product_offsets(self, xgrid: Grid, ygrid: Grid):
        """(x-offset, y-offset) index pairs inside the product ball."""
        hs = list(xgrid.h) + list(ygrid.h)
        ranges = [range(-radius_nodes(self.eps, h), radius_nodes(self.eps, h) + 1)
                  for h in hs]
        out = []
        slack = self.eps * (1.0 + 1e-9)
        for combo in itertools.product(*ranges):
            norm = sum(abs(d * h) ** self.p for d, h in zip(combo, hs)) ** (1.0 / self.p)
            if norm <= slack:
                d = xgrid.dim
                xoff = combo[0] if d == 1 else combo[:d]
                yoff = combo[d] if d == 1 else combo[d:]
                out.append((xoff, yoff))
        return out


def _product_shifts(spec: BlurSpec, xgrid: Grid, ygrid: Grid):
    """The product ball's offsets as flat (x..., y...) index shifts."""
    def flat(off):
        return (off,) if np.isscalar(off) else tuple(off)
    return [flat(xoff) + flat(yoff)
            for xoff, yoff in spec.product_offsets(xgrid, ygrid)]


def inf_convolve_blur(c: SampledBivariate, spec: BlurSpec) -> SampledBivariate:
    """c_A = c (inf-conv) chi_A on the grid.

    y-ball: a per-x min-filter over the eps-ball in y. Product ball:
    minimum over all node offsets of A, windows clipped at the box.
    c >= 0 gives c_A >= 0.
    """
    spec.require_resolvable(c.xgrid, c.ygrid)
    if spec.eps == 0:
        return SampledBivariate(c.xgrid, c.ygrid, c.vals.copy())
    if spec.kind == Y_BALL:
        out = ball_min_filter(c.vals, c.ygrid, spec.eps)
        return SampledBivariate(c.xgrid, c.ygrid, out)
    out = np.full_like(c.vals, INF)
    _shift_reduce(out, c.vals, _product_shifts(spec, c.xgrid, c.ygrid),
                  np.minimum)
    return SampledBivariate(c.xgrid, c.ygrid, out)


def _yball_conjugate(phi: SampledFunction, spec: BlurSpec, ygrid: Grid | None,
                     who: str) -> SampledFunction:
    """phi* on the dual grid, once the y-ball blur is known to apply."""
    if spec.kind != Y_BALL:
        raise InvalidInputError(f"{who} is specific to y-ball blurs")
    phi.require_domain(who)
    if ygrid is None:
        ygrid = phi.grid   # node-aligned dual box by default
    star = conjugate(phi, ygrid)
    spec.require_resolvable(phi.grid, star.grid)
    return star


def _separable_sync(phi: SampledFunction,
                    star: SampledFunction) -> SampledBivariate:
    """c(x, y) = phi(x) + phi*(y) - <x, y> nodewise (the Fenchel residual)."""
    P = pairing(phi.grid, star.grid)
    b = phi.vals.reshape(phi.grid.shape + (1,) * star.grid.dim) + star.vals
    with np.errstate(invalid="ignore"):
        return SampledBivariate(phi.grid, star.grid,
                                np.where(np.isposinf(b), INF, b - P))


def _blurred_bipotential(phi: SampledFunction, star: SampledFunction,
                         eps: float) -> SampledBivariate:
    """b_A by the direct route: <x, y> + min-filter of phi*(a) - <x, a>
    over the ball around y, plus phi(x)."""
    P = pairing(phi.grid, star.grid)
    w = star.vals - P          # W(x, a) = phi*(a) - <x, a>, +inf off dom
    v = ball_min_filter(w, star.grid, eps)
    phi_b = phi.vals.reshape(phi.grid.shape + (1,) * star.grid.dim)
    with np.errstate(invalid="ignore"):
        vals = np.where(np.isposinf(v) | np.isposinf(phi_b), INF,
                        phi_b + (P + v))
    return SampledBivariate(phi.grid, star.grid, vals)


def _graph_within(cA: SampledBivariate, tol) -> GraphSet:
    """{c_A <= tol}; tol is a scalar or an array over the x-grid."""
    if tol is None:
        tol = default_graph_tol(cA.xgrid, cA.ygrid)
    tol_arr = np.asarray(tol, dtype=np.float64)
    if tol_arr.ndim > 0:
        if tol_arr.shape != cA.xgrid.shape:
            raise InvalidInputError("array tol must match the x-grid shape")
        tol_arr = tol_arr.reshape(cA.xgrid.shape + (1,) * cA.ygrid.dim)
    return GraphSet(cA.xgrid, cA.ygrid, cA.vals <= tol_arr)


def blurred_bipotential(phi: SampledFunction, spec: BlurSpec,
                        ygrid: Grid | None = None) -> SampledBivariate:
    """b_A(x, y) = phi(x) + min over node offsets ||a|| <= eps of
    [phi*(y - a) + <x, a>]; y-ball blurs only.

    Evaluated as <x, y> + min-filter of phi*(a) - <x, a> over the ball
    around y, which is the same minimum after substituting a -> y - a.
    """
    star = _yball_conjugate(phi, spec, ygrid, "blurred_bipotential")
    return _blurred_bipotential(phi, star, spec.eps)


def blurred_graph(phi: SampledFunction, spec: BlurSpec, tol=None,
                  ygrid: Grid | None = None) -> GraphSet:
    """M(phi, eps) = M + A: pairs (x, y) with a ball neighbor of y whose
    Fenchel-Young residual phi(x) + phi*(y~) - <x, y~> is <= tol.

    tol may be a scalar or an array over the x-grid (per-candidate
    tolerances); default is the equality-set threshold h^2/2.
    """
    star = _yball_conjugate(phi, spec, ygrid, "blurred_graph")
    return _graph_within(inf_convolve_blur(_separable_sync(phi, star), spec),
                         tol)


@dataclass(frozen=True)
class BlurredLaw:
    """A law phi with its blur: c_A, b_A and M + A on shared grids."""

    phi: SampledFunction
    spec: BlurSpec
    cA: SampledBivariate
    bA: SampledBivariate
    MplusA: GraphSet

    def __post_init__(self):
        gap = _finite_gap(self.bA.vals - self.bA.pairing(), self.cA.vals)
        if gap > 1e-9:
            raise InvalidInputError(
                f"b_A - <x,y> differs from c_A by {gap:.3e} (> 1e-9)")


def _finite_gap(a: np.ndarray, b: np.ndarray) -> float:
    both = np.isfinite(a) & np.isfinite(b)
    agree_inf = np.isposinf(a) == np.isposinf(b)
    if not agree_inf.all():
        return INF
    if not both.any():
        return 0.0
    return float(np.abs(a[both] - b[both]).max())


def blur_law(phi: SampledFunction, spec: BlurSpec, ygrid: Grid | None = None,
             tol=None) -> BlurredLaw:
    """Assemble c_A, b_A and M + A for a y-ball blur of Graph(d phi).

    One conjugate and one min-filter of the residual serve c_A and
    M + A = {c_A <= tol}; b_A comes by the direct route, and BlurredLaw
    checks that the two routes agree.
    """
    star = _yball_conjugate(phi, spec, ygrid, "blur_law")
    cA = inf_convolve_blur(_separable_sync(phi, star), spec)
    return BlurredLaw(phi, spec, cA, _blurred_bipotential(phi, star, spec.eps),
                      _graph_within(cA, tol))


# --- checkers ---------------------------------------------------------------


def check_newc(phi: SampledFunction, eps: float, at_y, tol=None,
               ygrid: Grid | None = None) -> CheckReport:
    """Convexity of U(y) = union of subdifferentials of phi* over the
    eps-ball of y-nodes around at_y.

    Each subdifferential uses the per-candidate Fenchel-Young tolerance
    (default ``default_subdiff_tol``), so U(y) is also the (x, at_y)
    section of M + A at that tolerance.
    """
    star = _yball_conjugate(phi, BlurSpec(eps, Y_BALL), ygrid, "check_newc")
    ygrid = star.grid

    center = ygrid.coords(at_y)
    at_t = (at_y,) if ygrid.dim == 1 else tuple(at_y)
    if tol is None:
        tol = default_subdiff_tol(phi.grid)
    union = np.zeros(phi.grid.shape, dtype=bool)
    clipped = False
    for off in ball_offsets(ygrid, eps):
        off_t = (off,) if ygrid.dim == 1 else off
        idx = tuple(at_t[k] + off_t[k] for k in range(ygrid.dim))
        if any(i < 0 or i >= ygrid.n[k] for k, i in enumerate(idx)):
            clipped = True
            continue
        union |= subdiff_mask(phi, star, idx[0] if ygrid.dim == 1 else idx, tol)
    notes = [f"y = {(center,) if ygrid.dim == 1 else center}", f"eps = {eps}"]
    if clipped:
        notes.append("ball clipped at the y-box boundary")
    if not union.any():
        return passing("newc", "U(y) is empty", *notes)
    rep = is_set_convex(union, phi.grid)
    if rep.ok:
        return passing("newc", *notes, *rep.notes)
    return failing("newc", rep.witness, rep.residual, *notes, *rep.notes)


def minkowski_blur(M: GraphSet, spec: BlurSpec):
    """(M + A, clipped): the nodewise Minkowski sum, and whether any
    member's ball was truncated by the box boundary."""
    if M.is_empty:
        raise InvalidInputError("minkowski_blur needs a nonempty graph")
    spec.require_resolvable(M.xgrid, M.ygrid)
    if spec.kind == Y_BALL:
        out = ball_dilate(M.mask, M.ygrid, spec.eps)
        clipped = _any_near_boundary(M, spec.eps, y_only=True)
    else:
        out = np.zeros_like(M.mask)
        _shift_reduce(out, M.mask, _product_shifts(spec, M.xgrid, M.ygrid),
                      np.logical_or)
        clipped = _any_near_boundary(M, spec.eps, y_only=False)
    return GraphSet(M.xgrid, M.ygrid, out), clipped


def _any_near_boundary(M: GraphSet, eps: float, y_only: bool) -> bool:
    """Does a member node lie within eps of the box on a y-axis (or, unless
    y_only, on an x-axis)? Decided per axis on the mask's projection."""
    axes = [(g, k) for g in (M.xgrid, M.ygrid) for k in range(g.dim)]
    for ax in range(M.xgrid.dim if y_only else 0, len(axes)):
        g, k = axes[ax]
        others = tuple(a for a in range(len(axes)) if a != ax)
        c = g.lo[k] + np.flatnonzero(M.mask.any(axis=others)) * g.h[k]
        if ((c - g.lo[k] < eps) | (g.hi[k] - c < eps)).any():
            return True
    return False


def check_admits_blurring(M_or_c: Union[GraphSet, SampledBivariate],
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
