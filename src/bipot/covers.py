"""Bipotential convex covers and the blur equivalence theorem.

The cover of a blurred law is the family b_a(x, y) = phi(x) + phi*(y - a)
+ <x, a> indexed by the node offsets a of the eps-ball (a finite set, so
the compactness and lower-semicontinuity requirements on the index space
hold trivially). Its pointwise infimum is the blurred law b_A, and b_A is
a bipotential exactly when the family is implicitly convex in (a, x) for
every y; ``check_maithm_equivalence`` confronts the two sides of that
equivalence computationally.

Implicit convexity of a finite family f collapses to midpoint convexity of
its lower envelope g = min_lambda f: for aligned z1, z2 and any lambda
choices, alpha*f(l1, z1) + beta*f(l2, z2) >= alpha*g(z1) + beta*g(z2), with
equality at the argmin members, and the exists-lambda side attains g at the
midpoint. The scan therefore tests g directly and reconstructs witness
lambdas by argmin. Midpoints are grid-aligned only (no interpolation);
adjacent +-1-step pairs in every line direction are always scanned, and
larger pair sets are capped by seeded stratified subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipotentials import (_unflatten, _yslice_stack, default_graph_tol,
                           graph_of, graphs_match_within)
from .blur import (BlurSpec, Y_BALL, _blurred_bipotential, _graph_within,
                   _separable_sync, _yball_conjugate, inf_convolve_blur)
from .convexity import batch_is_convex
from .errors import InvalidInputError, ResolutionError
from .extreal import INF
from .grids import Grid, SampledBivariate, SampledFunction
from .legendre import conjugate
from .report import CheckReport, failing, passing
from .windows import _overlap, ball_dilate, ball_offsets, radius_nodes

DEFAULT_PAIR_CAP = 200_000


@dataclass(frozen=True)
class CoverFamily:
    """The family a -> b_a over the eps-ball of y-node offsets.

    Members are built lazily; ``offsets`` is the ordered index set (the
    lambda nodes). Offset coordinates are offset * h per axis.
    """

    phi: SampledFunction
    phistar: SampledFunction
    offsets: tuple

    def __post_init__(self):
        if len(self.offsets) == 0:
            raise InvalidInputError("a cover needs a nonempty parameter set")

    @property
    def xgrid(self) -> Grid:
        return self.phi.grid

    @property
    def ygrid(self) -> Grid:
        return self.phistar.grid

    def offset_coords(self, off) -> np.ndarray:
        h = self.ygrid.h
        if self.ygrid.dim == 1:
            return np.array([off * h[0]])
        return np.array([off[0] * h[0], off[1] * h[1]])

    def _shifted_star(self, off) -> np.ndarray:
        """phi*(y - a) on the y-grid, +inf where y - a leaves the box."""
        star = self.phistar.vals
        out = np.full_like(star, INF)
        dst, src = _overlap(star.shape, np.atleast_1d(off))
        out[dst] = star[src]
        return out

    def _lead(self, off) -> np.ndarray:
        """phi(x) + <x, a> on the x-grid."""
        a = self.offset_coords(off)
        if self.xgrid.dim == 1:
            xa = self.xgrid.axis(0) * a[0]
        else:
            g1, g2 = self.xgrid.meshgrid()
            xa = g1 * a[0] + g2 * a[1]
        return self.phi.vals + xa

    def member(self, off) -> SampledBivariate:
        """b_a(x, y) = phi(x) + phi*(y - a) + <x, a> for one offset a."""
        lead = self._lead(off).reshape(self.xgrid.shape + (1,) * self.ygrid.dim)
        return SampledBivariate(self.xgrid, self.ygrid,
                                lead + self._shifted_star(off))

    def values_at(self, y_idx) -> np.ndarray:
        """f(a, x) = b_a(x, y) at the y-node y_idx, stacked over the
        offsets: each row is member(a).vals at that node, +inf where
        y - a leaves the box."""
        at = np.atleast_1d(y_idx)
        rows = []
        for off in self.offsets:
            src = at - np.atleast_1d(off)
            inside = bool(((src >= 0) & (src < self.ygrid.n)).all())
            rows.append(self._lead(off)
                        + (self.phistar.vals[tuple(src)] if inside else INF))
        return np.stack(rows)

    def members(self):
        for off in self.offsets:
            yield off, self.member(off)


def build_cover(phi: SampledFunction, eps: float,
                ygrid: Grid | None = None) -> CoverFamily:
    """Cover of the eps-blur of Graph(d phi); needs eps >= h."""
    phi.require_domain("build_cover")
    if ygrid is None:
        ygrid = phi.grid   # node-aligned dual box by default
    star = conjugate(phi, ygrid)
    if radius_nodes(eps, max(star.grid.h)) < 1:
        raise ResolutionError(
            f"blur radius below grid resolution (eps={eps}, h={max(star.grid.h)})")
    offsets = tuple(ball_offsets(star.grid, eps))
    return CoverFamily(phi, star, offsets)


def infimum_bipotential(family: CoverFamily) -> SampledBivariate:
    """Pointwise minimum over the members (exact finite min).

    Cost is |offsets| full product-grid sweeps; meant for desk-scale
    fixtures. The blur module computes the same surface in one filter pass.
    """
    out = None
    for _, member in family.members():
        out = member.vals.copy() if out is None else np.minimum(out, member.vals)
    return SampledBivariate(family.xgrid, family.ygrid, out)


def reparameterize(family: CoverFamily, perm) -> CoverFamily:
    """Reindex the family by a bijection on its parameter positions."""
    order = [int(p) for p in perm]
    if sorted(order) != list(range(len(family.offsets))):
        raise InvalidInputError("perm must be a bijection on the lambda nodes")
    return CoverFamily(family.phi, family.phistar,
                       tuple(family.offsets[i] for i in order))


def member_graph_union(family: CoverFamily, tol: float | None = None,
                       explicit_budget: int = 300_000_000):
    """Union over members of their graphs {b_a = <x, y>} (within tol).

    Explicit member-by-member thresholding up to ``explicit_budget``
    value evaluations; larger families use the exact shift identity
    b_a - <x, y> = c(x, y - a), i.e. the union is the y-ball dilation of
    the unblurred equality set, which needs the offsets of a ball (as
    ``build_cover`` makes them). Returns (GraphSet, mode string).
    """
    from .bipotentials import GraphSet

    if tol is None:
        tol = default_graph_tol(family.xgrid, family.ygrid)
    cube = family.xgrid.size * family.ygrid.size
    if len(family.offsets) * cube <= explicit_budget:
        union = None
        P = None
        for _, member in family.members():
            if P is None:
                P = member.pairing()
            with np.errstate(invalid="ignore"):
                m = (member.vals - P) <= tol
            union = m if union is None else (union | m)
        return GraphSet(family.xgrid, family.ygrid, union), "explicit"
    zero = 0 if family.ygrid.dim == 1 else (0, 0)
    base = family.member(zero)
    with np.errstate(invalid="ignore"):
        mask = (base.vals - base.pairing()) <= tol
    radius = max(float(np.linalg.norm(family.offset_coords(off)))
                 for off in family.offsets)
    if sorted(ball_offsets(family.ygrid, radius)) != sorted(family.offsets):
        raise InvalidInputError("the shift identity needs a ball of offsets")
    union = ball_dilate(mask, family.ygrid, radius)
    return GraphSet(family.xgrid, family.ygrid, union), "shifted-masks"


# --- implicit convexity -----------------------------------------------------


def _mandatory_pairs(zshape):
    """Flat (z1, z2, mid) triples for +-1-step pairs along every line
    direction (axes and, in 2-D, both diagonals); midpoints exact."""
    if len(zshape) == 1:
        n = zshape[0]
        mid = np.arange(1, n - 1)
        return mid - 1, mid + 1, mid
    n1, n2 = zshape
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    z1s, z2s, mids = [], [], []
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
        ok = ((ii - abs(di) >= 0) & (ii + abs(di) < n1)
              & (jj - abs(dj) >= 0) & (jj + abs(dj) < n2))
        i0, j0 = ii[ok], jj[ok]
        z1s.append((i0 - di) * n2 + (j0 - dj))
        z2s.append((i0 + di) * n2 + (j0 + dj))
        mids.append(i0 * n2 + j0)
    return (np.concatenate(z1s), np.concatenate(z2s), np.concatenate(mids))


def _pair_sample(zshape, alpha, cap, rng):
    """Aligned (z1, z2, mid) triples for one alpha: exhaustive when the
    pair count fits the cap, otherwise seeded stratified subsampling."""
    dims = len(zshape)
    n = int(np.prod(zshape))
    beta = 1.0 - alpha

    if n * n <= max(cap, 4 * n):
        flat = np.arange(n)
        mg = np.unravel_index(flat, zshape)
        i1 = np.repeat(flat, n)
        i2 = np.tile(flat, n)
        keep = i1 != i2
        i1, i2 = i1[keep], i2[keep]
        mids = []
        ok = np.ones(len(i1), dtype=bool)
        for d in range(dims):
            a1 = mg[d][i1]
            a2 = mg[d][i2]
            m = alpha * a1 + beta * a2
            r = np.rint(m)
            ok &= np.abs(m - r) <= 1e-9
            mids.append(r.astype(np.int64))
        i1, i2 = i1[ok], i2[ok]
        mid = np.zeros(len(i1), dtype=np.int64)
        stride = 1
        for d in range(dims - 1, -1, -1):
            mid += mids[d][ok] * stride
            stride *= zshape[d]
        if len(i1) == 0:
            raise InvalidInputError("grid too coarse for alpha set")
        if len(i1) <= cap:
            return i1, i2, mid, f"mode=exhaustive pairs={len(i1)}"
        step = -(-len(i1) // cap)
        phase = int(rng.integers(0, step))
        sel = np.arange(phase, len(i1), step)
        return (i1[sel], i2[sel], mid[sel],
                f"mode=strided pairs={len(sel)} stride={step} phase={phase}")

    # large z-grid: draw z1 uniformly, z2 from the aligned lattice around it
    tries = 0
    got1, got2 = [], []
    want = cap
    while sum(len(g) for g in got1) < want and tries < 30:
        tries += 1
        k = want
        c1 = [rng.integers(0, s, size=k) for s in zshape]
        c2 = [rng.integers(0, s, size=k) for s in zshape]
        ok = np.ones(k, dtype=bool)
        for d in range(dims):
            m = alpha * c1[d] + beta * c2[d]
            ok &= np.abs(m - np.rint(m)) <= 1e-9
        ok &= ~np.all([c1[d] == c2[d] for d in range(dims)], axis=0)
        if ok.any():
            got1.append(np.stack([c[ok] for c in c1], axis=-1))
            got2.append(np.stack([c[ok] for c in c2], axis=-1))
    if not got1:
        raise InvalidInputError("grid too coarse for alpha set")
    a1 = np.concatenate(got1)[:want]
    a2 = np.concatenate(got2)[:want]
    mid = np.rint(alpha * a1 + beta * a2).astype(np.int64)

    def flatten(ix):
        out = np.zeros(len(ix), dtype=np.int64)
        stride = 1
        for d in range(dims - 1, -1, -1):
            out += ix[:, d] * stride
            stride *= zshape[d]
        return out

    return (flatten(a1), flatten(a2), flatten(mid),
            f"mode=sampled pairs={len(a1)} cap={cap}")


def _scan_envelope(gflat, triples, alpha, tol):
    """First midpoint-convexity violation of the envelope, or None."""
    z1, z2, mid = triples
    g1 = gflat[z1]
    g2 = gflat[z2]
    fin = np.isfinite(g1) & np.isfinite(g2)
    if not fin.any():
        return None
    rhs = alpha * g1 + (1.0 - alpha) * g2 + tol
    gm = gflat[mid]
    with np.errstate(invalid="ignore"):
        viol = fin & (gm > rhs)
    if not viol.any():
        return None
    w = int(np.argmax(viol))
    resid = float(gm[w] - (rhs[w] - tol)) if np.isfinite(gm[w]) else INF
    return int(z1[w]), int(z2[w]), resid


def check_implicitly_convex(values: np.ndarray, alphas=(0.5,),
                            tol: float | None = None,
                            pair_cap: int = DEFAULT_PAIR_CAP,
                            seed: int = 0) -> CheckReport:
    """Implicit convexity of a finite family f(lambda, z) on a z-grid.

    values: array of shape (n_lambda, *zshape), zshape 1-D or 2-D. Passes
    iff for every aligned pair (z1, z2), every alpha, some lambda satisfies
    f(lambda, mid) <= alpha f(l1, z1) + beta f(l2, z2) + tol for all
    (l1, l2) -- decided through the lower envelope (see module docstring).
    The witness carries the violating pair with its argmin lambdas.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (2, 3):
        raise InvalidInputError("values must have shape (n_lambda, *zshape)")
    alphas = tuple(float(a) for a in alphas)
    if not any(abs(a - 0.5) < 1e-12 for a in alphas):
        raise InvalidInputError("alphas must include 0.5")
    if any(a < 0 or a > 1 for a in alphas):
        raise InvalidInputError("alphas must lie in [0, 1]")
    zshape = values.shape[1:]
    g = values.min(axis=0)
    gflat = g.reshape(-1)
    if tol is None:
        fin = np.isfinite(gflat)
        tol = 1e-9 * (1.0 + (np.abs(gflat[fin]).max() if fin.any() else 0.0))
    rng = np.random.default_rng(seed)

    notes = [f"seed = {seed}", f"cap = {pair_cap}"]
    for alpha in alphas:
        batches = [(_mandatory_pairs(zshape), "mode=adjacent")] \
            if abs(alpha - 0.5) < 1e-12 else []
        z1, z2, mid, meta = _pair_sample(zshape, alpha, pair_cap, rng)
        batches.append(((z1, z2, mid), meta))
        for trip, meta in batches:
            notes.append(f"alpha = {alpha}: {meta}")
            hit = _scan_envelope(gflat, trip, alpha, tol)
            if hit is not None:
                z1, z2, resid = hit
                w1, w2 = (tuple(int(i) for i in np.unravel_index(z, zshape))
                          for z in (z1, z2))
                l1 = int(values[(slice(None),) + w1].argmin())
                l2 = int(values[(slice(None),) + w2].argmin())
                return failing("implicitly-convex", ((l1, w1), (l2, w2), alpha),
                               resid, *notes)
    return passing("implicitly-convex", *notes)


# --- the equivalence theorem ------------------------------------------------


def check_maithm_equivalence(phi: SampledFunction, eps: float,
                             tol: float | None = None,
                             ygrid: Grid | None = None,
                             pair_cap: int = DEFAULT_PAIR_CAP,
                             seed: int = 0) -> CheckReport:
    """Agreement of the two sides of the blur equivalence.

    Side 1: b_A has convex y-slices and graph equal to the blurred graph.
    Side 2: the cover family f(a, x, y) is implicitly convex in (a, x) for
    every y, decided per y on the envelope b_A(., y). Passes iff the two
    verdicts coincide; witness is the first y-node where the per-slice
    verdicts disagree.
    """
    spec = BlurSpec(eps, Y_BALL)
    star = _yball_conjugate(phi, spec, ygrid, "check_maithm_equivalence")
    bA = _blurred_bipotential(phi, star, spec.eps)
    ygrid = bA.ygrid
    xgrid = bA.xgrid
    stol = 1e-9 * (1.0 + abs(bA.finite_max)) if tol is None else tol
    ystack = _yslice_stack(bA.vals, xgrid.dim)
    v1 = batch_is_convex(ystack, xgrid, stol)

    gtol = default_graph_tol(xgrid, ygrid)
    graph_eq = graphs_match_within(
        graph_of(bA, gtol),
        _graph_within(inf_convolve_blur(_separable_sync(phi, star), spec), gtol),
        1)

    rng = np.random.default_rng(seed)
    mand = _mandatory_pairs(xgrid.shape)
    s1, s2, smid, meta = _pair_sample(xgrid.shape, 0.5, pair_cap, rng)
    sampled = (s1, s2, smid)
    v2 = np.empty(len(ystack), dtype=bool)
    for s in range(len(ystack)):
        gflat = ystack[s].reshape(-1)
        bad = _scan_envelope(gflat, mand, 0.5, stol) \
            or _scan_envelope(gflat, sampled, 0.5, stol)
        v2[s] = bad is None

    verdict1 = bool(v1.all() and graph_eq)
    verdict2 = bool(v2.all())
    notes = (f"bipotential-verdict = {'pass' if verdict1 else 'fail'}",
             f"slice-convexity = {'pass' if bool(v1.all()) else 'fail'}",
             f"graph-equality = {'pass' if graph_eq else 'fail'}",
             f"implicit-convexity-verdict = {'pass' if verdict2 else 'fail'}",
             f"alpha = 0.5: {meta}", f"seed = {seed}")
    if verdict1 == verdict2:
        return passing("maithm-equivalence", *notes)
    disagree = np.flatnonzero(v1 != v2)
    witness = (("y", _unflatten(ygrid, int(disagree[0]))),) if disagree.size else None
    return failing("maithm-equivalence", witness, None, *notes)
