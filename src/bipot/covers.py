"""Bipotential convex covers and the blur equivalence theorem.

The cover of a blurred law is the family b_a(x, y) = phi(x) + phi*(y - a)
+ <x, a> indexed by the node offsets a of the eps-ball (a finite set, so
the compactness and lower-semicontinuity requirements on the index space
hold trivially). Its pointwise infimum is the blurred law b_A, which
``infimum_bipotential`` takes from the blur's one min-filter in y (the
member-by-member minimum is the test oracle ``explicit_infimum``). b_A is
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

import functools
from dataclasses import dataclass

import numpy as np

from .bipotentials import (GraphSet, _unflatten, _yslice_stack,
                           default_graph_tol, graph_of, graphs_match_within)
from .blur import BlurSpec, _blurred_mask, _yball_blur, _yball_conjugate
from .convexity import _chunk_ok
from .errors import InvalidInputError, ResolutionError, require_tol
from .extreal import INF
from .grids import Grid, SampledBivariate, SampledFunction, _pair_points
from .report import CheckReport, failing, passing
from .windows import _tiles, ball_offsets

DEFAULT_PAIR_CAP = 200_000


@dataclass(frozen=True)
class CoverFamily:
    """The family a -> b_a over the eps-ball of y-node offsets.

    ``offsets`` is the ordered index set (the lambda nodes); offset
    coordinates are offset * h per axis. ``values_at`` evaluates the
    members at one y-node and ``infimum_bipotential`` is their minimum.
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

    def values_at(self, y_idx) -> np.ndarray:
        """f(a, x) = b_a(x, y) = phi(x) + phi*(y - a) + <x, a> at the
        y-node y_idx, stacked over the offsets; phi*(y - a) is +inf where
        y - a leaves the box."""
        y = self.ygrid.node_index(y_idx)
        offs = np.asarray(self.offsets).reshape(len(self.offsets), -1)
        out = _pair_points(offs * self.ygrid.h, self.xgrid.points)
        out += self.phi.vals.reshape(-1)
        src = y - offs
        inside = ((src >= 0) & (src < self.ygrid.n)).all(axis=1)
        star = np.full(len(offs), INF)
        star[inside] = self.phistar.vals[tuple(src[inside].T)]
        out += star[:, None]
        return out.reshape((len(offs),) + self.xgrid.shape)


def build_cover(phi: SampledFunction, eps: float,
                ygrid: Grid | None = None) -> CoverFamily:
    """Cover of the eps-blur of Graph(d phi); needs eps >= h."""
    star = _yball_conjugate(phi, BlurSpec(eps), ygrid, "build_cover")
    if eps == 0:   # a blur may have radius 0, a cover may not
        raise ResolutionError(
            f"blur radius below grid resolution (eps={eps}, h={max(star.grid.h)})")
    return CoverFamily(phi, star, tuple(ball_offsets(star.grid, eps)))


def _ball_radius(family: CoverFamily) -> float:
    """The radius of the ball whose node offsets the family holds; other
    offset sets are refused."""
    radius = max(float(np.linalg.norm(family.offset_coords(off)))
                 for off in family.offsets)
    if sorted(ball_offsets(family.ygrid, radius)) != sorted(family.offsets):
        raise InvalidInputError("the shift identity needs a ball of offsets")
    return radius


def infimum_bipotential(family: CoverFamily) -> SampledBivariate:
    """Pointwise minimum over the members, b_A itself.

    With a -> y - a, min over a of b_a(x, y) is phi(x) + <x, y> + the
    ball min-filter in y of phi*(a) - <x, a>, which ``blur._yball_blur``
    computes in one pass; this needs the offsets of a ball, as
    ``build_cover`` makes them.
    """
    return _yball_blur(family.phi, family.phistar, _ball_radius(family),
                       with_cA=False)[1]


def member_graph_union(family: CoverFamily, tol: float | None = None):
    """Union over members of their graphs {b_a = <x, y>} (within tol).

    By the shift identity b_a(x, y) - <x, y> = c(x, y - a), the union is
    the y-ball dilation of the unblurred Fenchel-Young set, i.e. M + A
    (``blur._blurred_mask``); this needs the offsets of a ball, as
    ``build_cover`` makes them. Returns (GraphSet, "shifted-masks").
    """
    if tol is None:
        tol = default_graph_tol(family.xgrid, family.ygrid)
    union = _blurred_mask(family.phi, family.phistar, _ball_radius(family),
                          tol)
    return GraphSet(family.xgrid, family.ygrid, union), "shifted-masks"


# --- implicit convexity -----------------------------------------------------


def _mandatory_steps(zshape):
    """(o, valid) for each line direction: the +-1-step triples along it
    are (mid - o, mid + o, mid) in flat index, for the mids where valid
    (a flat boolean mask over the z-grid) holds; o is 1 in 1-D, and 1, n2,
    n2 + 1 and n2 - 1 for the rows, columns and both diagonals in 2-D."""
    if len(zshape) == 1:
        valid = np.zeros(zshape, dtype=bool)
        valid[1:-1] = True
        return [(1, valid)]
    n1, n2 = zshape
    steps = []
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
        valid = np.zeros(zshape, dtype=bool)
        valid[di:n1 - di, abs(dj):n2 - abs(dj)] = True
        steps.append((di * n2 + dj, valid.reshape(-1)))
    return steps


def _mandatory_pairs(zshape):
    """Flat (z1, z2, mid) triples for +-1-step pairs along every line
    direction (axes and, in 2-D, both diagonals); midpoints exact."""
    z1s, z2s, mids = [], [], []
    for o, valid in _mandatory_steps(zshape):
        mid = np.flatnonzero(valid)
        z1s.append(mid - o)
        z2s.append(mid + o)
        mids.append(mid)
    return (np.concatenate(z1s), np.concatenate(z2s), np.concatenate(mids))


def _require_sampling(cap, seed) -> None:
    if not cap >= 1:
        raise InvalidInputError(f"pair cap must be >= 1, got {cap}")
    _require_seed(seed)


def _require_seed(seed) -> None:
    if not seed >= 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


def _aligned_pairs(z1, mg, zshape, alpha):
    """Flat (z1, z2, mid) triples of the pairs from the nodes z1 to every
    other node whose alpha-point is a node (within 1e-9), z1-major; mg
    holds each node's index along every axis."""
    n = int(np.prod(zshape))
    i1 = np.repeat(z1, n)
    i2 = np.tile(np.arange(n), len(z1))
    keep = i1 != i2
    i1, i2 = i1[keep], i2[keep]
    mids = []
    ok = np.ones(len(i1), dtype=bool)
    for d in range(len(zshape)):
        m = alpha * mg[d][i1] + (1.0 - alpha) * mg[d][i2]
        r = np.rint(m)
        ok &= np.abs(m - r) <= 1e-9
        mids.append(r.astype(np.int64))
    mid = np.ravel_multi_index(tuple(m[ok] for m in mids), zshape)
    return i1[ok], i2[ok], mid


def _pair_sample(zshape, alpha, cap, rng):
    """Aligned (z1, z2, mid) triples for one alpha: exhaustive when the
    pair count fits the cap, otherwise seeded stratified subsampling.

    rng is a zero-argument callable giving the seeded numpy Generator. It
    is called only when the sample draws (a strided phase, or sampled
    mode), so the exhaustive mode makes none. The exhaustive pairs are
    listed z1-major, the candidates of a tile of z1 nodes (about
    ``windows._TILE_BYTES`` of them) at a time, so only the aligned pairs
    are ever held whole.
    """
    dims = len(zshape)
    n = int(np.prod(zshape))
    beta = 1.0 - alpha

    if n * n <= max(cap, 4 * n):
        flat = np.arange(n)
        mg = np.unravel_index(flat, zshape)
        pieces = [_aligned_pairs(flat[t], mg, zshape, alpha)
                  for t in _tiles(n, n * flat.itemsize)]
        i1, i2, mid = map(np.concatenate, zip(*pieces))
        del pieces
        if len(i1) == 0:
            raise InvalidInputError("grid too coarse for alpha set")
        if len(i1) <= cap:
            return i1, i2, mid, f"mode=exhaustive pairs={len(i1)}"
        step = -(-len(i1) // cap)
        phase = int(rng().integers(0, step))
        sel = np.arange(phase, len(i1), step)
        return (i1[sel], i2[sel], mid[sel],
                f"mode=strided pairs={len(sel)} stride={step} phase={phase}")

    # large z-grid: draw z1 uniformly, z2 from the aligned lattice around it
    gen = rng()
    tries = 0
    got1, got2 = [], []
    want = cap
    while sum(len(g) for g in got1) < want and tries < 30:
        tries += 1
        k = want
        c1 = [gen.integers(0, s, size=k) for s in zshape]
        c2 = [gen.integers(0, s, size=k) for s in zshape]
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
    flat = lambda ix: np.ravel_multi_index(tuple(ix.T), zshape)
    return (flat(a1), flat(a2), flat(mid),
            f"mode=sampled pairs={len(a1)} cap={cap}")


def _violations(g1, g2, gm, alpha, tol):
    """Flags of the triples whose midpoint value gm lies above the chord
    between the end values g1 and g2 by more than tol; a triple with an
    infinite end is never flagged."""
    rhs = alpha * g1 + (1.0 - alpha) * g2 + tol
    with np.errstate(invalid="ignore"):
        return np.isfinite(g1) & np.isfinite(g2) & (gm > rhs)


def _scan_envelope(gflat, triples, alpha, tol):
    """First midpoint-convexity violation of the envelope, or None."""
    viol = _violations(*(gflat[z] for z in triples), alpha, tol)
    if not viol.any():
        return None
    w = int(np.argmax(viol))
    z1, z2, mid = (int(z[w]) for z in triples)
    gm = gflat[mid]
    rhs = alpha * gflat[z1] + (1.0 - alpha) * gflat[z2] + tol
    resid = float(gm - (rhs - tol)) if np.isfinite(gm) else INF
    return z1, z2, resid


def _slice_verdicts(ystack, grid: Grid, sampled, tol):
    """(battery, implicit) verdicts of each slice of a (B, *grid.shape)
    stack of envelopes: the line battery of ``convexity.batch_is_convex``,
    and midpoint convexity (alpha = 0.5): no +-1-step triple along any
    line direction and none of the sampled (z1, z2, mid) triples violated.

    The stack is scanned a chunk of about ``windows._TILE_BYTES`` at a
    time, each chunk copied contiguous once for both deciders. The
    adjacent triples of a whole chunk are decided at once, one flat shift
    per line direction, and a triple counts only where its mid is a valid
    mid of its own slice. The sampled triples are gathered only for the
    slices that pass, in (slices x triples) tiles of about
    ``windows._TILE_BYTES`` each: one slice's triples are split into
    several tiles when they are more than that.
    """
    n = grid.size
    tiles = _tiles(len(ystack), n * ystack.itemsize)
    size = len(ystack[tiles[0]]) if tiles else 0
    steps = [(o, np.tile(valid, size))
             for o, valid in _mandatory_steps(grid.shape)]
    battery = np.empty(len(ystack), dtype=bool)
    out = np.empty(len(ystack), dtype=bool)
    ends = np.empty((3, 0))   # gathered end values, reused by every tile
    for t in tiles:
        chunk = np.ascontiguousarray(ystack[t])
        battery[t] = _chunk_ok(chunk, grid.dim, tol)
        chunk = chunk.reshape(-1, n)
        g = chunk.reshape(-1)
        bad = np.zeros(len(g), dtype=bool)
        for o, valid in steps:
            span = len(g) - 2 * o
            if span <= 0:
                continue
            mids = slice(o, o + span)
            viol = _violations(g[:span], g[2 * o:], g[mids], 0.5, tol)
            bad[mids] |= viol & valid[mids]
        ok = ~bad.reshape(len(chunk), n).any(axis=1)
        keep = np.flatnonzero(ok)
        for u in _tiles(len(keep), len(sampled[0]) * ystack.itemsize):
            rows = keep[u]
            sub = chunk[rows]
            for v in _tiles(len(sampled[0]), len(rows) * ystack.itemsize):
                trip = [z[v] for z in sampled]
                if ends.shape[1] < len(rows) * len(trip[0]):
                    ends = np.empty((3, len(rows) * len(trip[0])))
                ok[rows] &= ~_sampled_violations(sub, trip, tol, ends)
        out[t] = ok
    return battery, out


def _sampled_violations(sub, triples, tol, ends):
    """Per row of sub, is some (z1, z2, mid) of triples violated, as
    ``_violations`` decides at alpha = 0.5?

    The end values are gathered into ends, a float array of shape (3, at
    least rows x triples) that the caller reuses from tile to tile, and
    the chord is formed there in place, so that a tile allocates only its
    flags (``take`` in mode "clip": in mode "raise" it buffers its out;
    the indices are in range). ``_violations``' isfinite test is left
    out: sub holds extended reals, and an infinite end makes the chord
    +inf, which no mid value exceeds.
    """
    shape = (len(sub), len(triples[0]))
    g1, g2, gm = (np.take(sub, z, axis=1, mode="clip",
                          out=e[:shape[0] * shape[1]].reshape(shape))
                  for z, e in zip(triples, ends))
    g1 *= 0.5
    g2 *= 0.5
    g1 += g2
    g1 += tol
    return (gm > g1).any(axis=1)


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
    require_tol(tol)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (2, 3):
        raise InvalidInputError("values must have shape (n_lambda, *zshape)")
    alphas = tuple(float(a) for a in alphas)
    if not any(abs(a - 0.5) < 1e-12 for a in alphas):
        raise InvalidInputError("alphas must include 0.5")
    if not all(0 <= a <= 1 for a in alphas):   # NaN fails too
        raise InvalidInputError("alphas must lie in [0, 1]")
    _require_sampling(pair_cap, seed)
    zshape = values.shape[1:]
    g = values.min(axis=0)
    gflat = g.reshape(-1)
    if tol is None:
        fin = np.isfinite(gflat)
        tol = 1e-9 * (1.0 + (np.abs(gflat[fin]).max() if fin.any() else 0.0))
    # one generator for every alpha, made at the first draw
    rng = functools.cache(lambda: np.random.default_rng(seed))

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
    verdicts disagree. Both sides read the same node-ball b_A, so this
    checks that law against itself, not against the paper's theorem.
    """
    require_tol(tol)
    _require_sampling(pair_cap, seed)
    star = _yball_conjugate(phi, BlurSpec(eps), ygrid,
                            "check_maithm_equivalence")
    bA = _yball_blur(phi, star, eps, with_cA=False)[1]
    ygrid = bA.ygrid
    xgrid = bA.xgrid
    stol = 1e-9 * (1.0 + abs(bA.finite_max)) if tol is None else tol
    gtol = default_graph_tol(xgrid, ygrid)
    graph_eq = graphs_match_within(
        graph_of(bA, gtol),
        GraphSet(xgrid, ygrid, _blurred_mask(phi, star, eps, gtol)), 1)

    s1, s2, smid, meta = _pair_sample(xgrid.shape, 0.5, pair_cap,
                                      lambda: np.random.default_rng(seed))
    v1, v2 = _slice_verdicts(_yslice_stack(bA.vals, xgrid.dim), xgrid,
                             (s1, s2, smid), stol)

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
