"""Independent brute-force oracles used to cross-check the library.

Kept free of bipot kernel imports on purpose: these are the second route
of every dual-route check. They include the exhaustive conjugate
``conjugate_bruteforce``, a cover's member-by-member routes
(``cover_member``, ``explicit_infimum``, ``explicit_graph_union``), which
the library replaces by one conjugate kernel, one min-filter and one
dilation, the whole y-major Fenchel-Young set ``fenchel_young_mask``
behind the x-tiled one that M + A and newc read, the offset-by-offset
window ``shifted_window_reduce`` behind the padded chord sweeps, the
eps-ball enumerated row by row from its radius,
``ball_offsets_by_definition``, behind the clamped chord table of
``windows._ball_chords``, the
slice-by-slice ``envelope_verdicts`` behind maithm's flat midpoint scan,
``pair_sample_whole``, every candidate pair in one array behind the
z1-tiled exhaustive pairs of ``covers._pair_sample``,
``check_bipotential_whole``, axioms (b) and (c) on whole product arrays
behind the x-tiled sync of ``check_bipotential``, and
``per_diagonal_is_convex``, the line battery with one scan per diagonal
behind the sheared diagonal stacks of ``is_convex``.
The helpers at the end are the exception: test-only conveniences built
on the library, namely the constructions ``bipotential_from_sync`` and
``b_infinity``, the random generators ``random_convex_2d_separable`` and
``random_piecewise_linear_1d``, the conjugate pairs on ``conjugate`` and
``fenchel_young_mask`` (checked against closed forms), ``min_filter`` on
``ball_min_filter`` and ``reparameterize`` on ``CoverFamily``.
"""

import math
from dataclasses import dataclass

import numpy as np

from bipot.bipotentials import (_BAND, CLOSEDNESS_NOTE, GraphSet,
                                _slice_convexity)
from bipot.convexity import _faults
from bipot.covers import CoverFamily
from bipot.errors import InvalidInputError
from bipot.extreal import INF
from bipot.grids import Grid, SampledBivariate, SampledFunction, pairing
from bipot.legendre import (DEFAULT_CAP, _cap_to_inf, conjugate,
                            default_dual_grid, default_subdiff_tol, x_tol)
from bipot.report import failing, passing
from bipot.sampling import random_convex_1d
from bipot.windows import ball_min_filter

# --- independent oracles ----------------------------------------------------


def lower_hull_envelope(xs, vals):
    """Exact lower convex envelope of the finite graph points, evaluated at
    every finite node; +inf outside the domain. Pure-python Graham scan,
    independent of the library kernels."""
    fin = np.isfinite(vals)
    pts = [(float(x), float(v)) for x, v in zip(xs[fin], vals[fin])]
    hull = []
    for x, v in pts:
        while len(hull) >= 2:
            (x1, v1), (x2, v2) = hull[-2], hull[-1]
            if (x2 - x1) * (v - v1) - (x - x1) * (v2 - v1) <= 0:
                hull.pop()
            else:
                break
        hull.append((x, v))
    out = np.full_like(vals, np.inf)
    hx = np.array([p[0] for p in hull])
    hv = np.array([p[1] for p in hull])
    idx = np.flatnonzero(fin)
    for i in idx:
        x = xs[i]
        j = np.searchsorted(hx, x)
        if j < len(hx) and hx[j] == x:
            out[i] = hv[j]
        else:
            t = (x - hx[j - 1]) / (hx[j] - hx[j - 1])
            out[i] = hv[j - 1] + t * (hv[j] - hv[j - 1])
    return out


def convex_1d_oracle(xs, vals, tol):
    """Convexity oracle: domain contiguous and values sit on their own
    lower hull within tol."""
    fin = np.isfinite(vals)
    if not fin.any():
        return True
    idx = np.flatnonzero(fin)
    if idx[-1] - idx[0] + 1 != len(idx):
        return False
    env = lower_hull_envelope(xs, vals)
    return bool(np.max(vals[fin] - env[fin]) <= tol)


def brute_min_filter(xs, vals, radius):
    """Definitional window minimum, O(n^2). xs holds the node coordinates:
    a 1-D array, or one row per node in 2-D."""
    out = np.empty_like(vals)
    for i, x in enumerate(xs):
        dist = np.abs(xs - x) if xs.ndim == 1 else np.linalg.norm(xs - x, axis=1)
        out[i] = vals[dist <= radius * (1 + 1e-9)].min()
    return out


def brute_midpoint_convex(vals, tol):
    """Exhaustive aligned-midpoint convexity on a 1-D or 2-D array."""
    arr = vals if vals.ndim == 2 else vals[None, :]
    n1, n2 = arr.shape
    nodes = [(i, j) for i in range(n1) for j in range(n2)]
    for a in range(len(nodes)):
        i1, j1 = nodes[a]
        if not np.isfinite(arr[i1, j1]):
            continue
        for b in range(a + 1, len(nodes)):
            i2, j2 = nodes[b]
            if not np.isfinite(arr[i2, j2]):
                continue
            if (i1 + i2) % 2 or (j1 + j2) % 2:
                continue
            m = arr[(i1 + i2) // 2, (j1 + j2) // 2]
            if m > 0.5 * (arr[i1, j1] + arr[i2, j2]) + tol:
                return False
    return True


def per_diagonal_lines(vals: np.ndarray, dim: int):
    """The grid lines of a (B, *shape) stack of functions, in scan order.

    Yields (family, line indices, (B, L, m) view): all rows, all columns,
    then each diagonal of the two directions on its own. A row or column
    index is its node index along the other axis, a diagonal's is its
    offset. Diagonals shorter than 3 nodes cannot fault and are skipped.
    """
    if dim == 1:
        yield "row", (0,), vals[:, None, :]
        return
    _, n1, n2 = vals.shape
    yield "row", range(n1), vals
    yield "col", range(n2), vals.transpose(0, 2, 1)
    for family, flipped in (("diag-down", vals), ("diag-up", vals[:, :, ::-1])):
        for off in range(3 - n1, n2 - 2):
            yield family, (off,), np.diagonal(flipped, off, 1, 2)[:, None, :]


def per_diagonal_first_fault(vals: np.ndarray, dim: int, tol: float):
    """(family, line index, axiom, position, residual) of the first
    faulting line of one function, or None."""
    for family, ids, lines in per_diagonal_lines(vals[None], dim):
        bad, gap, pos, second = (a[0] for a in _faults(lines, tol, locate=True))
        hit = np.flatnonzero(bad)
        if hit.size:
            k, p = hit[0], int(pos[hit[0]])
            if gap[k]:
                return family, ids[k], "domain-contiguous", p, None
            return family, ids[k], "second-difference", p, float(second[k, p - 1])
    return None


def per_diagonal_witness(family, line_index, pos, shape):
    """Map a 1-D line position back to 2-D node indices."""
    n1, n2 = shape
    if family == "row":
        return (line_index, pos)
    if family == "col":
        return (pos, line_index)
    i0 = max(-line_index, 0)
    j0 = max(line_index, 0)
    if family == "diag-down":
        return (i0 + pos, j0 + pos)
    return (i0 + pos, n2 - 1 - (j0 + pos))


def per_diagonal_is_convex(f: SampledFunction, tol: float):
    """``is_convex`` with each diagonal scanned as its own view."""
    hit = per_diagonal_first_fault(f.vals, f.grid.dim, tol)
    if hit is None:
        return passing("convex")
    family, li, axiom, pos, residual = hit
    if f.grid.dim == 1:
        return failing(axiom, (pos,), residual)
    return failing(axiom, per_diagonal_witness(family, li, pos, f.vals.shape),
                   residual, f"line = {family} {li}")


def shifted_window_reduce(vals, offsets, ufunc, fill):
    """out[..., i, j] = ufunc over vals[..., i + d1, j + d2] for the
    offsets (d1, d2) that stay in the box, fill where none does: one
    whole-array shifted reduction per offset, with no chords, rows or
    padding. Leading axes are batched."""
    n1, n2 = vals.shape[-2:]
    out = np.full(vals.shape, fill, dtype=vals.dtype)
    for d1, d2 in offsets:
        if abs(d1) >= n1 or abs(d2) >= n2:
            continue
        dst = (Ellipsis, slice(max(0, -d1), n1 - max(0, d1)),
               slice(max(0, -d2), n2 - max(0, d2)))
        src = (Ellipsis, slice(max(0, d1), n1 + min(0, d1)),
               slice(max(0, d2), n2 + min(0, d2)))
        ufunc(out[dst], vals[src], out=out[dst])
    return out


def ball_offsets_by_definition(grid: Grid, eps: float):
    """The node offsets d with ||d * h|| <= eps (relative slack 1e-9)
    that join two nodes of the grid, |d_k| <= n_k - 1: ints in 1-D,
    (d1, d2) tuples in 2-D, ascending. Every row of the unclamped ball is
    enumerated before the filter, so the work grows with eps."""
    slack = 1e-9
    r1 = math.floor(eps / grid.h[0] * (1.0 + slack) + slack)
    if grid.dim == 1:
        return [d for d in range(-r1, r1 + 1) if abs(d) <= grid.n[0] - 1]
    out = []
    for d1 in range(-r1, r1 + 1):
        rem = eps * eps * (1.0 + slack) - (d1 * grid.h[0]) ** 2
        if rem >= 0.0:
            w = math.floor(math.sqrt(rem) / grid.h[1] * (1.0 + slack) + slack)
            out.extend((d1, d2) for d2 in range(-w, w + 1))
    return [(d1, d2) for d1, d2 in out
            if abs(d1) <= grid.n[0] - 1 and abs(d2) <= grid.n[1] - 1]


def adjacent_triples(zshape):
    """Flat (z1, z2, mid) triples of the +-1-step pairs along the rows
    (1-D: the line), columns and both diagonals, in that order, each in
    row-major order of its mid."""
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


def envelope_verdicts(ystack, sampled, tol):
    """Per-slice midpoint convexity (alpha = 0.5) of a (B, *zshape) stack,
    one slice at a time: the slice's adjacent triples, then the sampled
    (z1, z2, mid) triples; a triple with an infinite end is skipped."""
    mandatory = adjacent_triples(ystack.shape[1:])
    out = np.empty(len(ystack), dtype=bool)
    for s in range(len(ystack)):
        g = ystack[s].reshape(-1)
        out[s] = True
        for z1, z2, mid in (mandatory, sampled):
            g1, g2 = g[z1], g[z2]
            rhs = 0.5 * g1 + (1.0 - 0.5) * g2 + tol
            with np.errstate(invalid="ignore"):
                if (np.isfinite(g1) & np.isfinite(g2) & (g[mid] > rhs)).any():
                    out[s] = False
                    break
    return out


def pair_sample_whole(zshape, alpha, cap, rng):
    """``covers._pair_sample`` listing every candidate pair of the z-grid
    in one n^2 array; rng is the numpy Generator itself, drawn from only
    in the sampled mode."""
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
            m = alpha * mg[d][i1] + beta * mg[d][i2]
            r = np.rint(m)
            ok &= np.abs(m - r) <= 1e-9
            mids.append(r.astype(np.int64))
        i1, i2 = i1[ok], i2[ok]
        mid = np.ravel_multi_index(tuple(m[ok] for m in mids), zshape)
        if len(i1) == 0:
            raise InvalidInputError("grid too coarse for alpha set")
        return i1, i2, mid, f"mode=exhaustive pairs={len(i1)}"

    tries = 0
    got1, got2 = [], []
    while sum(len(g) for g in got1) < cap and tries < 30:
        tries += 1
        c1 = [rng.integers(0, s, size=cap) for s in zshape]
        c2 = [rng.integers(0, s, size=cap) for s in zshape]
        ok = np.ones(cap, dtype=bool)
        for d in range(dims):
            m = alpha * c1[d] + beta * c2[d]
            ok &= np.abs(m - np.rint(m)) <= 1e-9
        ok &= ~np.all([c1[d] == c2[d] for d in range(dims)], axis=0)
        if ok.any():
            got1.append(np.stack([c[ok] for c in c1], axis=-1))
            got2.append(np.stack([c[ok] for c in c2], axis=-1))
    if not got1:
        raise InvalidInputError("grid too coarse for alpha set")
    a1 = np.concatenate(got1)[:cap]
    a2 = np.concatenate(got2)[:cap]
    mid = np.rint(alpha * a1 + beta * a2).astype(np.int64)
    flat = lambda ix: np.ravel_multi_index(tuple(ix.T), zshape)
    return (flat(a1), flat(a2), flat(mid),
            f"mode=sampled pairs={len(a1)} cap={cap}")


def first_high_slice_minimum(vals, pair, xdim, h, flat_tol):
    """Slice-by-slice reference for the attained-minimum sync axiom.

    vals and pair hold c and <x, y> over (x-node, y-node). Scans the
    y-slices c(., y), then the x-slices c(x, .), in row-major order. A
    slice minimum that no node off the box boundary comes within flat_tol
    of escapes the box, and its slice is skipped. Returns (tag, node
    index, minimum) of the first other slice whose minimum exceeds
    h (1 + |<x, y>|) at its first argmin, or None.
    """
    xshape, yshape = vals.shape[:xdim], vals.shape[xdim:]
    jobs = [("y", iy, vals[(Ellipsis,) + iy], pair[(Ellipsis,) + iy])
            for iy in np.ndindex(yshape)]
    jobs += [("x", ix, vals[ix], pair[ix]) for ix in np.ndindex(xshape)]
    for tag, idx, sl, pv in jobs:
        if not np.isfinite(sl).any():
            continue
        at = np.unravel_index(int(np.argmin(sl)), sl.shape)
        mn = float(sl[at])
        inner = sl[_interior_cut(sl.shape, range(sl.ndim))]
        escapes = not (inner <= mn + flat_tol).any()
        if not escapes and mn > h * (1.0 + abs(float(pv[at]))):
            return tag, idx[0] if xdim == 1 else idx, mn
    return None


def _interior_cut(shape, axes):
    """Slice tuple removing the boundary ring of the given axes."""
    cut = [slice(None)] * len(shape)
    for ax in axes:
        cut[ax] = slice(1, -1)
    return tuple(cut)


def _slice_conjugate_at_self(b: SampledBivariate, P: np.ndarray):
    """g*(y) for every y-slice g = b(., y), the x-slice analogue, and
    escape flags; P is the pairing <x, y>.

    g*(y) = max_x (<x, y> - b(x, y)) is the slice conjugate evaluated at the
    slice's own dual point, the only value the Fenchel-Young membership test
    needs. Empty slices give -inf. A slice whose maximum is attained only on
    the box boundary has a sup that (plausibly) escapes the box; its flag is
    set and the membership it feeds is treated as borderline, mirroring the
    attained-minimum guard of the sync axioms.
    """
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isposinf(b.vals), -INF, P - b.vals)
    xdim = b.xgrid.dim
    xaxes = tuple(range(xdim))
    yaxes = tuple(range(xdim, gap.ndim))
    g_y = gap.max(axis=xaxes)   # (yshape): conjugate of b(., y) at y
    g_x = gap.max(axis=yaxes)   # (xshape): conjugate of b(x, .) at x
    ftol = 1e-12 * (1.0 + abs(b.finite_max))
    inner_y = gap[_interior_cut(gap.shape, xaxes)].max(axis=xaxes)
    inner_x = gap[_interior_cut(gap.shape, yaxes)].max(axis=yaxes)
    esc_y = np.isfinite(g_y) & (inner_y < g_y - ftol)
    esc_x = np.isfinite(g_x) & (inner_x < g_x - ftol)
    return g_y, g_x, esc_y, esc_x


def check_bipotential_whole(b: SampledBivariate, tol: float | None = None):
    """``check_bipotential`` with axioms (b) and (c) decided on whole
    product arrays: the pairing, the tolerance, b - <x, y>, the slice
    conjugates at self from <x, y> - b, both Fenchel-Young residuals and
    the stacked membership masks."""
    rep = _slice_convexity(b, 1e-9 * (1.0 + abs(b.finite_max)))
    if not rep.ok:
        return rep

    P = pairing(b.xgrid, b.ygrid)
    h = max(max(b.xgrid.h), max(b.ygrid.h))
    with np.errstate(over="ignore"):   # +inf where the pairing is huge
        tolc = (3.0 * h * (1.0 + np.abs(P))) if tol is None else np.full(P.shape, float(tol))

    with np.errstate(invalid="ignore"):
        diff = np.where(np.isposinf(b.vals), INF, b.vals - P)
    bad = diff < -tolc
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return failing("duality-lower-bound", tuple(int(i) for i in idx),
                       float(diff[idx]), "b(x, y) < <x, y> - tol")

    g_y, g_x, esc_y, esc_x = _slice_conjugate_at_self(b, P)
    xdim = b.xgrid.dim
    gy = g_y.reshape((1,) * xdim + b.ygrid.shape)
    gx = g_x.reshape(b.xgrid.shape + (1,) * b.ygrid.dim)
    ey = esc_y.reshape(gy.shape)
    ex = esc_x.reshape(gx.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        r1 = np.where(np.isposinf(diff), INF, diff + gy)
        r2 = np.where(np.isposinf(diff), INF, diff + gx)
    member = np.stack([(r1 <= tolc) & ~ey, (r2 <= tolc) & ~ex, diff <= tolc])
    nonmember = np.stack([(r1 >= _BAND * tolc) & ~ey,
                          (r2 >= _BAND * tolc) & ~ex,
                          diff >= _BAND * tolc])
    viol = member.any(axis=0) & nonmember.any(axis=0)
    if viol.any():
        idx = np.unravel_index(int(np.argmax(viol)), viol.shape)
        rs = (float(r1[idx]), float(r2[idx]), float(diff[idx]))
        return failing("three-way-equivalence", tuple(int(i) for i in idx),
                       min(rs), f"residuals (del_y, del_x, eq) = {rs}")
    notes = [CLOSEDNESS_NOTE]
    n_esc = int(esc_y.sum() + esc_x.sum())
    if n_esc:
        notes.append(f"box-escaping slice suprema treated as borderline: {n_esc}")
    return passing("bipotential", *notes)


def _cover_members(phi_vals, phistar_vals, offsets, xgrid, ygrid):
    """Each member b_a(x, y) = phi(x) + phi*(y - a) + <x, a> of a cover,
    +inf where y - a leaves the y-box, for the node offsets a (offset * h
    per axis) in order; an array over (flat x-node, flat y-node)."""
    dim = ygrid.dim
    xs = [g.ravel() for g in np.meshgrid(*xgrid.axes, indexing="ij")]
    yidx = np.indices(ygrid.shape).reshape(dim, -1)
    phi = phi_vals.reshape(-1)
    star = phistar_vals.reshape(-1)
    for off in offsets:
        off = np.atleast_1d(off)
        xa = xs[0] * (off[0] * ygrid.h[0])
        if dim == 2:
            xa = xa + xs[1] * (off[1] * ygrid.h[1])
        src = yidx - off[:, None]
        inside = ((src >= 0) & (src < np.array(ygrid.shape)[:, None])).all(axis=0)
        shifted = np.full(star.shape, np.inf)
        shifted[inside] = star[np.ravel_multi_index(tuple(src[:, inside]),
                                                    ygrid.shape)]
        yield (phi + xa)[:, None] + shifted[None, :]


def cover_member(phi_vals, phistar_vals, off, xgrid, ygrid):
    """The cover member b_a for one node offset a, over (x-node, y-node)."""
    b = next(_cover_members(phi_vals, phistar_vals, [off], xgrid, ygrid))
    return b.reshape(xgrid.shape + ygrid.shape)


def explicit_infimum(phi_vals, phistar_vals, offsets, xgrid, ygrid):
    """Member-by-member pointwise minimum of a cover, over (x-node,
    y-node): one full product pass per offset."""
    out = None
    for b in _cover_members(phi_vals, phistar_vals, offsets, xgrid, ygrid):
        out = b if out is None else np.minimum(out, b, out=out)
    return out.reshape(xgrid.shape + ygrid.shape)


def explicit_graph_union(phi_vals, phistar_vals, offsets, xgrid, ygrid, tol):
    """Member-by-member union of a cover's graphs {b_a - <x, y> <= tol}, as
    a boolean mask over (x-node, y-node)."""
    xs = [g.ravel() for g in np.meshgrid(*xgrid.axes, indexing="ij")]
    ys = [g.ravel() for g in np.meshgrid(*ygrid.axes, indexing="ij")]
    pair = np.multiply.outer(xs[0], ys[0])
    if ygrid.dim == 2:
        pair += np.multiply.outer(xs[1], ys[1])
    union = np.zeros(pair.shape, dtype=bool)
    for b in _cover_members(phi_vals, phistar_vals, offsets, xgrid, ygrid):
        union |= b - pair <= tol
    return union.reshape(xgrid.shape + ygrid.shape)


def fenchel_young_mask(phi: SampledFunction, phistar: SampledFunction, ycols,
                       tol=None) -> np.ndarray:
    """Boolean mask of the discrete Fenchel-Young equality set
    { (x, y) : phi(x) + phistar(y) - <x, y> <= tol(x), both finite } over
    every x-node and the y-nodes with flat indices ``ycols``, built y-major
    over all x-nodes at once: the reference for ``blur._fy_tiles``.

    The shape is ``(phi.grid.size, len(ycols))``; column k is the discrete
    subdifferential of phistar at y-node ``ycols[k]``. tol is as in
    ``x_tol`` (default ``default_subdiff_tol``), and <x, y> is summed over
    the axes in order, as in ``grids.pairing``.
    """
    grid = phi.grid
    ycols = np.asarray(ycols, dtype=np.intp)
    pv = phi.vals.reshape(-1)
    ps = phistar.vals.reshape(-1)[ycols, None]
    # an infinite value makes the residual +inf, which x_tol never admits
    tol = x_tol(default_subdiff_tol(grid) if tol is None else tol, grid)
    # built y-major, so the long x-axis is the inner loop; fl(y*x) == fl(x*y)
    xs, ys = grid.points, phistar.grid.points[ycols]
    pair = np.multiply.outer(ys[:, 0], xs[:, 0])
    if grid.dim == 2:
        pair += np.multiply.outer(ys[:, 1], xs[:, 1])
    resid = ps + pv
    resid -= pair
    return (resid <= tol).T


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


def monotone_chain(points):
    """Convex hull of 2-D points (Andrew's monotone chain), CCW, no collinears."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                ax, ay = chain[-2]
                bx, by = chain[-1]
                if (bx - ax) * (p[1] - ay) - (p[0] - ax) * (by - ay) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append((p[0], p[1]))
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    return np.asarray(hull)


def hull_margin_set_convex(mask, axes, h):
    """One-set reference for the hull-margin rule of a nonempty node set.

    mask is a boolean array over the grid with node coordinates ``axes``
    and steps ``h``. A 1-D set must be index-contiguous; the witness is its
    first missing interior node. In 2-D every node deeper than max(h) / 2
    inside the hull of the members must be a member; the witness is the
    first such missing node in row-major order of the members' bounding
    box, with its depth minus the margin. Returns (ok, witness, residual,
    notes), the fields of the library's report.
    """
    if mask.ndim == 1:
        idx = np.flatnonzero(mask)
        holes = np.setdiff1d(np.arange(idx[0], idx[-1] + 1), idx)
        if holes.size:
            return False, (int(holes[0]),), None, ("missing interior node",)
        return True, None, None, ()

    ax0, ax1 = axes
    rows = np.flatnonzero(mask.any(axis=1))
    first = mask[rows].argmax(axis=1)
    last = mask.shape[1] - 1 - mask[rows, ::-1].argmax(axis=1)
    x = ax0[rows]
    hull = monotone_chain(np.concatenate([np.column_stack([x, ax1[first]]),
                                          np.column_stack([x, ax1[last]])]))
    if len(hull) < 3:
        return True, None, None, ("degenerate hull: no interior nodes",)

    margin = max(h) / 2.0
    i0, i1 = int(rows[0]), int(rows[-1])
    j0, j1 = int(first.min()), int(last.max())
    gx, gy = np.meshgrid(ax0[i0:i1 + 1], ax1[j0:j1 + 1], indexing="ij")
    depth = np.full(gx.shape, np.inf)
    for k in range(len(hull)):
        a = hull[k]
        b = hull[(k + 1) % len(hull)]
        ex, ey = b[0] - a[0], b[1] - a[1]
        norm = float(np.hypot(ex, ey))
        signed = (ex * (gy - a[1]) - ey * (gx - a[0])) / norm
        np.minimum(depth, signed, out=depth)
    missing = (depth > margin) & ~mask[i0:i1 + 1, j0:j1 + 1]
    if not missing.any():
        return True, None, None, ()
    wi, wj = np.unravel_index(int(np.argmax(missing)), missing.shape)
    return (False, (int(wi + i0), int(wj + j0)),
            float(depth[wi, wj] - margin), ("missing hull-interior node",))


def token_parse_block(rows, nfields, ncoord):
    """Token-by-token reference for ``grids._parse_block``: ROWS as an
    (nrows, nfields) array through ``float``, or None if some row has
    another field count, a token ``float`` refuses, a coordinate that is
    not finite, or a NaN or -inf value."""
    if any(ln.count(",") != nfields - 1 for ln in rows):
        return None
    toks = ",".join(rows).split(",")
    try:
        a = np.fromiter(map(float, toks), np.float64, len(toks))
    except ValueError:
        return None
    a = a.reshape(-1, nfields)
    vals = a[:, ncoord:]
    if (not np.isfinite(a[:, :ncoord]).all() or np.isnan(vals).any()
            or np.isneginf(vals).any()):
        return None
    return a


# --- test-only constructions and generators (built on the library) ---------


def bipotential_from_sync(c: SampledBivariate) -> SampledBivariate:
    """b = c + <x, y>; rejects negative sync values."""
    if (c.vals < 0).any():
        idx = np.unravel_index(int(np.argmax(c.vals < 0)), c.vals.shape)
        raise InvalidInputError(
            f"sync values must be >= 0; c{tuple(int(i) for i in idx)} < 0")
    return SampledBivariate(c.xgrid, c.ygrid, c.vals + pairing(c.xgrid, c.ygrid))


def b_infinity(M: GraphSet) -> SampledBivariate:
    """b_inf(x, y) = <x, y> on M, +inf elsewhere."""
    if M.is_empty:
        raise InvalidInputError("b_infinity needs a nonempty graph")
    vals = np.where(M.mask, pairing(M.xgrid, M.ygrid), INF)
    return SampledBivariate(M.xgrid, M.ygrid, vals)


def random_convex_2d_separable(grid: Grid,
                               rng: np.random.Generator) -> SampledFunction:
    """phi(x1, x2) = f1(x1) + f2(x2) with random convex 1-D parts."""
    parts = []
    for k in range(2):
        line = Grid.line(grid.lo[k], grid.hi[k], grid.n[k])
        parts.append(random_convex_1d(line, rng).vals)
    return SampledFunction(grid, parts[0][:, None] + parts[1][None, :])


def random_piecewise_linear_1d(grid: Grid, rng: np.random.Generator,
                               convex: bool) -> SampledFunction:
    """Random piecewise-linear sample; slopes sorted iff convex."""
    n = grid.n[0]
    slopes = rng.uniform(-3.0, 3.0, n - 1)
    if convex:
        slopes = np.sort(slopes)
    else:
        rng.shuffle(slopes)
    vals = rng.uniform(-1.0, 1.0) + np.concatenate(
        [[0.0], np.cumsum(slopes * grid.h[0])])
    return SampledFunction(grid, vals)


# --- conjugate-pair helpers (built on the library's conjugate) ---------------


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


def subdiff_mask(phi: SampledFunction, phistar: SampledFunction, at_y,
                 tol=None) -> np.ndarray:
    """Boolean x-grid mask of the discrete subdifferential of phistar at
    a y-node: { x : phi(x) + phistar(y) - <x, y> <= tol }."""
    col = np.ravel_multi_index(tuple(np.atleast_1d(at_y)), phistar.grid.shape)
    return fenchel_young_mask(phi, phistar, [col], tol).reshape(phi.grid.shape)


def subdiff_points(pair: ConjugatePair, at_y, tol: float | None = None):
    """Discrete subdifferential of phistar at a y-node, as index sets.

    May be empty. The default tolerance is the resolution-consistent
    per-candidate array of ``legendre.default_subdiff_tol``.
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


# --- test-only wrappers of library routines ---------------------------------


def min_filter(f: SampledFunction, radius: float) -> SampledFunction:
    """g(y) = min{ f(node) : ||node - y|| <= radius }.

    The window always contains y itself, so g <= f pointwise and radius 0
    returns f unchanged. Windows are clipped at the box boundary.
    """
    if radius < 0:
        raise InvalidInputError("radius must be >= 0")
    return SampledFunction(f.grid, ball_min_filter(f.vals, f.grid, radius))


def reparameterize(family: CoverFamily, perm) -> CoverFamily:
    """Reindex the family by a bijection on its parameter positions."""
    order = [int(p) for p in perm]
    if sorted(order) != list(range(len(family.offsets))):
        raise InvalidInputError("perm must be a bijection on the lambda nodes")
    return CoverFamily(family.phi, family.phistar,
                       tuple(family.offsets[i] for i in order))
