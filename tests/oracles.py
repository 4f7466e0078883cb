"""Independent brute-force oracles used to cross-check the library.

Kept free of bipot kernel imports on purpose: these are the second route
of every dual-route check.
"""

import numpy as np

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


def first_high_slice_minimum(vals, pair, xdim, h, flat_tol):
    """Slice-by-slice reference for the attained-minimum sync axiom.

    vals and pair hold c and <x, y> over (x-node, y-node). Scans the
    y-slices c(., y), then the x-slices c(x, .), in row-major order. A
    slice whose minimum sits on the box edge with an inward neighbor above
    it by more than flat_tol (or +inf) escapes the box and is skipped.
    Returns (tag, node index, minimum) of the first other slice whose
    minimum exceeds h (1 + |<x, y>|) at its first argmin, or None.
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
        escapes = False
        for ax, n in enumerate(sl.shape):
            if at[ax] in (0, n - 1):
                inward = list(at)
                inward[ax] += 1 if at[ax] == 0 else -1
                escapes |= not sl[tuple(inward)] <= mn + flat_tol
        if not escapes and mn > h * (1.0 + abs(float(pv[at]))):
            return tag, idx[0] if xdim == 1 else idx, mn
    return None


def explicit_graph_union(phi_vals, phistar_vals, offsets, xgrid, ygrid, tol):
    """Member-by-member union of a cover's graphs {b_a - <x, y> <= tol}.

    b_a(x, y) = phi(x) + phi*(y - a) + <x, a>, +inf where y - a leaves the
    y-box, for each node offset a (offset * h per axis). Returns the union
    as a boolean mask over (x-node, y-node).
    """
    dim = ygrid.dim
    xs = [g.ravel() for g in np.meshgrid(*xgrid.axes, indexing="ij")]
    ys = [g.ravel() for g in np.meshgrid(*ygrid.axes, indexing="ij")]
    yidx = np.indices(ygrid.shape).reshape(dim, -1)
    phi = phi_vals.reshape(-1)
    star = phistar_vals.reshape(-1)
    pair = np.multiply.outer(xs[0], ys[0])
    if dim == 2:
        pair += np.multiply.outer(xs[1], ys[1])
    union = np.zeros(pair.shape, dtype=bool)
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
        b = (phi + xa)[:, None] + shifted[None, :]
        union |= b - pair <= tol
    return union.reshape(xgrid.shape + ygrid.shape)


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
