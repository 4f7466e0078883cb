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
    """Definitional window minimum, O(n^2)."""
    out = np.empty_like(vals)
    for i, x in enumerate(xs):
        win = np.abs(xs - x) <= radius * (1 + 1e-9)
        out[i] = vals[win].min()
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
