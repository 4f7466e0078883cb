"""Numpy kernels: the row-wise discrete Legendre transform and the sliding
window min/max line filters.

The sliding filters widen their window by doubling with shifted in-place
reductions, so they need one scratch copy of the rows and no padding. The
Legendre transform is a per-row Python loop (hull + monotone pointer), fast
enough at the grid sizes this package targets.
"""

from __future__ import annotations

import math

import numpy as np

_INF = math.inf


def lf_transform(xs, vals, ys, out=None):
    """Row-wise discrete Legendre transform.

    out[b, j] = max_i (xs[i] * ys[j] - vals[b, i]) over finite vals[b, i],
    computed on the lower convex hull of the finite graph points with a
    pointer that only advances (the maximizer index is nondecreasing in y).
    Rows with empty domain are filled with -inf. Candidate values are
    evaluated exactly as ``fl(fl(x * y) - v)``, matching the brute-force
    definition bit for bit.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    B, n = vals.shape
    m = ys.shape[0]
    if out is None:
        out = np.empty((B, m), dtype=np.float64)
    x = xs.tolist()
    yy = ys.tolist()
    for b in range(B):
        v = vals[b].tolist()
        hull = []
        for i in range(n):
            vi = v[i]
            if vi == _INF:
                continue
            while len(hull) >= 2:
                i1 = hull[-2]
                i2 = hull[-1]
                cross = (x[i2] - x[i1]) * (vi - v[i1]) \
                    - (x[i] - x[i1]) * (v[i2] - v[i1])
                if cross <= 0.0:
                    hull.pop()
                else:
                    break
            hull.append(i)
        if not hull:
            out[b, :] = -_INF
            continue
        row = out[b]
        p = 0
        k = len(hull)
        for j in range(m):
            y = yy[j]
            t = x[hull[p]] * y - v[hull[p]]
            while p + 1 < k:
                t2 = x[hull[p + 1]] * y - v[hull[p + 1]]
                if t2 >= t:
                    p += 1
                    t = t2
                else:
                    break
            row[j] = t
    return out


def _sliding(a, w, ufunc, out):
    """out[b, i] = ufunc.reduce(a[b, max(0, i-w) : i+w+1]) for w >= 0.

    The window grows by doubling: at half-width s, ``ufunc`` of ``out``
    and its copies shifted by +-d (d <= s + 1, so the three windows
    overlap) gives half-width s + d, clipped at the row ends just as the
    definition is. w is clamped to n - 1, past which nothing changes.
    ``out`` may be ``a`` itself.
    """
    if out is None:
        out = np.empty_like(a)
    if out is not a:
        out[...] = a
    w = min(int(w), a.shape[-1] - 1)
    prev = np.empty_like(out) if w > 0 else None
    s = 0
    while s < w:
        d = min(s + 1, w - s)
        np.copyto(prev, out)
        ufunc(out[:, d:], prev[:, :-d], out=out[:, d:])
        ufunc(out[:, :-d], prev[:, d:], out=out[:, :-d])
        s += d
    return out


def sliding_min(a, w, out=None):
    """out[b, i] = min(a[b, max(0, i-w) : i+w+1]) for half-width w >= 0."""
    return _sliding(np.ascontiguousarray(a, dtype=np.float64), w,
                    np.minimum, out)


def sliding_max_u8(a, w, out=None):
    """Same window as sliding_min, max over uint8 (mask dilation)."""
    return _sliding(np.ascontiguousarray(a, dtype=np.uint8), w,
                    np.maximum, out)
