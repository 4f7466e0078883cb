"""Seeded random sampled-function generators.

Used by the randomized CLI explorations and by the test corpus. Convex
samples are built from sorted slopes, so their discrete second differences
are honestly nonnegative and the minimizing index of x*y - phi(x) is well
separated from float noise.
"""

from __future__ import annotations

import numpy as np

from .extreal import INF
from .grids import Grid, SampledFunction


def random_convex_1d(grid: Grid, rng: np.random.Generator,
                     truncate: bool = False) -> SampledFunction:
    """Piecewise-linear convex sample; optionally with a proper subinterval
    domain (values +inf outside), staying in Gamma_0."""
    n = grid.n[0]
    slopes = np.sort(rng.uniform(-3.0, 3.0, n - 1))
    vals = np.concatenate([[0.0], np.cumsum(slopes * grid.h[0])])
    vals = vals - vals.min() + rng.uniform(-1.0, 1.0)
    if truncate:
        lo = int(rng.integers(0, n // 3))
        hi = int(rng.integers(2 * n // 3, n))
        out = np.full(n, INF)
        out[lo:hi + 1] = vals[lo:hi + 1]
        vals = out
    return SampledFunction(grid, vals)


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
