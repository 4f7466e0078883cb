"""Seeded random convex samples for the randomized CLI explorations.

Convex samples are built from sorted slopes, so their discrete second
differences are honestly nonnegative and the minimizing index of
x*y - phi(x) is well separated from float noise. The tests' other
generators live in ``tests/oracles.py``.
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

