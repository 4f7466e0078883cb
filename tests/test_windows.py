"""The padded 2-D chord sweeps against the offset-by-offset window."""

from types import SimpleNamespace

import numpy as np
import pytest

from bipot import _kernels, windows
from bipot.grids import Grid
from bipot.windows import (ball_dilate, ball_min_filter, ball_offsets,
                           chebyshev_dilate)

from oracles import shifted_window_reduce

# n1 != n2 and h1 != h2; a 3-node second axis; and radii whose chords
# clamp at n2 - 1 (0.7 on the 3-node axis of step 0.1, 3.0 elsewhere)
GRIDS = [(Grid((0.0, -1.0), (3.0, 1.0), (7, 9)), (0.3, 0.6, 1.1, 3.0)),
         (Grid((-1.0, -2.0), (1.0, 3.0), (11, 6)), (0.2, 1.0, 2.5)),
         (Grid((0.0, 0.0), (2.0, 0.2), (5, 3)), (0.1, 0.5, 0.7))]


def _values(rng, lead, shape):
    """Random values with +inf entries, each row's two end cells holding
    distinct values below everything else, so that a window leaking from
    one row into the next picks up a value it must not."""
    vals = rng.normal(size=lead + shape)
    vals[rng.random(vals.shape) < 0.15] = np.inf
    ends = vals[..., [0, -1]]
    ends[...] = -1000.0 - rng.permutation(ends.size).reshape(ends.shape)
    vals[..., [0, -1]] = ends
    return vals


def _mask(rng, lead, shape):
    """A sparse mask whose row ends are set half the time."""
    mask = rng.random(lead + shape) < 0.05
    mask[..., [0, -1]] = rng.random(lead + shape[:1] + (2,)) < 0.5
    return mask


def _chebyshev_offsets(nodes):
    return [(d1, d2) for d1 in range(-nodes, nodes + 1)
            for d2 in range(-nodes, nodes + 1)]


@pytest.mark.parametrize("grid, radii", GRIDS,
                         ids=["7x9", "11x6", "5x3"])
@pytest.mark.parametrize("lead", [(7,), (2, 3)])
def test_sweeps_equal_the_offset_window(monkeypatch, grid, radii, lead):
    # 7 and 6 leading slices in tiles of 1 padded item, of 2-3, and whole,
    # so that some last tile is ragged
    rng = np.random.default_rng(sum(grid.n) + len(lead))
    vals = _values(rng, lead, grid.shape)
    mask = _mask(rng, lead, grid.shape)
    for tile_bytes in (1, 3 * grid.size * 8, 1 << 18):
        monkeypatch.setattr(windows, "_TILE_BYTES", tile_bytes)
        for eps in radii:
            offs = ball_offsets(grid, eps)
            assert np.array_equal(
                ball_min_filter(vals, grid, eps),
                shifted_window_reduce(vals, offs, np.minimum, np.inf)), eps
            assert np.array_equal(
                ball_dilate(mask, grid, eps),
                shifted_window_reduce(mask, offs, np.maximum, False)), eps
        # the mask, and the same mask as a view whose grid axes lead in
        # memory (the layout of a transposed graph)
        moved = np.moveaxis(np.moveaxis(mask, (-2, -1), (0, 1)).copy(),
                            (0, 1), (-2, -1))
        for nodes in (0, 1, 2, max(grid.n)):
            want = shifted_window_reduce(mask, _chebyshev_offsets(nodes),
                                         np.maximum, False)
            assert np.array_equal(chebyshev_dilate(mask, grid, nodes),
                                  want), nodes
            got = chebyshev_dilate(moved, grid, nodes)
            assert np.array_equal(got, want), nodes
            assert got.strides == moved.strides


def test_two_node_rows():
    # no Grid has 2 nodes on an axis; the sweep itself takes any shape,
    # and its chords (half-width 5 here) clamp at n2 - 1 = 1. Two blocks
    # of 3 and 2 items, the second ragged in buffers sized by the first;
    # each result is compared before the next block overwrites it
    grid = SimpleNamespace(dim=2, n=(6, 2), shape=(6, 2))
    rng = np.random.default_rng(2)
    vals = _values(rng, (5,), grid.shape)
    mask = _mask(rng, (5,), grid.shape).astype(np.uint8)
    tiles = [slice(0, 3), slice(3, 5)]
    for r1 in (0, 1, 2, 7):
        offs = [(d1, d2) for d1 in range(-r1, r1 + 1) for d2 in range(-5, 6)]
        for a, kernel, ufunc, fill in (
                (vals, _kernels.sliding_min, np.minimum, np.inf),
                (mask, _kernels.sliding_max_u8, np.maximum, 0)):
            want = shifted_window_reduce(a, offs, ufunc, fill)
            seen = []
            for t, got in windows._sweep(((t, a[t]) for t in tiles), grid,
                                         r1, lambda d1: 5.0, kernel, ufunc,
                                         fill):
                assert np.array_equal(got, want[t]), (r1, t)
                seen.append(t)
            assert seen == tiles
