"""Memory guards for product-grid work, read from tracemalloc.

numpy reports its data buffers to tracemalloc, so a traced peak repeats
exactly from run to run, unlike peak RSS, which also moves with the heap
layout. Each guard bounds the bytes allocated during one call above what
was allocated when it started.
"""

import tracemalloc

import numpy as np
import pytest

from bipot import grids, windows
from bipot.bipotentials import (check_bipotential, check_sync, separable,
                                sync_from_bipotential)
from bipot.blur import blur_law, blurred_graph
from bipot.covers import check_implicitly_convex, check_maithm_equivalence
from bipot.fixtures import (cone_fixture, cone_fixture_params,
                            elasticity_fixture, elasticity_phi)
from bipot.grids import Grid, SampledBivariate, SampledFunction


def traced_peak(fn):
    """(fn(), the traced allocation peak during the call, in bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_blur_law_holds_its_outputs_and_a_few_tiles():
    # n = 25: one float64 product array is 3.1 MB, a tile 0.26 MB; c_A,
    # b_A and M + A are each built an x-tile at a time
    fix = cone_fixture_params(0.5, 1.0, 1.0, -2.0, 2.0, 25)
    phi = cone_fixture(fix).phi
    law, peak = traced_peak(lambda: blur_law(phi, fix.spec, fix.ygrid))
    outputs = (law.cA.vals.nbytes + law.bA.vals.nbytes
               + law.MplusA.mask.nbytes)
    assert peak <= outputs + 8 * windows._TILE_BYTES


def test_blurred_graph_holds_its_mask_and_a_few_tiles():
    # n = 41: the mask is 2.8 MB, about 11 tiles; the Fenchel-Young set
    # is formed and dilated an x-tile at a time, never whole
    fix = cone_fixture_params(n=41)
    phi = cone_fixture(fix).phi
    M, peak = traced_peak(lambda: blurred_graph(phi, fix.spec,
                                                ygrid=fix.ygrid))
    assert peak <= M.mask.nbytes + 6 * windows._TILE_BYTES


def test_failing_check_sync_allocates_less_than_one_product_array():
    # 2-D elasticity at n = 25 fails slice convexity at y = (0, 0), in the
    # first chunk of y-slices, so no scan of the whole stack is needed
    fix = elasticity_fixture(1.0, 0.5, n=25, dim=2)
    cA = blur_law(elasticity_phi(fix), fix.spec, fix.ygrid).cA
    rep, peak = traced_peak(lambda: check_sync(cA))
    assert rep.axiom == "slice-convex[second-difference]"
    assert rep.witness[0] == ("y", (0, 0))
    assert peak < cA.vals.nbytes


def test_passing_check_bipotential_allocates_less_than_one_product_array():
    # 2-D separable x^2/2 at n = 25 passes all three axioms; (b) and (c)
    # read b - <x, y> an x-tile at a time, and the line battery a chunk of
    # slices at a time
    g = Grid.box(-2.0, 2.0, 25)
    b = separable(SampledFunction.from_callable(
        g, lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2)), g)
    rep, peak = traced_peak(lambda: check_bipotential(b))
    assert rep.ok
    assert peak < b.vals.nbytes


def test_passing_check_sync_allocates_a_quarter_product_array():
    # 2-D separable x^2/2 at n = 41 passes every sync axiom; the slice
    # minima are taken a tile of slices at a time, <x, y> is formed only at
    # the minima, and the cross-check reads c + <x, y> an x-tile at a time
    g = Grid.box(-2.0, 2.0, 41)
    c = sync_from_bipotential(separable(SampledFunction.from_callable(
        g, lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2)), g))
    rep, peak = traced_peak(lambda: check_sync(c))
    assert rep.ok
    assert peak <= 0.25 * c.vals.nbytes


def test_sync_from_bipotential_holds_its_output_and_a_tile():
    # 2-D separable x^2/2 at n = 41: b - <x, y> is written an x-tile at a
    # time into the output, with the bits of the whole subtraction
    g = Grid.box(-2.0, 2.0, 41)
    b = separable(SampledFunction.from_callable(
        g, lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2)), g)
    c, peak = traced_peak(lambda: sync_from_bipotential(b))
    assert peak <= 1.1 * c.vals.nbytes
    assert np.array_equal(c.vals, b.vals - grids.pairing(g, g))


def test_grid_csv_read_holds_its_rows_values_and_a_block(tmp_path,
                                                        monkeypatch):
    # 401 x 401 nodes: the parsed rows are 3.9 MB and the values 1.3 MB;
    # the blocks are never joined, and a block of text takes about 2.5
    # times _BLOCK_CHARS bytes as str objects
    monkeypatch.setattr(grids, "_BLOCK_CHARS", 1 << 18)
    g = Grid.line(-2.0, 2.0, 401)
    b = SampledBivariate.from_callable(g, g, lambda x, y: x * x + y)
    b.to_csv(tmp_path / "b.csv")
    small = Grid.line(-2.0, 2.0, 5)
    SampledBivariate.from_callable(small, small, lambda x, y: x * y).to_csv(
        tmp_path / "small.csv")
    SampledBivariate.read_csv(tmp_path / "small.csv")   # one-time set-up
    back, peak = traced_peak(lambda: SampledBivariate.read_csv(
        tmp_path / "b.csv"))
    assert back.vals.tobytes() == b.vals.tobytes()
    rows = b.vals.size * 3 * 8
    assert peak <= rows + b.vals.nbytes + 4 * grids._BLOCK_CHARS


def test_exhaustive_maithm_holds_its_triples_and_a_few_tiles():
    # n = 401 at the default cap lists all 80,000 aligned pairs (1.9 MB of
    # triples) a tile of candidates at a time, never the 160,801 of them
    # whole; b_A is 1.3 MB
    g = Grid.line(-2.0, 2.0, 401)
    phi = SampledFunction.from_callable(g, lambda x: 0.5 * x * x)
    check_maithm_equivalence(SampledFunction.from_callable(
        Grid.line(-2.0, 2.0, 41), lambda x: 0.5 * x * x), 0.5)
    rep, peak = traced_peak(lambda: check_maithm_equivalence(phi, 0.45))
    assert rep.ok
    assert "alpha = 0.5: mode=exhaustive pairs=80000" in rep.notes
    triples = 3 * 80_000 * 8
    assert peak <= triples + g.size ** 2 * 8 + 10 * windows._TILE_BYTES


def test_exhaustive_pairs_build_no_generator(monkeypatch):
    def refuse(seed):
        raise AssertionError("a generator was built")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    g = Grid.line(-2.0, 2.0, 101)
    phi = SampledFunction.from_callable(g, lambda x: 0.5 * x * x)
    rep = check_maithm_equivalence(phi, 0.5)
    assert "alpha = 0.5: mode=exhaustive pairs=5000" in rep.notes
    values = np.stack([g.axis(0) ** 2, g.axis(0) ** 2 + 1.0])[:, ::5]
    rep = check_implicitly_convex(values, alphas=(0.5, 1 / 3))
    assert rep.ok and all("mode=exhaustive" in note or "mode=adjacent" in note
                          for note in rep.notes[2:])
    # a draw does build one
    with pytest.raises(AssertionError, match="a generator was built"):
        check_implicitly_convex(values, pair_cap=10)
