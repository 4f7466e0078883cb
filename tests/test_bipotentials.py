import math

import numpy as np
import pytest

from bipot.bipotentials import (GraphSet, check_bbgraph, check_bipotential,
                                check_cyclically_monotone, check_sync,
                                default_graph_tol, graph_of,
                                graphs_match_within, separable,
                                sync_from_bipotential)
from bipot import bipotentials, windows
from bipot.convexity import is_convex
from bipot.covers import (build_cover, check_implicitly_convex,
                          check_maithm_equivalence)
from bipot.errors import FormatError, InvalidInputError
from bipot.grids import Grid, SampledBivariate, SampledFunction, pairing

from oracles import (b_infinity, bipotential_from_sync,
                     check_bipotential_whole, conjugate_pair,
                     first_high_slice_minimum)


def fy_equality_graph(phi, grid, tol):
    """Definitional equality set of (phi, phi*), enumerated nodewise."""
    pair = conjugate_pair(phi, grid)
    xs = grid.axis(0)
    resid = pair.phi.vals[:, None] + pair.phistar.vals[None, :] \
        - xs[:, None] * xs[None, :]
    return resid <= tol


class TestSyncBipotentialRoundTrip:
    def test_separable_quadratic_sync(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        b = separable(phi, line_grid)
        c = sync_from_bipotential(b)
        xs = line_grid.axis(0)
        want = 0.5 * (xs[:, None] - xs[None, :]) ** 2
        assert np.abs(c.vals - want).max() <= 1e-12

    def test_round_trip_identity(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, np.abs)
        b = separable(phi, line_grid)
        back = bipotential_from_sync(sync_from_bipotential(b))
        fin = np.isfinite(b.vals)
        assert np.array_equal(np.isfinite(back.vals), fin)
        # subtract-then-add the pairing costs one rounding each way
        assert np.abs(back.vals[fin] - b.vals[fin]).max() <= 1e-12

    def test_indicator_sync_of_b_infinity(self, line_grid):
        M = GraphSet.from_pairs(line_grid, line_grid, [(10, 10), (50, 50)])
        c = sync_from_bipotential(b_infinity(M))
        assert np.all(c.vals[M.mask] == 0.0)
        assert np.all(np.isinf(c.vals[~M.mask]))

    def test_negative_sync_rejected(self, line_grid):
        vals = np.zeros((line_grid.n[0], line_grid.n[0]))
        vals[3, 4] = -0.5
        with pytest.raises(InvalidInputError, match=r"c\(3, 4\) < 0"):
            bipotential_from_sync(SampledBivariate(line_grid, line_grid, vals))


class TestSeparable:
    def test_quadratic_graph_is_diagonal(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        b = separable(phi, line_grid)
        assert check_bipotential(b).ok
        g = graph_of(b, default_graph_tol(line_grid, line_grid))
        ij = np.argwhere(g.mask)
        assert np.abs(ij[:, 0] - ij[:, 1]).max() <= 1
        assert np.all(np.diag(g.mask))

    def test_indicator_graph_shape(self, line_grid):
        phi = SampledFunction.from_callable(
            line_grid, lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf))
        b = separable(phi, line_grid)
        tol = default_graph_tol(line_grid, line_grid)
        got = graph_of(b, tol).mask
        want = fy_equality_graph(phi, line_grid, tol)
        assert np.array_equal(got, want)
        xs = line_grid.axis(0)
        i_lo, i_hi = line_grid.snap([-1.0]), line_grid.snap([1.0])
        j0 = line_grid.snap([0.0])
        # interior x with y = 0, and the two vertical boundary rays
        assert got[(np.abs(xs) < 1), j0].all()
        assert got[i_hi, xs >= 0].all() and got[i_lo, xs <= 0].all()
        assert not got[(np.abs(xs) < 1 - 1e-9), j0 + 5].any()

    def test_graph_matches_fy_equality_on_corpus(self, convex_corpus, line_grid):
        tol = default_graph_tol(line_grid, line_grid)
        for name, phi in convex_corpus.items():
            got = graph_of(separable(phi, line_grid), tol).mask
            want = fy_equality_graph(phi, line_grid, tol)
            assert np.array_equal(got, want), name


class TestBInfinity:
    def test_singleton_passes(self, line_grid):
        M = GraphSet.from_pairs(line_grid, line_grid, [(7, 13)])
        assert check_bipotential(b_infinity(M)).ok
        assert check_bbgraph(M).ok

    def test_identity_graph(self, line_grid):
        n = line_grid.n[0]
        M = GraphSet(line_grid, line_grid, np.eye(n, dtype=bool))
        binf = b_infinity(M)
        assert check_bipotential(binf).ok
        assert graph_of(binf, 0.0).same_pairs(M)

    def test_empty_rejected(self, line_grid):
        M = GraphSet(line_grid, line_grid,
                     np.zeros((line_grid.n[0],) * 2, dtype=bool))
        with pytest.raises(InvalidInputError):
            b_infinity(M)

    def test_non_uniqueness_two_bipotentials_same_graph(self, line_grid):
        # a maximal cyclically monotone graph carries both the separable
        # bipotential and b_infinity: same graph, different functions
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        b = separable(phi, line_grid)
        tol = default_graph_tol(line_grid, line_grid)
        M = graph_of(b, tol)
        binf = b_infinity(M)
        assert check_bipotential(b).ok and check_bipotential(binf).ok
        assert graph_of(binf, tol).same_pairs(M)
        off_graph = ~M.mask & np.isfinite(b.vals)
        assert np.all(np.isinf(binf.vals[off_graph]))
        assert off_graph.any()


class TestCheckBipotential:
    def test_negative_fixture_zero_function(self, line_grid):
        b = SampledBivariate(line_grid, line_grid,
                             np.zeros((line_grid.n[0],) * 2))
        rep = check_bipotential(b)
        assert not rep.ok and rep.axiom == "duality-lower-bound"
        assert rep.witness is not None

    def test_corpus_passes(self, convex_corpus, line_grid):
        for name, phi in convex_corpus.items():
            rep = check_bipotential(separable(phi, line_grid))
            assert rep.ok, (name, rep)

    def test_three_way_violation_detected(self, line_grid):
        # separable quadratic with the graph value over-reported: b > <x,y>
        # on the diagonal breaks equality membership while the slice
        # subdifferential memberships survive
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        b = separable(phi, line_grid)
        vals = b.vals.copy()
        n = line_grid.n[0]
        bump = 1.0
        vals[np.arange(n), np.arange(n)] += bump
        rep = check_bipotential(SampledBivariate(line_grid, line_grid, vals))
        assert not rep.ok


    @pytest.mark.parametrize("grid", [Grid.line(-1.0, 1.0, 11),
                                      Grid.box(-1.0, 1.0, 5)])
    def test_witness_when_only_the_last_chunk_fails(self, monkeypatch, grid):
        # y-slices are scanned a chunk at a time; only the last y-node's
        # slice is concave in x, so the scan reaches the last chunk (ragged
        # at 3 slices a chunk: 11 and 25 y-nodes)
        phi = SampledFunction.from_callable(
            grid, (lambda x: x * x) if grid.dim == 1
            else (lambda a, b: a * a + b * b))
        vals = separable(phi, grid).vals.copy()
        x1 = grid.meshgrid()[0]
        vals[(Ellipsis,) + (-1,) * grid.dim] -= 2.0 * x1 * x1
        b = SampledBivariate(grid, grid, vals)
        whole = check_bipotential(b)
        last = grid.n[0] - 1 if grid.dim == 1 else (grid.n[0] - 1,) * 2
        assert whole.axiom == "slice-convex[second-difference]"
        assert whole.witness[0] == ("y", last)
        for slices in (1, 3):
            monkeypatch.setattr(windows, "_TILE_BYTES", slices * grid.size * 8)
            assert check_bipotential(b).to_lines() == whole.to_lines()

    @pytest.mark.parametrize("ygrid, witness, residual", [
        (Grid.line(-1.0, 1.0, 7), (("x", 4), (1,)), -0.07407407407407396),
        (Grid.box(-1.0, 1.0, 5), (("x", (4, 0)), (0, 1)),
         -0.16666666666666696)])
    def test_x_slice_failure_names_its_node(self, ygrid, witness, residual):
        # b = 3|x|^2 - x1 |y|^2: every y-slice is convex, and the x-slices
        # with x1 > 0 are concave; unequal grids in 2-D keep the x-node
        # index apart from the y-node index
        xgrid = Grid.line(-1.0, 1.0, 7) if ygrid.dim == 1 \
            else Grid.box(-1.0, 1.0, 7)
        if xgrid.dim == 1:
            b = SampledBivariate.from_callable(
                xgrid, ygrid, lambda x, y: 3 * x * x - x * y * y)
        else:
            b = SampledBivariate.from_callable(
                xgrid, ygrid, lambda x1, x2, y1, y2:
                3 * (x1 * x1 + x2 * x2) - x1 * (y1 * y1 + y2 * y2))
        rep = check_bipotential(b)
        assert (rep.axiom, rep.witness, rep.residual) == \
            ("slice-convex[second-difference]", witness, residual)


def _sync_oracle_cases():
    """(b, tol, axiom, escape note?) cases for the tiled (b) + (c)."""
    line = Grid.line(-2.0, 2.0, 21)
    box = Grid.box(-1.0, 1.0, 7)
    quad = SampledFunction.from_callable(line, lambda x: 0.5 * x * x)
    chi = SampledFunction.from_callable(
        line, lambda x: np.where(np.abs(x) <= 1.0, 0.0, math.inf))
    holes = separable(chi, line).vals.copy()
    holes[2:5, 9:14] = math.inf
    holes[15, :] = math.inf
    holes = SampledBivariate(line, line, holes)
    quad2 = SampledFunction.from_callable(box, lambda a, b: 0.5 * (a * a + b * b))
    raised2 = SampledBivariate(box, box, separable(quad2, box).vals + 0.2)
    # <x, y> overflows to +-inf on these boxes, so c holds -inf and +inf
    huge1 = Grid.line(-1e160, 1e160, 9)
    huge2 = Grid.box(-1e154, 1e154, 5)
    zeros1 = SampledBivariate(huge1, huge1, np.zeros((9, 9)))
    # b = <x, y> where that is finite, +inf where it overflows: b - <x, y>
    # is inf - inf there
    P1 = pairing(huge1, huge1)
    cross = SampledBivariate(huge1, huge1, np.where(np.isfinite(P1), P1, math.inf))
    return [
        pytest.param(separable(quad, line), None, "bipotential", True,
                     id="pass-with-escapes"),
        pytest.param(separable(quad, line), 0.05, "bipotential", True,
                     id="pass-at-tol"),
        pytest.param(SampledBivariate(line, line, np.zeros((21, 21))), None,
                     "duality-lower-bound", False, id="lower-bound"),
        pytest.param(holes, None, "bipotential", False, id="holes"),
        pytest.param(holes, 0.05, "three-way-equivalence", False,
                     id="holes-three-way-at-tol"),
        pytest.param(separable(quad2, box), None, "bipotential", True,
                     id="2d-pass"),
        pytest.param(raised2, 0.05, "three-way-equivalence", False,
                     id="2d-three-way"),
        pytest.param(zeros1, None, "three-way-equivalence", False,
                     id="overflow-1d"),
        pytest.param(SampledBivariate(huge2, huge2, np.zeros((5,) * 4)), None,
                     "three-way-equivalence", False, id="overflow-2d"),
        pytest.param(zeros1, 1e-3, "duality-lower-bound", False,
                     id="overflow-at-tol"),
        pytest.param(cross, None, "three-way-equivalence", False,
                     id="overflow-inf-over-inf"),
    ]


@pytest.mark.parametrize("b, tol, axiom, escapes", _sync_oracle_cases())
def test_tiled_sync_matches_whole_array_oracle(monkeypatch, b, tol, axiom,
                                               escapes):
    # axioms (b) and (c) read c = b - <x, y> an x-tile at a time; the
    # reports equal the whole-array route's at x-tiles of 1 and 3 rows and
    # of the whole grid
    want = check_bipotential_whole(b, tol)
    assert want.axiom == axiom
    assert any("box-escaping" in n for n in want.notes) == escapes
    for rows in (1, 3, b.xgrid.size):
        monkeypatch.setattr(windows, "_TILE_BYTES", rows * b.ygrid.size * 8)
        assert check_bipotential(b, tol).to_lines() == want.to_lines(), rows


def _tol_checkers():
    """Each checker that takes a scalar tol, as a function of it."""
    line = Grid.line(-1.0, 1.0, 11)
    quad = SampledFunction.from_callable(line, lambda x: 0.5 * x * x)
    b = separable(quad, line)
    values = build_cover(quad, 0.4, line).values_at(5)
    return [
        pytest.param(lambda tol: is_convex(quad, tol), id="is_convex"),
        pytest.param(lambda tol: check_bipotential(b, tol),
                     id="check_bipotential"),
        pytest.param(lambda tol: check_sync(sync_from_bipotential(b), tol),
                     id="check_sync"),
        pytest.param(lambda tol: check_implicitly_convex(values, tol=tol),
                     id="check_implicitly_convex"),
        pytest.param(lambda tol: check_maithm_equivalence(quad, 0.4, tol),
                     id="check_maithm_equivalence"),
        pytest.param(lambda tol: check_cyclically_monotone(
            [(0.0, 1.0), (1.0, 0.0)], 2, tol), id="check_cyclically_monotone"),
    ]


@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
@pytest.mark.parametrize("check", _tol_checkers())
def test_checkers_refuse_a_nan_or_negative_tol(check, tol):
    # every comparison with a NaN tol is false, so failing checks passed
    with pytest.raises(InvalidInputError, match="tol must be >= 0"):
        check(tol)


class TestCheckSync:
    def test_quadratic_difference_sync(self, line_grid):
        c = SampledBivariate.from_callable(
            line_grid, line_grid, lambda x, y: 0.5 * (x - y) ** 2)
        assert check_sync(c).ok

    def test_shifted_sync_fails_minimum_axiom(self, line_grid):
        c = SampledBivariate.from_callable(
            line_grid, line_grid, lambda x, y: 0.5 * (x - y) ** 2 + 1.0)
        rep = check_sync(c)
        assert not rep.ok
        assert rep.axiom == "attained-min-zero"
        assert rep.residual == pytest.approx(1.0, abs=1e-9)

    def test_negative_values_fail(self, line_grid):
        vals = np.full((line_grid.n[0],) * 2, -0.25)
        rep = check_sync(SampledBivariate(line_grid, line_grid, vals))
        assert not rep.ok and rep.axiom == "nonnegative"

    @pytest.mark.parametrize("dim", [1, 2])
    def test_slice_minima_match_loop_reference(self, dim, monkeypatch):
        # separately convex syncs on a band |x1 - y1 - t| <= w, raised by
        # delta + kappa (x1 - s)^2: some slice minima escape the box at
        # either end, some are +inf-bounded, and some exceed the tolerance
        g = Grid.line(-2.0, 2.0, 21) if dim == 1 else Grid.box(-2.0, 2.0, 7)
        rng = np.random.default_rng(dim)
        failures = 0
        for _ in range(40):
            t, w, s = rng.uniform(-1.5, 1.5), rng.uniform(0.5, 3.0), rng.uniform(-2, 2)
            delta, kappa = rng.uniform(0.0, 0.4) * dim, rng.uniform(0.0, 1.0)

            def law(x1, y1, rest=0.0):
                d = x1 - y1 - t
                return np.where(np.abs(d) <= w, 0.5 * (d * d + rest) + delta
                                + kappa * (x1 - s) ** 2, np.inf)

            if dim == 1:
                c = SampledBivariate.from_callable(g, g, law)
            else:
                c = SampledBivariate.from_callable(
                    g, g, lambda x1, x2, y1, y2: law(x1, y1, (x2 - y2) ** 2))
            want = first_high_slice_minimum(
                c.vals, pairing(g, g), dim, max(g.h),
                1e-12 * (1.0 + abs(c.finite_max)))
            rep = check_sync(c)
            with monkeypatch.context() as m:
                # 3 slices a tile: most slices lie past the first tile
                m.setattr(windows, "_TILE_BYTES", 3 * g.size * 8)
                assert check_sync(c).to_lines() == rep.to_lines()
            if want is None:
                assert rep.axiom != "attained-min-zero"
            else:
                failures += 1
                assert (rep.axiom, rep.witness, rep.residual) == \
                    ("attained-min-zero", want[:2], want[2])
        assert 0 < failures < 40

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", [Grid.line(-1e160, 1e160, 9),
                                      Grid.box(-1e154, 1e154, 5)])
    def test_overflowing_pairing_keeps_a_verdict(self, grid):
        # c = 0 is the sync of <x, y>, which overflows to +-inf at the box
        # corners; there the cross-check reads c itself
        assert np.isinf(pairing(grid, grid)).any()
        c = SampledBivariate(grid, grid, np.zeros(grid.shape * 2))
        for tol in (None, 1.0):
            assert check_sync(c, tol).to_lines()[:2] == ["verdict = pass",
                                                     "axiom = sync"]
        c = SampledBivariate(grid, grid, np.full(grid.shape * 2, 2.0))
        assert check_sync(c, 1.0).axiom == "attained-min-zero"

    def test_slice_battery_runs_once(self, monkeypatch):
        # the slices of c + <x, y> are c's plus functions linear along every
        # grid line, so the cross-check decides axioms (b) and (c) only
        box = Grid.box(-1.0, 1.0, 7)
        phi = SampledFunction.from_callable(box, lambda a, b: a * a + b * b)
        scanned = []
        battery = bipotentials._slice_convexity
        monkeypatch.setattr(bipotentials, "_slice_convexity",
                            lambda b, tol: scanned.append(b) or battery(b, tol))
        c = sync_from_bipotential(separable(phi, box))
        assert check_sync(c).ok
        assert len(scanned) == 1 and scanned[0] is c

    def test_crosscheck_failure_below_the_tolerance(self):
        # c = -1e-16 passes c >= -tol and its slice minima, but rounding
        # (c + <x, y>) - <x, y> takes some pairs below -tol
        g = Grid.line(-1.0, 1.0, 5)
        c = SampledBivariate(g, g, np.full((5, 5), -1e-16))
        rep = check_sync(c, 1e-16)
        assert (rep.axiom, rep.witness, rep.residual) == \
            ("psync-crosscheck[duality-lower-bound]", (0, 0),
             -1.1102230246251565e-16)

    def test_psync_equivalence_on_corpus(self, convex_corpus, line_grid):
        for name, phi in convex_corpus.items():
            b = separable(phi, line_grid)
            c = sync_from_bipotential(b)
            assert check_sync(c).ok == check_bipotential(b).ok, name


class TestCheckBBGraph:
    def test_band_graph_passes(self, line_grid):
        xs = line_grid.axis(0)
        mask = np.abs(xs[:, None] - xs[None, :]) <= 0.5 + 1e-12
        assert check_bbgraph(GraphSet(line_grid, line_grid, mask)).ok

    def test_split_section_fails(self, line_grid):
        mask = np.zeros((line_grid.n[0],) * 2, dtype=bool)
        mask[10, 50] = mask[30, 50] = True   # y-section {10, 30} with a gap
        rep = check_bbgraph(GraphSet(line_grid, line_grid, mask))
        assert not rep.ok and rep.axiom == "y-section-convex"
        (tag, iy), (wx,) = rep.witness
        assert tag == "y" and iy == 50 and 10 < wx < 30

    def test_x_section_failure_found(self, line_grid):
        mask = np.zeros((line_grid.n[0],) * 2, dtype=bool)
        mask[50, 10] = mask[50, 30] = True
        rep = check_bbgraph(GraphSet(line_grid, line_grid, mask))
        assert not rep.ok and rep.axiom == "x-section-convex"


    def test_witness_is_the_first_y_section_2d(self):
        # y = (3, 4) and y = (1, 4) hold a 3x3 block of x-nodes missing its
        # center, and so does x = (0, 0) in y; the first failing section in
        # the y-first, ascending scan is y = (1, 4)
        xg = Grid.box(-1.0, 1.0, 7)
        yg = Grid.box(-1.0, 1.0, 5)
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        mask = np.zeros(xg.shape + yg.shape, dtype=bool)
        mask[2:5, 2:5, 3, 4] = ring
        mask[1:4, 1:4, 1, 4] = ring
        mask[0, 0, 1:4, 1:4] = ring
        rep = check_bbgraph(GraphSet(xg, yg, mask))
        assert not rep.ok and rep.axiom == "y-section-convex"
        assert rep.witness == (("y", (1, 4)), (2, 2))
        assert rep.residual == pytest.approx(xg.h[0] / 2)
        mask[..., 1, 4] = mask[..., 3, 4] = False
        rep = check_bbgraph(GraphSet(xg, yg, mask))
        assert rep.axiom == "x-section-convex"
        assert rep.witness == (("x", (0, 0)), (2, 2))

    def test_witness_is_the_first_y_section_1d(self, line_grid):
        mask = np.zeros((line_grid.n[0],) * 2, dtype=bool)
        mask[[10, 30], 70] = True      # later y-section with a gap
        mask[[40, 45], 60] = True      # earlier y-section with a gap
        mask[5, [80, 90]] = True       # x-section with a gap
        rep = check_bbgraph(GraphSet(line_grid, line_grid, mask))
        assert not rep.ok and rep.witness == (("y", 60), (41,))


class TestCyclicMonotone:
    def test_identity_graph_all_lengths(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        assert check_cyclically_monotone(pts, 3).ok

    def test_swap_fails_with_exact_residual(self):
        rep = check_cyclically_monotone([(0.0, 1.0), (1.0, 0.0)], 2)
        assert not rep.ok
        assert rep.residual == -1.0
        assert rep.witness in ((0, 1), (1, 0))

    def test_flat_passes(self):
        assert check_cyclically_monotone([(0.0, 0.0), (1.0, 0.0)], 2).ok

    def test_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            rep = check_cyclically_monotone([(0.0, 0.0), (1.0, 1.0)], 5)
        assert rep.ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            check_cyclically_monotone([(0.0, 1.0), (1.0, bad)], 2)
        with pytest.raises(InvalidInputError, match="finite"):
            check_cyclically_monotone([((0.0, bad), (0.0, 0.0))], 1)

    def test_2d_points(self):
        pts = [((0.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 0.0)),
               ((0.0, 1.0), (0.0, 1.0))]
        assert check_cyclically_monotone(pts, 3).ok

    def test_separable_quadratic_graph_points_cycle_free(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        b = separable(phi, line_grid)
        M = graph_of(b, default_graph_tol(line_grid, line_grid))
        pts = [(line_grid.coords(xi), line_grid.coords(yi))
               for xi, yi in list(M.pairs())[::60]][:6]
        assert check_cyclically_monotone(pts, 5).ok


class TestGraphSetCsv:
    def test_round_trip(self, tmp_path, line_grid):
        M = GraphSet.from_pairs(line_grid, line_grid, [(0, 5), (7, 7)])
        p = tmp_path / "m.csv"
        M.to_csv(p)
        back = GraphSet.read_csv(p)
        assert back.same_pairs(M)
        assert back.xgrid.n == M.xgrid.n

    def test_round_trip_2d(self, tmp_path):
        gx = Grid.box(-2.0, 2.0, 5)
        gy = Grid.box((-1.0, 0.0), (1.0, 3.0), (4, 6))
        M = GraphSet.from_pairs(gx, gy, [((0, 0), (0, 0)), ((1, 4), (3, 5)),
                                         ((4, 4), (2, 1))])
        p = tmp_path / "m2.csv"
        M.to_csv(p)
        assert p.read_text().splitlines()[1] == \
            "# xgrid lo=-2.0 -2.0 hi=2.0 2.0 n=5 5"
        back = GraphSet.read_csv(p)
        assert back.xgrid == gx and back.ygrid == gy
        assert back.same_pairs(M)

    @pytest.mark.parametrize("row", ["-1,0", "0,-1", "-25,0", "25,0", "0,5"])
    def test_out_of_range_indices_rejected(self, tmp_path, row):
        g = Grid.line(-1.0, 1.0, 5)
        p = tmp_path / "m.csv"
        GraphSet.from_pairs(g, g, [(0, 0), (2, 3)]).to_csv(p)
        p.write_text(p.read_text() + row + "\n1,1\n")
        with pytest.raises(FormatError) as err:
            GraphSet.read_csv(p)
        assert str(err.value) == "line 7: expected two integer indices"

    def test_graphs_match_within(self, line_grid):
        a = GraphSet.from_pairs(line_grid, line_grid, [(10, 10)])
        b = GraphSet.from_pairs(line_grid, line_grid, [(11, 10)])
        c = GraphSet.from_pairs(line_grid, line_grid, [(13, 10)])
        assert graphs_match_within(a, b, 1)
        assert not graphs_match_within(a, c, 1)


def test_cyclic_check_refuses_a_tuple_count_over_budget(monkeypatch):
    pts = [(float(i), float(i)) for i in range(4)]
    monkeypatch.setattr(bipotentials, "_CYCLE_TUPLES", 4 ** 2 + 4 ** 3)
    assert check_cyclically_monotone(pts, 3).ok
    with pytest.raises(InvalidInputError, match="^336 tuples of up to 4 "):
        check_cyclically_monotone(pts, 4)
