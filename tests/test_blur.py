import itertools

import numpy as np
import pytest

from bipot import blur, windows
from bipot.bipotentials import (GraphSet, check_bbgraph, check_sync,
                                default_graph_tol, graph_of,
                                graphs_match_within, separable)
from bipot.blur import (BlurredLaw, BlurSpec, blur_law, blurred_bipotential,
                        blurred_graph, check_admits_blurring, check_newc,
                        check_newc_all, inf_convolve_blur, minkowski_blur)
from bipot.convexity import is_set_convex
from bipot.errors import InvalidInputError, ResolutionError
from bipot.fixtures import (elasticity_closed_form_ca, elasticity_fixture,
                            elasticity_phi, elasticity_sync, two_point_fixture)
from bipot.grids import Grid, SampledBivariate, SampledFunction, pairing
from bipot.legendre import (conjugate, default_dual_grid, default_subdiff_tol,
                            x_tol)
from bipot.sampling import random_convex_1d
from bipot.windows import (ball_dilate, ball_min_filter, ball_offsets,
                           chebyshev_dilate, radius_nodes)

from oracles import (brute_min_filter, fenchel_young_mask,
                     random_piecewise_linear_1d)


@pytest.fixture(scope="module")
def elast():
    return elasticity_fixture(k=1.0, eps=0.5, n=401)


class TestInfConvolveBlur:
    def test_zero_radius_identity(self, elast):
        c = elasticity_sync(elast)
        out = inf_convolve_blur(c, BlurSpec(0.0))
        assert np.array_equal(out.vals, c.vals)

    def test_sub_resolution_radius_rejected(self, elast):
        c = elasticity_sync(elast)
        with pytest.raises(ResolutionError):
            inf_convolve_blur(c, BlurSpec(elast.ygrid.h[0] / 3))

    def test_elasticity_closed_form(self, elast):
        c = elasticity_sync(elast)
        ca = inf_convolve_blur(c, elast.spec)
        oracle = elasticity_closed_form_ca(elast)
        h = max(elast.ygrid.h)
        band = int(np.ceil(elast.eps / h))
        inner = np.s_[:, band:-band]
        gap = np.abs(ca.vals[inner] - oracle.vals[inner]).max()
        assert gap <= 2 * h
        assert (ca.vals >= 0).all()

    def test_point_value_against_brute_force(self, elast):
        c = elasticity_sync(elast)
        ca = inf_convolve_blur(c, elast.spec)
        g = elast.xgrid
        ix, iy = g.snap([0.0]), g.snap([1.0])
        ys = g.axis(0)
        window = np.abs(ys - 1.0) <= 0.5 * (1 + 1e-9)
        brute = c.vals[ix, window].min()
        assert ca.vals[ix, iy] == brute
        assert ca.vals[ix, iy] == pytest.approx(0.125, abs=2 * g.h[0])

    def test_monotone_in_eps(self, elast):
        c = elasticity_sync(elast)
        ca1 = inf_convolve_blur(c, BlurSpec(0.25)).vals
        ca2 = inf_convolve_blur(c, BlurSpec(0.5)).vals
        assert np.all(ca2 <= ca1)

class TestBlurredBipotential:
    def test_zero_eps_is_separable(self, elast):
        phi = elasticity_phi(elast)
        bA = blurred_bipotential(phi, BlurSpec(0.0), elast.ygrid)
        sep = separable(phi, elast.ygrid)
        assert np.abs(bA.vals - sep.vals).max() <= 1e-12

    def test_closed_form(self, elast):
        phi = elasticity_phi(elast)
        bA = blurred_bipotential(phi, elast.spec, elast.ygrid)
        xs = elast.xgrid.axis(0)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        closed = X * Y + 0.5 * np.maximum(np.abs(Y - X) - 0.5, 0.0) ** 2
        h = max(elast.ygrid.h)
        band = int(np.ceil(0.5 / h))
        inner = np.s_[:, band:-band]
        assert np.abs(bA.vals[inner] - closed[inner]).max() <= 2 * h

    def test_on_graph_value(self, elast):
        phi = elasticity_phi(elast)
        bA = blurred_bipotential(phi, elast.spec, elast.ygrid)
        i = elast.xgrid.snap([0.5])
        assert bA.vals[i, i] == pytest.approx(0.25, abs=1e-12)

    def test_shift_identity(self, elast):
        phi = elasticity_phi(elast)
        law = blur_law(phi, elast.spec, elast.ygrid)
        P = pairing(law.bA.xgrid, law.bA.ygrid)
        assert np.abs((law.bA.vals - P) - law.cA.vals).max() <= 1e-9

    def test_self_check_scales_with_the_box(self):
        # <x, y> and phi reach about 1.6e7 here, where b_A - <x, y> and c_A
        # differ by one rounding, 3.7e-9; c_A off by 1 is still refused
        g = Grid.line(-1e6, 1.3e6, 21)
        phi = SampledFunction.from_callable(g, lambda x: 12.5 * np.abs(x))
        yg = default_dual_grid(phi)
        law = blur_law(phi, BlurSpec(yg.h[0]), yg)
        gap = np.abs(law.bA.vals - pairing(g, yg) - law.cA.vals)
        assert gap.max() > 1e-9
        cA = law.cA.vals.copy()
        cA[10, 10] += 1.0
        with pytest.raises(InvalidInputError, match="differs from c_A"):
            BlurredLaw(phi, law.spec, SampledBivariate(g, yg, cA), law.bA,
                       law.MplusA)

    def test_parts_on_other_grids_refused(self):
        # a c_A on another y-grid once met b_A in a raw numpy broadcast
        # (ValueError); x-tiles reshape rows, so a part of the same size on
        # other nodes could slip through a gap check that trusts the shapes
        g = Grid.line(-2.0, 2.0, 21)
        phi = SampledFunction.from_callable(g, lambda x: 0.5 * x * x)
        law = blur_law(phi, BlurSpec(0.5))
        wider = blur_law(phi, BlurSpec(0.5), Grid.line(-2.0, 2.0, 23))
        moved = blur_law(phi, BlurSpec(0.5), Grid.line(-2.5, 1.5, 21))
        other_x = blur_law(SampledFunction.from_callable(
            Grid.line(-1.0, 1.0, 21), lambda x: x * x), BlurSpec(0.5), g)
        for parts in ((wider.cA, law.bA, law.MplusA),
                      (law.cA, wider.bA, wider.MplusA),
                      (law.cA, law.bA, wider.MplusA),
                      (moved.cA, law.bA, law.MplusA),
                      (law.cA, law.bA, moved.MplusA),
                      (other_x.cA, other_x.bA, other_x.MplusA)):
            with pytest.raises(InvalidInputError, match="grid"):
                BlurredLaw(phi, law.spec, *parts)

class TestBlurredGraph:
    def test_band_shape(self, elast):
        phi = elasticity_phi(elast)
        M = blurred_graph(phi, elast.spec, None, elast.ygrid)
        xs = elast.xgrid.axis(0)
        ij = np.argwhere(M.mask)
        d = np.abs(xs[ij[:, 0]] - xs[ij[:, 1]])
        h = max(elast.xgrid.h)
        assert d.max() <= 0.5 + 2 * h
        # contains the full closed band
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        band = np.abs(Y - X) <= 0.5 - h
        assert M.mask[band].all()

    def test_zero_eps_equals_fy_set(self, elast):
        phi = elasticity_phi(elast)
        tol = default_graph_tol(elast.xgrid, elast.ygrid)
        M0 = blurred_graph(phi, BlurSpec(0.0), tol, elast.ygrid)
        sep = separable(phi, elast.ygrid)
        assert M0.same_pairs(graph_of(sep, tol))

    def test_graph_of_bA_matches(self, elast):
        phi = elasticity_phi(elast)
        tol = default_graph_tol(elast.xgrid, elast.ygrid)
        bA = blurred_bipotential(phi, elast.spec, elast.ygrid)
        g1 = graph_of(bA, tol)
        g2 = blurred_graph(phi, elast.spec, tol, elast.ygrid)
        assert graphs_match_within(g1, g2, 1)

    @pytest.mark.parametrize("dim, n", [(1, 101), (2, 21)])
    @pytest.mark.parametrize("array_tol", [False, True, "inf"])
    def test_blur_law_equals_public_routes(self, dim, n, array_tol):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=n, dim=dim)
        phi = elasticity_phi(fix)
        tol = default_graph_tol(fix.xgrid, fix.ygrid)
        if array_tol == "inf":
            # phi restricted to the unit ball, so c_A = +inf for |x| > 1;
            # no route admits such a pair, not even at tol = +inf
            unit = np.linalg.norm(fix.xgrid.points, axis=1) <= 1.0
            phi = SampledFunction(fix.xgrid, np.where(
                unit.reshape(fix.xgrid.shape), phi.vals, np.inf))
            tol = np.inf
        elif array_tol:
            tol = tol * np.linspace(0.5, 2.0, fix.xgrid.size).reshape(
                fix.xgrid.shape)
        law = blur_law(phi, fix.spec, fix.ygrid, tol)
        M = blurred_graph(phi, fix.spec, tol, fix.ygrid)
        bA = blurred_bipotential(phi, fix.spec, fix.ygrid)
        assert not (law.MplusA.mask & np.isposinf(law.cA.vals)).any()
        assert np.array_equal(law.MplusA.mask, M.mask)
        assert np.array_equal(law.bA.vals, bA.vals)
        # rounding is monotone, so c_A is the min-filter of the sync
        # summed as phi(x) + (phi*(y) - <x, y>), bit for bit
        star = conjugate(phi, fix.ygrid)
        phi_b = phi.vals.reshape(phi.grid.shape + (1,) * star.grid.dim)
        sync = SampledBivariate(phi.grid, star.grid, phi_b + (
            star.vals - pairing(phi.grid, star.grid)))
        assert np.array_equal(law.cA.vals,
                              inf_convolve_blur(sync, fix.spec).vals)

    def test_monotone_in_eps(self, elast):
        phi = elasticity_phi(elast)
        m1 = blurred_graph(phi, BlurSpec(0.25), None, elast.ygrid)
        m2 = blurred_graph(phi, BlurSpec(0.5), None, elast.ygrid)
        assert not (m1.mask & ~m2.mask).any()


class TestEpigraphIdentity:
    def test_witnessed_decompositions(self, elast):
        # epi(c_A) = epi(c) + A x {0}: random epigraph points of c_A admit
        # node decompositions (x, y - a, r) in epi(c), ||a|| <= eps
        phi = elasticity_phi(elast)
        law = blur_law(phi, elast.spec, elast.ygrid)
        rng = np.random.default_rng(42)
        g = elast.ygrid
        h = max(g.h)
        w = int(0.5 / h + 1e-9)
        n = g.n[0]
        checked = 0
        while checked < 20:
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            if not np.isfinite(law.cA.vals[i, j]):
                continue
            r = law.cA.vals[i, j] + abs(rng.normal())
            lo, hi = max(0, j - w), min(n, j + w + 1)
            c_slice = elasticity_sync(elast).vals[i, lo:hi]
            assert (c_slice <= r + 1e-12).any()
            checked += 1


class TestCheckNewc:
    def test_quadratic_passes_everywhere_sampled(self, elast):
        phi = elasticity_phi(elast)
        for iy in (0, 100, 200, 300, 400):
            rep = check_newc(phi, 0.5, iy, ygrid=elast.ygrid)
            assert rep.ok, (iy, rep)

    def test_abs_wide_union_is_interval(self):
        g = Grid.line(-3.0, 3.0, 301)
        phi = SampledFunction.from_callable(g, np.abs)
        rep = check_newc(phi, 1.0, g.snap([0.0]), ygrid=g)
        assert rep.ok

    def test_union_matches_blurred_section(self):
        # U(y) is the y-column of {ball min-filter of the Fenchel-Young
        # residual <= tol}: an oracle apart from check_newc's own route
        for dim in (1, 2):
            self._union_matches_blurred_section(dim)

    def _union_matches_blurred_section(self, dim):
        failures = 0
        for phi, eps, ygrid in _newc_corpus(dim):
            star = conjugate(phi, ygrid)
            g = phi.grid
            resid = (phi.vals.reshape(g.shape + (1,) * g.dim) + star.vals
                     - pairing(g, ygrid))
            tol = default_subdiff_tol(g).reshape(g.shape + (1,) * g.dim)
            section = ball_min_filter(resid, ygrid, eps) <= tol
            for iy in ygrid.node_indices():
                rep = check_newc(phi, eps, iy, ygrid=ygrid)
                col = section[(Ellipsis,) + ((iy,) if g.dim == 1 else iy)]
                if not col.any():
                    assert rep.ok and "U(y) is empty" in rep.notes
                    continue
                want = is_set_convex(col, g)
                assert (rep.ok, rep.witness) == (want.ok, want.witness), iy
                failures += not rep.ok
        assert failures > 0


def _newc_corpus(dim):
    """(phi, eps, ygrid) cases with newc failures: non-convex and truncated
    1-D laws, one at an off-node eps; the cone law on a 17x17 grid."""
    if dim == 2:
        from bipot.fixtures import cone_fixture, cone_fixture_params
        fix = cone_fixture_params(n=17)
        return [(cone_fixture(fix).phi, fix.eps, fix.ygrid)]
    g = Grid.line(-2.0, 2.0, 61)
    cases = []
    for seed, truncated, eps in [(0, False, 0.5), (1, False, 0.5),
                                 (7, True, 0.5), (1, False, 0.25),
                                 (3, True, 0.3)]:
        rng = np.random.default_rng(seed)
        phi = (random_convex_1d(g, rng, truncate=True) if truncated
               else random_piecewise_linear_1d(g, rng, convex=False))
        cases.append((phi, eps, g))
    return cases


class TestCheckNewcAll:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_check_newc_at_every_y(self, dim):
        failures = 0
        for phi, eps, ygrid in _newc_corpus(dim):
            got = check_newc_all(phi, eps, ygrid=ygrid)
            assert got.shape == ygrid.shape
            want = [check_newc(phi, eps, iy, ygrid=ygrid).ok
                    for iy in ygrid.node_indices()]
            assert got.reshape(-1).tolist() == want
            failures += want.count(False)
        assert failures > 0

    def test_default_ygrid_and_scalar_tol(self):
        g = Grid.line(-2.0, 2.0, 41)
        phi = random_piecewise_linear_1d(g, np.random.default_rng(4), False)
        got = check_newc_all(phi, 0.3, tol=0.05)
        want = [check_newc(phi, 0.3, iy, tol=0.05).ok for iy in range(41)]
        assert got.tolist() == want and not all(want)


class TestAdmitsBlurring:
    def test_elasticity_graph_and_sync_forms(self, elast):
        phi = elasticity_phi(elast)
        tol = default_graph_tol(elast.xgrid, elast.ygrid)
        M = graph_of(separable(phi, elast.ygrid), tol)
        rep = check_admits_blurring(M, elast.spec)
        assert rep.ok, rep
        c = elasticity_sync(elast)
        rep2 = check_admits_blurring(c, elast.spec)
        assert rep2.ok, rep2

    def test_two_point_threshold(self, line_grid):
        M6, spec6 = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.6,
                                      line_grid, line_grid)
        rep = check_admits_blurring(M6, spec6)
        assert not rep.ok and rep.axiom == "y-section-convex"
        M4, spec4 = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.4,
                                      line_grid, line_grid)
        assert check_admits_blurring(M4, spec4).ok

    def test_two_point_threshold_sharpness(self, line_grid):
        h = line_grid.h[0]
        gap = 1.0
        below = gap / 2 - 2 * h
        above = gap / 2 + 2 * h
        M, _ = two_point_fixture(0.0, 0.0, 1.0, 1.0, below,
                                 line_grid, line_grid)
        assert check_admits_blurring(M, BlurSpec(below)).ok
        assert not check_admits_blurring(M, BlurSpec(above)).ok

    def test_minkowski_clip_flag(self, line_grid):
        M, _ = two_point_fixture(0.0, 0.0, 1.0, 1.9, 0.4,
                                 line_grid, line_grid)
        MA, clipped = minkowski_blur(M, BlurSpec(0.4))
        assert clipped
        # x = 1.9 lies within eps of the x-box, but A spreads in y only
        M, _ = two_point_fixture(1.9, 0.0, 0.0, 0.5, 0.4, line_grid, line_grid)
        assert not minkowski_blur(M, BlurSpec(0.4))[1]
        M, _ = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.4, line_grid, line_grid)
        assert not minkowski_blur(M, BlurSpec(0.4))[1]

    @pytest.mark.parametrize("xi, yi, clipped", [
        ((8, 8), (8, 8), False),
        ((8, 8), (8, 15), True),      # y2 = 1.75 near the y-box
        ((8, 15), (8, 8), False),     # x2 = 1.75 near the x-box only
        ((1, 8), (8, 8), False),      # x1 = -1.75
    ])
    def test_minkowski_clip_flag_2d(self, xi, yi, clipped):
        g = Grid.box(-2.0, 2.0, 17)
        mask = np.zeros(g.shape + g.shape, dtype=bool)
        mask[xi + yi] = True
        M = GraphSet(g, g, mask)
        assert minkowski_blur(M, BlurSpec(0.5))[1] == clipped

    def test_sync_form_zero_set(self, elast):
        c = elasticity_sync(elast)
        ca = inf_convolve_blur(c, elast.spec)
        assert check_sync(ca).ok
        rep = check_admits_blurring(c, elast.spec)
        assert rep.ok


class TestBBGraphOfBlur:
    def test_band_is_bbgraph(self, elast):
        phi = elasticity_phi(elast)
        M = blurred_graph(phi, elast.spec, None, elast.ygrid)
        assert check_bbgraph(M).ok


class TestBlurSpecRealization:
    def test_yball_offsets_form_a_bbgraph(self, line_grid):
        from bipot.bipotentials import GraphSet
        from bipot.windows import ball_offsets
        # realize A = {0} x ball(eps) around the center node
        n = line_grid.n[0]
        mask = np.zeros((n, n), dtype=bool)
        for off in ball_offsets(line_grid, 0.5):
            mask[n // 2, n // 2 + off] = True
        assert check_bbgraph(GraphSet(line_grid, line_grid, mask)).ok

class TestNewcBBGraphEquivalence:
    """Both directions of the blur-admissibility criterion: convexity of
    every subdifferential union iff the blurred graph is a BB-graph."""

    @pytest.mark.parametrize("name", ["quad", "abs", "indicator", "relu_sq"])
    def test_positive_direction_on_corpus(self, name, convex_corpus, line_grid):
        phi = convex_corpus[name]
        newc_all = all(
            check_newc(phi, 0.5, iy, ygrid=line_grid).ok
            for iy in range(0, line_grid.n[0], 5))
        bb = check_bbgraph(blurred_graph(phi, BlurSpec(0.5), None, line_grid)).ok
        assert newc_all and bb, name

    def test_negative_direction_on_cone(self):
        from bipot.fixtures import cone_fixture, cone_fixture_params
        fix = cone_fixture_params(n=41)
        law = cone_fixture(fix)
        rep_newc = check_newc(law.phi, fix.eps, law.y_star_index,
                              ygrid=fix.ygrid)
        rep_bb = check_bbgraph(blurred_graph(law.phi, fix.spec, None,
                                             fix.ygrid))
        assert rep_newc.ok == rep_bb.ok == False  # noqa: E712


@pytest.mark.parametrize("grid", [Grid.line(-1.0, 1.0, 5),
                                  Grid((0.0, -1.0), (3.0, 1.0), (4, 5))])
def test_huge_radius_equals_box_diameter(grid):
    # the window is clipped at the box, so any radius past its diameter
    # gives the whole-box result, without memory or loops that grow with it
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(3,) + grid.shape)
    mask = rng.random((3,) + grid.shape) < 0.2
    mask[:, 0] = True
    diam = float(np.linalg.norm(np.subtract(grid.hi, grid.lo)))
    axes = tuple(range(1, 1 + grid.dim))
    whole_min = ball_min_filter(vals, grid, diam)
    assert np.array_equal(
        whole_min, np.broadcast_to(vals.min(axis=axes, keepdims=True), vals.shape))
    for eps in (1e300, 0.25e6):
        assert np.array_equal(ball_min_filter(vals, grid, eps), whole_min)
        assert np.array_equal(ball_dilate(mask, grid, eps),
                              ball_dilate(mask, grid, diam))
    assert np.array_equal(chebyshev_dilate(mask, grid, 10**12),
                          chebyshev_dilate(mask, grid, max(grid.n)))


def test_tiles_keep_every_bit(monkeypatch):
    # 10 leading slices on rows padded to 11 cells: uint8 masks in tiles
    # of 2 at the smaller size, float64 values in tiles of 1 there and of
    # 2 at the larger (test_windows.py has ragged last tiles)
    grid = Grid((0.0, -1.0), (3.0, 1.0), (7, 9))
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(2, 5) + grid.shape)
    vals[rng.random(vals.shape) < 0.1] = np.inf
    mask = rng.random(vals.shape) < 0.1
    eps = 0.6

    def sweeps():
        return (ball_min_filter(vals, grid, eps), ball_dilate(mask, grid, eps),
                chebyshev_dilate(mask, grid, 2))

    whole = sweeps()
    for tile_bytes in (3 * grid.size, 24 * grid.size):
        monkeypatch.setattr(windows, "_TILE_BYTES", tile_bytes)
        for got, want in zip(sweeps(), whole):
            assert np.array_equal(got, want)
    for v, got in zip(vals.reshape(-1, grid.size),
                      whole[0].reshape(-1, grid.size)):
        assert np.array_equal(got, brute_min_filter(grid.points, v, eps))


def _x_tiled_laws():
    """(name, phi, spec, ygrid) for the x-tile tests: 1-D and 2-D, a law
    that is +inf off its domain, and the |x| law on a box where <x, y>
    reaches 1.6e7; x-node counts are not multiples of 3."""
    line = Grid.line(-2.0, 2.0, 20)
    box = Grid((-2.0, -1.5), (2.0, 1.5), (5, 7))
    quad = SampledFunction.from_callable(line, lambda x: 0.5 * x * x)
    bowl = SampledFunction.from_callable(box, lambda a, b: a * a + 0.5 * b * b)
    ball = np.linalg.norm(box.points, axis=1).reshape(box.shape) <= 1.2
    cap = SampledFunction(box, np.where(ball, bowl.vals, np.inf))
    wide = SampledFunction.from_callable(Grid.line(-1e6, 1.3e6, 20),
                                         lambda x: 12.5 * np.abs(x))
    wide_y = default_dual_grid(wide)
    return [("1-D", quad, BlurSpec(0.5), None),
            ("2-D", bowl, BlurSpec(0.8), Grid.box(-3.0, 3.0, 9)),
            ("2-D +inf", cap, BlurSpec(0.8), Grid.box(-3.0, 3.0, 9)),
            ("|x| box", wide, BlurSpec(wide_y.h[0]), wide_y)]


@pytest.mark.parametrize("name, phi, spec, ygrid", _x_tiled_laws(),
                         ids=[c[0] for c in _x_tiled_laws()])
def test_blurred_law_tiles_keep_every_bit(monkeypatch, name, phi, spec,
                                          ygrid):
    # one x-tile against x-tiles of 1 and 3 float64 rows (ragged: 20 and
    # 35 x-nodes), for M + A's Fenchel-Young rows too
    def parts():
        law = blur_law(phi, spec, ygrid)
        gtol = default_graph_tol(law.bA.xgrid, law.bA.ygrid)
        return (law.cA.vals, law.bA.vals, law.MplusA.mask,
                blurred_bipotential(phi, spec, ygrid).vals,
                graph_of(law.bA, gtol).mask,
                blur._shift_gap(law.bA, law.cA))

    whole = parts()
    row_bytes = whole[0][(0,) * phi.grid.dim].nbytes
    assert phi.grid.size * row_bytes <= windows._TILE_BYTES
    if name == "|x| box":
        assert whole[-1] > 1e-9
    if name == "2-D +inf":
        assert np.isposinf(whole[0]).any()
    for nodes in (1, 3):
        monkeypatch.setattr(windows, "_TILE_BYTES", nodes * row_bytes)
        got = parts()
        for a, b in zip(got[:-1], whole[:-1]):
            assert np.array_equal(a, b)
        assert got[-1] == whole[-1]


def test_one_chord_plan_per_yball_sweep(monkeypatch):
    # 35 x-nodes in x-tiles of 3: the c_A / b_A min-filter and the M + A
    # dilation are one sweep each over all 12 x-tiles
    _, phi, spec, ygrid = _x_tiled_laws()[1]
    monkeypatch.setattr(windows, "_TILE_BYTES", 3 * ygrid.size * 8)
    assert len(windows._tiles(phi.grid.size, ygrid.size * 8)) >= 3
    plans = []
    real = windows._chord_plan
    monkeypatch.setattr(windows, "_chord_plan",
                        lambda *a: plans.append(a) or real(*a))
    blur_law(phi, spec, ygrid)
    assert len(plans) == 2


@pytest.mark.parametrize("name, phi, spec, ygrid", _x_tiled_laws(),
                         ids=[c[0] for c in _x_tiled_laws()])
@pytest.mark.parametrize("tol", ["default", "scalar", "per-x"])
def test_blurred_mask_equals_the_dilated_oracle_set(monkeypatch, name, phi,
                                                     spec, ygrid, tol):
    # the x-tiled Fenchel-Young set and its dilation against ball_dilate
    # of the whole y-major oracle mask, in x-tiles of 1 float64 row, of 3
    # (ragged: 20 and 35 x-nodes) and of the whole grid
    star = conjugate(phi, ygrid or phi.grid)
    xg, yg = phi.grid, star.grid
    gtol = default_graph_tol(xg, yg)
    per_x = gtol * np.linspace(0.2, 5.0, xg.size).reshape(xg.shape)
    tol = {"default": None, "scalar": gtol, "per-x": per_x}[tol]
    fy = fenchel_young_mask(phi, star, np.arange(yg.size), tol)
    want = ball_dilate(fy.reshape(xg.shape + yg.shape), yg, spec.eps)
    # the default tol h (1 + |x|) at h = 1.2e5 admits every pair of |x| box
    assert fy.any() and (not want.all() or name == "|x| box")
    for nodes in (1, 3, xg.size):
        monkeypatch.setattr(windows, "_TILE_BYTES", nodes * yg.size * 8)
        got = blur._blurred_mask(phi, star, spec.eps, tol)
        assert not got.flags.writeable
        assert np.array_equal(got, want), nodes


def _oracle_union(phi, star, eps, at_y, tol):
    """(U(y), clipped): the union of the oracle mask's columns over the
    in-box y-nodes of the eps-ball around at_y, and whether any of the
    ball's nodes lies off the box."""
    yg = star.grid
    idx = np.array(ball_offsets(yg, eps)).reshape(-1, yg.dim) + at_y
    inbox = ((idx >= 0) & (idx < np.array(yg.n))).all(axis=1)
    cols = np.ravel_multi_index(tuple(idx[inbox].T), yg.shape)
    union = fenchel_young_mask(phi, star, cols, tol).any(axis=1)
    return union.reshape(phi.grid.shape), not inbox.all()


@pytest.mark.parametrize("dim", [1, 2])
def test_check_newc_equals_the_per_column_oracle(monkeypatch, dim):
    # three balls clipped at the y-box (in 2-D, (0, 4) and (12, 3) fail)
    # and one inside it, at the default and a scalar tol, in x-tiles of
    # one row of the ball's columns and whole
    clipped = failures = 0
    for phi, eps, ygrid in _newc_corpus(dim):
        star = conjugate(phi, ygrid)
        last = ygrid.n[0] - 1
        nodes = ([0, 1, 33, last] if dim == 1
                 else [(0, 4), (12, 3), (8, 8), (last, last)])
        for at_y, tol in itertools.product(nodes, (None, 0.05)):
            union, clip = _oracle_union(phi, star, eps, at_y, tol)
            want = is_set_convex(union, phi.grid)
            for tile_bytes in (8, 1 << 18):
                monkeypatch.setattr(windows, "_TILE_BYTES", tile_bytes)
                rep = check_newc(phi, eps, at_y, tol, ygrid)
                assert clip == ("ball clipped at the y-box boundary"
                                in rep.notes)
                if not union.any():
                    assert rep.ok and "U(y) is empty" in rep.notes
                    continue
                assert (rep.ok, rep.witness, rep.residual) == (
                    want.ok, want.witness, want.residual), at_y
                assert rep.notes[len(rep.notes) - len(want.notes):] \
                    == want.notes
            clipped += clip
            failures += not want.ok
    assert clipped == len(_newc_corpus(dim)) * 3 * 2 and failures > 0


@pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf])
def test_unusable_tol_is_invalid_input(tol):
    # NaN passed every `tol < 0` check and made M + A empty
    g = Grid.line(-2.0, 2.0, 21)
    phi = SampledFunction.from_callable(g, lambda x: 0.5 * x * x)
    per_x = np.full(g.shape, 0.1)
    per_x[7] = tol
    for call in (lambda: blur_law(phi, BlurSpec(0.5), tol=tol),
                 lambda: blur_law(phi, BlurSpec(0.5), tol=per_x),
                 lambda: blurred_graph(phi, BlurSpec(0.5), tol),
                 lambda: check_newc(phi, 0.5, 10, tol),
                 lambda: graph_of(separable(phi), tol),
                 lambda: x_tol(tol, g),
                 lambda: x_tol(per_x, g)):
        with pytest.raises(InvalidInputError, match="tol must be >= 0"):
            call()


@pytest.mark.parametrize("dim, at_y", [
    (1, 101), (1, 500), (1, -1), (1, -3), (1, (0, 0)), (1, 2.0),
    (2, (9, 0)), (2, (0, -1)), (2, (4,)), (2, 4)])
def test_check_newc_refuses_an_off_grid_node(dim, at_y):
    # on the line, 500 passed with "U(y) is empty" and -3 decided the
    # clipped ball around y = -2.12, off the box
    if dim == 1:
        g = Grid.line(-2.0, 2.0, 101)
        phi, eps = SampledFunction.from_callable(g, lambda x: 0.5 * x * x), 0.5
    else:
        from bipot.fixtures import cone_fixture, cone_fixture_params
        fix = cone_fixture_params(n=9)
        phi, eps = cone_fixture(fix).phi, fix.eps
    check_newc(phi, eps, (phi.grid.n[0] - 1,) * dim)
    with pytest.raises(InvalidInputError, match="not on the grid"):
        check_newc(phi, eps, at_y)


@pytest.mark.parametrize("eps", [float("nan"), -0.1])
def test_blur_spec_refuses_unusable_eps(eps):
    # NaN passed `eps < 0`
    with pytest.raises(InvalidInputError, match="radius must"):
        BlurSpec(eps)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1e308])
def test_unusable_radius_is_invalid_input(eps):
    # 1e308 / h overflows to inf; none of these may reach math.floor
    with pytest.raises(InvalidInputError, match="radius"):
        radius_nodes(eps, 0.01)
