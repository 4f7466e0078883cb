import numpy as np
import pytest

from bipot.bipotentials import (GraphSet, check_bbgraph, check_sync,
                                default_graph_tol, graph_of,
                                graphs_match_within, separable)
from bipot.blur import (BlurSpec, blur_law, blurred_bipotential, blurred_graph,
                        check_admits_blurring, check_newc, inf_convolve_blur,
                        minkowski_blur)
from bipot.convexity import is_set_convex
from bipot.errors import InvalidInputError, ResolutionError
from bipot.fixtures import (elasticity_closed_form_ca, elasticity_fixture,
                            elasticity_phi, elasticity_sync, two_point_fixture)
from bipot.grids import Grid, SampledBivariate, SampledFunction
from bipot.legendre import conjugate, default_subdiff_tol
from bipot.sampling import random_convex_1d, random_piecewise_linear_1d
from bipot.windows import (ball_dilate, ball_min_filter, chebyshev_dilate,
                           radius_nodes)


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

    def test_product_ball_small(self):
        g = Grid.line(-1.0, 1.0, 21)
        c = SampledBivariate.from_callable(g, g,
                                           lambda x, y: 0.5 * (x - y) ** 2)
        spec = BlurSpec(0.2, "product", p=2.0)
        ca = inf_convolve_blur(c, spec)
        # brute force over the offsets
        h = g.h[0]
        offs = spec.product_offsets(g, g)
        assert (0, 0) in offs
        want = np.full_like(c.vals, np.inf)
        n = g.n[0]
        for dx, dy in offs:
            for i in range(n):
                for j in range(n):
                    si, sj = i - dx, j - dy
                    if 0 <= si < n and 0 <= sj < n:
                        want[i, j] = min(want[i, j], c.vals[si, sj])
        assert np.array_equal(ca.vals, want)


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
        P = law.bA.pairing()
        assert np.abs((law.bA.vals - P) - law.cA.vals).max() <= 1e-9

    def test_product_kind_rejected(self, elast):
        phi = elasticity_phi(elast)
        with pytest.raises(InvalidInputError):
            blurred_bipotential(phi, BlurSpec(0.5, "product"), elast.ygrid)


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
    @pytest.mark.parametrize("array_tol", [False, True])
    def test_blur_law_equals_public_routes(self, dim, n, array_tol):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=n, dim=dim)
        phi = elasticity_phi(fix)
        tol = default_graph_tol(fix.xgrid, fix.ygrid)
        if array_tol:
            tol = tol * np.linspace(0.5, 2.0, fix.xgrid.size).reshape(
                fix.xgrid.shape)
        law = blur_law(phi, fix.spec, fix.ygrid, tol)
        M = blurred_graph(phi, fix.spec, tol, fix.ygrid)
        bA = blurred_bipotential(phi, fix.spec, fix.ygrid)
        assert np.array_equal(law.MplusA.mask, M.mask)
        assert np.array_equal(law.bA.vals, bA.vals)

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
        # residual <= tol}, built here without check_newc's offset loop
        g = Grid.line(-2.0, 2.0, 61)
        eps = 0.5
        failures = 0
        for seed, truncated in [(0, False), (1, False), (7, True)]:
            rng = np.random.default_rng(seed)
            phi = (random_convex_1d(g, rng, truncate=True) if truncated
                   else random_piecewise_linear_1d(g, rng, convex=False))
            star = conjugate(phi, g)
            resid = (phi.vals[:, None] + star.vals[None, :]
                     - np.multiply.outer(g.axis(0), g.axis(0)))
            section = (ball_min_filter(resid, g, eps)
                       <= default_subdiff_tol(g)[:, None])
            for iy in range(g.n[0]):
                rep = check_newc(phi, eps, iy, ygrid=g)
                if not section[:, iy].any():
                    assert rep.ok and "U(y) is empty" in rep.notes
                    continue
                want = is_set_convex(section[:, iy], g)
                assert (rep.ok, rep.witness) == (want.ok, want.witness), \
                    (seed, iy)
                failures += not rep.ok
        assert failures > 0


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
        # x = 1.9 lies within eps of the x-box: only the product ball,
        # which also spreads in x, is clipped
        M, _ = two_point_fixture(1.9, 0.0, 0.0, 0.5, 0.4, line_grid, line_grid)
        assert not minkowski_blur(M, BlurSpec(0.4))[1]
        assert minkowski_blur(M, BlurSpec(0.4, "product"))[1]
        M, _ = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.4, line_grid, line_grid)
        assert not minkowski_blur(M, BlurSpec(0.4))[1]
        assert not minkowski_blur(M, BlurSpec(0.4, "product"))[1]

    @pytest.mark.parametrize("xi, yi, yball, product", [
        ((8, 8), (8, 8), False, False),
        ((8, 8), (8, 15), True, True),      # y2 = 1.75 near the y-box
        ((8, 15), (8, 8), False, True),     # x2 = 1.75 near the x-box
        ((1, 8), (8, 8), False, True),      # x1 = -1.75
    ])
    def test_minkowski_clip_flag_2d(self, xi, yi, yball, product):
        g = Grid.box(-2.0, 2.0, 17)
        mask = np.zeros(g.shape + g.shape, dtype=bool)
        mask[xi + yi] = True
        M = GraphSet(g, g, mask)
        assert minkowski_blur(M, BlurSpec(0.5))[1] == yball
        assert minkowski_blur(M, BlurSpec(0.5, "product"))[1] == product

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

    def test_product_offsets_form_a_bbgraph(self, line_grid):
        from bipot.bipotentials import GraphSet
        spec = BlurSpec(0.3, "product", p=2.0)
        n = line_grid.n[0]
        mask = np.zeros((n, n), dtype=bool)
        for dx, dy in spec.product_offsets(line_grid, line_grid):
            mask[n // 2 + dx, n // 2 + dy] = True
        assert check_bbgraph(GraphSet(line_grid, line_grid, mask)).ok

    def test_zero_offset_always_present(self, line_grid):
        spec = BlurSpec(0.3, "product", p=1.0)
        assert (0, 0) in spec.product_offsets(line_grid, line_grid)


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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1e308])
def test_unusable_radius_is_invalid_input(eps):
    # 1e308 / h overflows to inf; none of these may reach math.floor
    with pytest.raises(InvalidInputError, match="radius"):
        radius_nodes(eps, 0.01)
