import numpy as np
import pytest

from bipot.bipotentials import check_bbgraph, check_sync
from bipot.blur import check_admits_blurring, check_newc, blurred_graph, inf_convolve_blur
from bipot.errors import InvalidInputError
from bipot.fixtures import (ConeFixture, cone_fixture, cone_fixture_params,
                            elasticity_closed_form_ca, elasticity_fixture,
                            elasticity_sync, load_default_params,
                            two_point_fixture)
from bipot.grids import Grid

from oracles import ConjugatePair, subdiff_points


class TestElasticity:
    def test_closed_form_point_values(self):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=201)
        ca = elasticity_closed_form_ca(fix)
        i0, i1 = fix.xgrid.snap([0.0]), fix.ygrid.snap([1.0])
        assert ca.vals[i0, i1] == pytest.approx(0.125, abs=1e-15)
        band = np.abs(np.subtract.outer(fix.xgrid.axis(0),
                                        fix.ygrid.axis(0))) <= 0.5
        assert np.all(ca.vals[band] == 0.0)

    def test_closed_form_k2_eps0(self):
        fix = elasticity_fixture(k=2.0, eps=0.0, n=201)
        ca = elasticity_closed_form_ca(fix)
        ix, iy = fix.xgrid.snap([1.0]), fix.ygrid.snap([0.0])
        assert ca.vals[ix, iy] == pytest.approx(1.0, abs=1e-15)

    def test_sync_values_and_nonnegativity(self):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=201)
        c = elasticity_sync(fix)
        assert (c.vals >= 0).all()
        ix = fix.xgrid.snap([1.0])
        iy = fix.ygrid.snap([1.0])
        assert c.vals[ix, iy] == pytest.approx(0.0, abs=1e-15)
        assert c.vals[fix.xgrid.snap([0.0]), iy] == pytest.approx(0.5, abs=1e-15)
        assert check_sync(c).ok

    def test_graph_and_sync_admit_the_blurring(self):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=201)
        assert check_admits_blurring(elasticity_sync(fix), fix.spec).ok

    def test_oracle_match_invariant(self):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=401)
        ca = inf_convolve_blur(elasticity_sync(fix), fix.spec)
        oracle = elasticity_closed_form_ca(fix)
        h = max(fix.ygrid.h)
        band = int(np.ceil(fix.eps / h))
        inner = np.s_[:, band:-band]
        xs = fix.xgrid.axis(0)
        ys = fix.ygrid.axis(0)
        dev = np.abs(ys[None, band:-band] - fix.k * xs[:, None])
        allowance = 2 * h * (1.0 + dev.max())
        assert np.abs(ca.vals[inner] - oracle.vals[inner]).max() <= allowance

    def test_2d_variant(self):
        fix = elasticity_fixture(k=1.0, eps=0.5, n=21, dim=2)
        ca = inf_convolve_blur(elasticity_sync(fix), fix.spec)
        oracle = elasticity_closed_form_ca(fix)
        h = max(fix.ygrid.h)
        band = int(np.ceil(fix.eps / h))
        sl = (slice(None), slice(None),
              slice(band, 21 - band), slice(band, 21 - band))
        assert np.abs(ca.vals[sl] - oracle.vals[sl]).max() <= 2 * h * 5

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidInputError):
            elasticity_fixture(k=-1.0)
        with pytest.raises(InvalidInputError):
            elasticity_fixture(eps=1e-5)


class TestTwoPoint:
    def test_bare_graph_is_bbgraph(self, line_grid):
        M, _ = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.6,
                                 line_grid, line_grid)
        assert check_bbgraph(M).ok

    def test_blur_verdict_follows_threshold(self, line_grid):
        M6, s6 = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.6,
                                   line_grid, line_grid)
        assert not check_admits_blurring(M6, s6).ok
        M4, s4 = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.4,
                                   line_grid, line_grid)
        assert check_admits_blurring(M4, s4).ok

    def test_overlap_section_is_exactly_the_two_points(self, line_grid):
        from bipot.blur import minkowski_blur
        M, spec = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.6,
                                    line_grid, line_grid)
        MA, _ = minkowski_blur(M, spec)
        iy = line_grid.snap([0.5])
        sec = MA.y_section(iy)
        want = {line_grid.snap([0.0]), line_grid.snap([1.0])}
        assert set(np.flatnonzero(sec)) == want

    def test_coincident_rejected(self, line_grid):
        with pytest.raises(InvalidInputError):
            two_point_fixture(0.0, 0.0, 0.0, 1.0, 0.5, line_grid, line_grid)


class TestCone:
    def test_window_validation(self):
        g = Grid.box(-2.0, 2.0, 41)
        with pytest.raises(InvalidInputError) as err:
            ConeFixture(0.5, 1.0, 0.5, g, g)
        assert "window" in str(err.value)
        lo, hi = cone_fixture_params(n=41).window
        assert lo == pytest.approx(2 * 0.5 / np.sqrt(1.25))
        assert hi == pytest.approx(np.sqrt(1.25))
        assert lo < 1.0 < hi

    def test_support_function_vanishes_on_normal_rays(self):
        fix = cone_fixture_params(n=41)
        law = cone_fixture(fix)
        # n1 ~ (-alpha, 1): with alpha = 1/2 the index direction (-1, +2)
        # from the origin node lies exactly on the normal ray
        i0 = fix.xgrid.snap((0.0, 0.0))
        for m in (1, 3, 6, 9):
            idx = (i0[0] - m, i0[1] + 2 * m)
            assert law.phi.vals[idx] <= 1e-10, (m, law.phi.vals[idx])
            # mirror ray for the other boundary line
            idx2 = (i0[0] - m, i0[1] - 2 * m)
            assert law.phi.vals[idx2] <= 1e-10, (m, law.phi.vals[idx2])

    def test_ball_geometry(self):
        fix = cone_fixture_params(n=41)
        ys = np.array(fix.y_star)
        a = fix.alpha
        root = np.sqrt(1 + a * a)
        dist_h2 = abs(-ys[1] - a * ys[0]) / root
        assert dist_h2 < fix.eps          # ball meets the far boundary ray
        assert np.hypot(*ys) > fix.eps    # and excludes the origin

    def test_subdiff_union_is_two_rays(self):
        fix = cone_fixture_params(n=41)
        law = cone_fixture(fix)
        rep = check_newc(law.phi, fix.eps, law.y_star_index, ygrid=fix.ygrid)
        assert not rep.ok
        assert rep.axiom == "newc"
        # the witness is a node strictly between the rays, missing from U
        wi, wj = rep.witness
        x = fix.xgrid.coords((wi, wj))
        assert x[0] < 0.1  # rays point into the left half plane

    def test_proposition_both_sides_fail(self):
        fix = cone_fixture_params(n=41)
        law = cone_fixture(fix)
        rep1 = check_newc(law.phi, fix.eps, law.y_star_index, ygrid=fix.ygrid)
        M = blurred_graph(law.phi, fix.spec, None, fix.ygrid)
        rep2 = check_bbgraph(M)
        assert not rep1.ok and not rep2.ok

    def test_subdiff_on_boundary_ray_points_along_normal(self):
        fix = cone_fixture_params(n=41)
        law = cone_fixture(fix)
        pair = ConjugatePair(law.phi, law.phistar)
        iy = fix.ygrid.snap((1.0, 0.5))   # on h1
        pts = subdiff_points(pair, iy)
        a = fix.alpha
        for (i, j) in pts:
            x = fix.xgrid.coords((i, j))
            r = np.hypot(*x)
            if r > 0.3:
                # direction close to n1 = (-a, 1)/sqrt(1+a^2)
                d = np.array(x) / r
                n1 = np.array([-a, 1.0]) / np.sqrt(1 + a * a)
                assert d @ n1 > 0.95, x


def test_default_params_file():
    params = load_default_params()
    assert params["cone.alpha"] == 0.5
    assert params["elasticity.n"] == 401
    assert params["two_point.eps"] == 0.6
