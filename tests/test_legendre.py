import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipot.cli import main
from bipot.errors import InvalidInputError
from bipot.grids import Grid, SampledFunction
from bipot.legendre import conjugate, default_dual_grid
from bipot.convexity import is_convex
from bipot.sampling import random_convex_1d

from oracles import (ConjugatePair, biconjugate_residual, conjugate_bruteforce,
                     conjugate_pair, lower_hull_envelope,
                     random_convex_2d_separable, subdiff_points)


class TestConjugateClosedForms:
    def test_half_square_is_self_conjugate(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, lambda x: 0.5 * x * x)
        star = conjugate(phi, fine_grid)
        ys = fine_grid.axis(0)
        h = fine_grid.h[0]
        assert np.abs(star.vals - 0.5 * ys * ys).max() <= h * h

    def test_indicator_gives_support_function(self, fine_grid):
        phi = SampledFunction.from_callable(
            fine_grid, lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf))
        star = conjugate(phi, fine_grid)
        ys = fine_grid.axis(0)
        assert np.array_equal(star.vals, np.abs(ys))

    def test_elastic_pair_k2(self, fine_grid):
        k = 2.0
        phi = SampledFunction.from_callable(fine_grid, lambda x: 0.5 * k * x * x)
        star = conjugate(phi, fine_grid)
        ys = fine_grid.axis(0)
        h = fine_grid.h[0]
        assert np.abs(star.vals - ys * ys / (2 * k)).max() <= k * h * h

    def test_abs_gives_capped_indicator(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, np.abs)
        star = conjugate(phi, fine_grid)
        ys = fine_grid.axis(0)
        inside = np.abs(ys) <= 1.0
        assert np.all(star.vals[inside] == 0.0)
        assert np.all(star.vals[~inside] > 0.0)

    def test_single_point_domain_is_linear(self, fine_grid):
        vals = np.full(fine_grid.n[0], np.inf)
        vals[100] = 0.75
        phi = SampledFunction(fine_grid, vals)
        star = conjugate(phi, fine_grid)
        x0 = fine_grid.coords(100)
        ys = fine_grid.axis(0)
        assert np.array_equal(star.vals, x0 * ys - 0.75)

    def test_empty_domain_rejected(self, fine_grid):
        phi = SampledFunction(fine_grid, np.full(fine_grid.n[0], np.inf))
        with pytest.raises(InvalidInputError):
            conjugate(phi, fine_grid)

    def test_nan_cap_rejected(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, lambda x: 0.5 * x * x)
        with pytest.raises(InvalidInputError, match="cap must not be NaN"):
            conjugate(phi, fine_grid, cap=np.nan)

    def test_conjugate_output_is_convex(self, fine_grid):
        # conjugates are convex regardless of the input
        rng = np.random.default_rng(3)
        vals = rng.normal(size=fine_grid.n[0])
        star = conjugate(SampledFunction(fine_grid, vals), fine_grid)
        scale = 1e-9 * (1.0 + abs(star.finite_max))
        assert is_convex(star, scale).ok


class TestOracleEquivalence:
    def test_bit_exact_on_random_1d(self, fine_grid):
        rng = np.random.default_rng(20260808)
        ygrid = Grid.line(-3.0, 3.0, 301)
        for k in range(100):
            phi = random_convex_1d(fine_grid, rng, truncate=bool(k % 3 == 0))
            fast = conjugate(phi, ygrid)
            brute = conjugate_bruteforce(phi, ygrid)
            assert np.array_equal(fast.vals, brute.vals), f"sample {k}"

    def test_bit_exact_on_random_2d_separable(self):
        rng = np.random.default_rng(77)
        g = Grid.box(-1.5, 1.5, 21)
        for k in range(20):
            phi = random_convex_2d_separable(g, rng)
            fast = conjugate(phi, g)
            brute = conjugate_bruteforce(phi, g)
            assert np.array_equal(fast.vals, brute.vals), f"sample {k}"

    def test_bit_exact_on_corpus(self, convex_corpus, line_grid):
        for name, phi in convex_corpus.items():
            fast = conjugate(phi, line_grid)
            brute = conjugate_bruteforce(phi, line_grid)
            assert np.array_equal(fast.vals, brute.vals), name

    def test_bit_exact_nonconvex(self, fine_grid):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=fine_grid.n[0]) * 2.0
        phi = SampledFunction(fine_grid, vals)
        assert np.array_equal(conjugate(phi, fine_grid).vals,
                              conjugate_bruteforce(phi, fine_grid).vals)


class TestOrderAndMonotonicity:
    def test_order_reversal(self, line_grid):
        rng = np.random.default_rng(11)
        lo = random_convex_1d(line_grid, rng)
        hi = SampledFunction(line_grid, lo.vals + rng.uniform(0.0, 1.0,
                                                              line_grid.n[0]))
        slo = conjugate(lo, line_grid).vals
        shi = conjugate(hi, line_grid).vals
        assert np.all(shi <= slo + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e-4, 0.5), st.floats(1.0, 3.0))
    def test_subdiff_grows_with_tol(self, t1, factor):
        g = Grid.line(-2.0, 2.0, 201)
        phi = SampledFunction.from_callable(g, lambda x: 0.5 * x * x)
        pair = conjugate_pair(phi, g)
        small = subdiff_points(pair, 150, t1)
        large = subdiff_points(pair, 150, t1 * factor)
        assert small <= large


class TestSubdiff:
    def test_quadratic_identity_map(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, lambda x: 0.5 * x * x)
        pair = conjugate_pair(phi, fine_grid)
        h = fine_grid.h[0]
        iy = fine_grid.snap([1.0])
        got = subdiff_points(pair, iy, h)
        # the definitional set: residual (x - y)^2 / 2 <= h
        xs = fine_grid.axis(0)
        resid = pair.phi.vals + pair.phistar.vals[iy] - xs * 1.0
        want = set(np.flatnonzero(resid <= h))
        assert got == want
        assert iy in got

    def test_abs_value_ray(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, np.abs)
        pair = conjugate_pair(phi, fine_grid)
        h = fine_grid.h[0]
        iy = fine_grid.snap([1.0])
        got = subdiff_points(pair, iy, h)
        xs = fine_grid.axis(0)
        # all nodes with x >= -h qualify; x < -h do not
        assert got == set(np.flatnonzero(xs >= -h))

    def test_empty_when_phistar_infinite(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, np.abs)
        star_vals = np.where(np.abs(fine_grid.axis(0)) <= 1.0, 0.0, np.inf)
        pair = ConjugatePair(phi, SampledFunction(fine_grid, star_vals),
                             fy_tol=1.0)
        assert subdiff_points(pair, 0, 0.1) == set()

    def test_fy_violation_rejected(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        bad = SampledFunction(line_grid, np.full(line_grid.n[0], -10.0))
        with pytest.raises(InvalidInputError):
            ConjugatePair(phi, bad)


class TestBiconjugate:
    def test_convex_small_residual(self, fine_grid):
        phi = SampledFunction.from_callable(fine_grid, lambda x: 0.5 * x * x)
        res = biconjugate_residual(phi)
        hy = max(default_dual_grid(phi).h)
        assert res <= hy * hy

    def test_indicator_zero_at_interior(self, line_grid):
        phi = SampledFunction.from_callable(
            line_grid, lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf))
        star = conjugate(phi, line_grid)
        star2 = conjugate(star, line_grid)
        xs = line_grid.axis(0)
        interior = np.abs(xs) <= 1.0 - 2 * line_grid.h[0]
        assert np.abs(star2.vals[interior]).max() <= 1e-12

    def test_nonconvex_gap_matches_envelope_oracle(self):
        g = Grid.line(-1.0, 3.0, 801)
        phi = SampledFunction.from_callable(
            g, lambda x: np.minimum(x * x, (x - 2.0) ** 2 + 0.5))
        res = biconjugate_residual(phi)
        env = lower_hull_envelope(g.axis(0), phi.vals)
        oracle_gap = float((phi.vals - env).max())
        # common tangent of the two parabolas -> max gap 1.0 at x = 1.125
        assert oracle_gap == pytest.approx(1.0, abs=2e-2)
        assert res == pytest.approx(oracle_gap, abs=5e-2)
        assert res >= 0.5


def test_default_dual_grid_covers_slopes(fine_grid):
    phi = SampledFunction.from_callable(fine_grid, lambda x: 0.5 * x * x)
    g = default_dual_grid(phi)
    assert g.lo[0] < -2.0 < 2.0 < g.hi[0]
    assert g.n == fine_grid.n


def test_default_dual_grid_on_three_nodes(tmp_path, capsys):
    # a pad of one step per side left no step: ZeroDivisionError, exit 3
    phi = SampledFunction.from_callable(Grid.line(-1.0, 1.0, 3),
                                        lambda x: 0.5 * x * x)
    assert default_dual_grid(phi) == Grid.line(-0.5, 0.5, 3)
    phi.to_csv(tmp_path / "q.csv")
    code = main(["conjugate", "--input", str(tmp_path / "q.csv"),
                 "--out", str(tmp_path / "star.csv"),
                 "--report", str(tmp_path / "rep.txt")])
    assert code == 0, capsys.readouterr().err


def test_default_dual_grid_pads_only_axes_of_four_nodes_or_more():
    phi = SampledFunction.from_callable(
        Grid.box(-1.0, 1.0, (3, 21)), lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2))
    g = default_dual_grid(phi)
    assert g.n == (3, 21)
    assert (g.lo[0], g.hi[0]) == (-0.5, 0.5)
    # 21 nodes: one step of pad beyond the slopes -0.95 and 0.95
    assert g.lo[1] == pytest.approx(-0.95 - g.h[1])
    assert g.hi[1] == pytest.approx(0.95 + g.h[1])
