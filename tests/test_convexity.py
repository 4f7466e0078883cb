import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipot.convexity import (batch_is_convex, is_convex, is_set_convex,
                             min_filter, monotone_chain)
from bipot.errors import InvalidInputError
from bipot.grids import Grid, SampledFunction
from bipot.sampling import random_piecewise_linear_1d
from bipot.windows import ball_dilate

from oracles import brute_midpoint_convex, brute_min_filter, convex_1d_oracle


class TestIsConvex1D:
    def test_quadratic_passes(self):
        g = Grid.line(-2.0, 2.0, 101)
        f = SampledFunction.from_callable(g, lambda x: x * x)
        assert is_convex(f, 1e-12).ok

    def test_concave_fails_with_witness(self):
        g = Grid.line(-2.0, 2.0, 101)
        f = SampledFunction.from_callable(g, lambda x: -x * x)
        rep = is_convex(f, 1e-12)
        h = g.h[0]
        assert not rep.ok
        assert rep.axiom == "second-difference"
        assert rep.residual == pytest.approx(-2 * h * h, rel=1e-6)
        # first interior triple in scan order
        assert rep.witness == (1,)

    def test_indicator_passes(self):
        g = Grid.line(-2.0, 2.0, 101)
        f = SampledFunction.from_callable(
            g, lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf))
        assert is_convex(f, 1e-12).ok

    def test_domain_hole_fails(self):
        g = Grid.line(-2.0, 2.0, 11)
        vals = np.zeros(11)
        vals[5] = np.inf
        rep = is_convex(SampledFunction(g, vals), 1e-12)
        assert not rep.ok and rep.axiom == "domain-contiguous"
        assert rep.witness == (5,)

    def test_all_inf_vacuous(self):
        g = Grid.line(0.0, 1.0, 5)
        assert is_convex(SampledFunction(g, np.full(5, np.inf)), 0.0).ok

    def test_rejects_negative_tol(self):
        g = Grid.line(0.0, 1.0, 5)
        f = SampledFunction.from_callable(g, lambda x: x)
        with pytest.raises(InvalidInputError):
            is_convex(f, -1.0)

    def test_agrees_with_hull_oracle_on_random_samples(self):
        g = Grid.line(-2.0, 2.0, 57)
        xs = g.axis(0)
        rng = np.random.default_rng(1234)
        tol = 1e-9
        agree = 0
        for k in range(200):
            f = random_piecewise_linear_1d(g, rng, convex=bool(k % 2))
            want = convex_1d_oracle(xs, f.vals, tol)
            got = is_convex(f, tol).ok
            assert got == want
            agree += 1
        assert agree == 200


class TestIsConvex2D:
    def test_paraboloid_passes(self):
        g = Grid.box(-1.0, 1.0, 21)
        f = SampledFunction.from_callable(g, lambda a, b: a * a + b * b)
        assert is_convex(f, 1e-12).ok

    def test_saddle_fails(self):
        g = Grid.box(-1.0, 1.0, 21)
        f = SampledFunction.from_callable(g, lambda a, b: a * a - b * b)
        rep = is_convex(f, 1e-12)
        assert not rep.ok

    def test_diagonal_only_violation_is_caught(self):
        # convex along rows and columns, concave along the main diagonal
        g = Grid.box(-1.0, 1.0, 21)
        f = SampledFunction.from_callable(g, lambda a, b: -3 * a * b)
        rep = is_convex(f, 1e-12)
        assert not rep.ok
        assert "diag" in rep.notes[0]

    def test_battery_agrees_with_exhaustive_midpoint_oracle(self):
        # the line battery is a necessary set of conditions; on the smooth
        # and polyhedral fixtures this package targets it coincides with
        # the exhaustive aligned-midpoint oracle
        g = Grid.box(-1.0, 1.0, 13)
        tol = 1e-9
        rng = np.random.default_rng(99)
        part1 = np.sort(rng.uniform(-2, 2, 12))
        conv1 = np.concatenate([[0], np.cumsum(part1 * g.h[0])])
        fixtures = [
            ("paraboloid", lambda a, b: a * a + 0.5 * b * b),
            ("tilted", lambda a, b: a * a + b * b + a * b),
            ("l1-norm", lambda a, b: np.abs(a) + np.abs(b)),
            ("max-norm", lambda a, b: np.maximum(np.abs(a), np.abs(b))),
            ("saddle", lambda a, b: a * a - b * b),
            ("product", lambda a, b: -3 * a * b),
            ("separable-random", lambda a, b:
                conv1[np.clip(((a + 1) / g.h[0]).round().astype(int), 0, 12)]
                + conv1[np.clip(((b + 1) / g.h[1]).round().astype(int), 0, 12)]),
            ("indicator-disc", lambda a, b:
                np.where(a * a + b * b <= 0.7, 0.0, np.inf)),
        ]
        for name, fn in fixtures:
            f = SampledFunction.from_callable(g, fn)
            got = is_convex(f, tol).ok
            want = brute_midpoint_convex(f.vals, tol)
            assert got == want, name


class TestBatchIsConvex:
    @staticmethod
    def corpus(shape, rng, count=60):
        """Bowls x^2 + y^2 + c xy (convex on every row and column; for
        |c| = 4 not on a diagonal of any shape here), noise and +inf holes."""
        if len(shape) == 1:
            x = np.linspace(-1.0, 1.0, shape[0])
            base = [x * x, np.abs(x), -x * x, 0.0 * x]
        else:
            a, b = np.meshgrid(np.linspace(-1.0, 1.0, shape[0]),
                               np.linspace(-1.0, 1.0, shape[1]), indexing="ij")
            base = [a * a + b * b + c * a * b for c in (-4.0, -1.0, 0.0, 4.0)]
        out = []
        for k in range(count):
            v = base[k % len(base)] + rng.uniform(-1e-6, 1e-6, shape) * (k % 3)
            if k % 5 == 1:
                v[rng.random(shape) < 0.2] = np.inf
            elif k % 5 == 2:
                v[tuple(slice(1, -1) for _ in shape)] = np.inf
            elif k % 5 == 3:
                v[..., :1] = np.inf
            out.append(v)
        return np.stack(out)

    @pytest.mark.parametrize("shape", [(3,), (4,), (17,), (3, 3), (3, 7),
                                       (7, 3), (5, 6), (8, 8)])
    def test_verdicts_match_is_convex(self, shape):
        rng = np.random.default_rng(sum(shape))
        g = Grid((-1.0,) * len(shape), (1.0,) * len(shape), shape)
        vals = self.corpus(shape, rng)
        diagonal_only = 0
        for tol in (0.0, 1e-9):
            got = batch_is_convex(vals, g, tol)
            reps = [is_convex(SampledFunction(g, v), tol) for v in vals]
            assert got.tolist() == [r.ok for r in reps]
            # the failing slices alone: the scan runs out of open slices
            assert not batch_is_convex(vals[~got], g, tol).any()
            diagonal_only += sum("diag" in n for r in reps for n in r.notes)
        assert 0 < got.sum() < len(vals)
        if len(shape) == 2:
            assert diagonal_only > 0


class TestIsSetConvex:
    def test_1d_gap_fails(self):
        g = Grid.line(0.0, 1.0, 11)
        rep = is_set_convex({0, 1}, g)
        assert rep.ok
        rep = is_set_convex({0, 10}, g)
        assert not rep.ok

    def test_empty_rejected(self):
        g = Grid.line(0.0, 1.0, 11)
        with pytest.raises(InvalidInputError):
            is_set_convex(set(), g)

    def test_disc_passes(self):
        g = Grid.box(-1.0, 1.0, 41)
        a0, a1 = g.meshgrid()
        mask = a0 ** 2 + a1 ** 2 <= 0.5 ** 2
        assert is_set_convex(mask, g).ok

    def test_disc_with_hole_fails(self):
        g = Grid.box(-1.0, 1.0, 41)
        a0, a1 = g.meshgrid()
        mask = (a0 ** 2 + a1 ** 2 <= 0.5 ** 2) & (a0 ** 2 + a1 ** 2 > 0.01)
        rep = is_set_convex(mask, g)
        assert not rep.ok
        wi, wj = rep.witness
        assert not mask[wi, wj]

    def test_collinear_degenerate_passes(self):
        g = Grid.box(-1.0, 1.0, 11)
        mask = np.zeros((11, 11), dtype=bool)
        mask[3, 2] = mask[3, 8] = True
        rep = is_set_convex(mask, g)
        assert rep.ok and any("degenerate" in n for n in rep.notes)


class TestMinFilter:
    def test_zero_radius_identity(self):
        g = Grid.line(-2.0, 2.0, 41)
        f = SampledFunction.from_callable(g, np.abs)
        assert np.array_equal(min_filter(f, 0.0).vals, f.vals)

    def test_absolute_value_shrinks(self):
        g = Grid.line(-2.0, 2.0, 161)
        f = SampledFunction.from_callable(g, np.abs)
        got = min_filter(f, 0.5)
        xs = g.axis(0)
        want = brute_min_filter(xs, f.vals, 0.5)
        assert np.array_equal(got.vals, want)
        closed = np.maximum(np.abs(xs) - 0.5, 0.0)
        assert np.abs(got.vals - closed).max() <= g.h[0]

    def test_single_point_spread(self):
        g = Grid.line(-2.0, 2.0, 41)
        vals = np.full(41, np.inf)
        vals[20] = 0.0
        got = min_filter(SampledFunction(g, vals), 1.0)
        xs = g.axis(0)
        inside = np.abs(xs) <= 1.0 + 1e-12
        assert np.all(got.vals[inside] == 0.0)
        assert np.all(np.isinf(got.vals[~inside]))

    def test_2d_disc_window_matches_bruteforce(self):
        # h = (0.125, 1/9). 0.37 lies off the node lattice; 0.5 = 4 * h[0]
        # is node-aligned; 0.77 has chord half-widths 1, 4, 5, 6, so the
        # line buffer grows by more than twice its width in one step; 3.0
        # is beyond the box's diameter.
        g = Grid.box(-1.0, 1.0, (17, 19))
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(17, 19))
        vals[rng.random((17, 19)) < 0.15] = np.inf
        mask = rng.random((17, 19)) < 0.04
        f = SampledFunction(g, vals)
        a0, a1 = g.meshgrid()
        pts = np.stack([a0.ravel(), a1.ravel()], axis=1)
        flat = f.vals.ravel()
        for eps in (0.37, 0.5, 0.77, 3.0):
            got = min_filter(f, eps)
            dilated = ball_dilate(mask, g, eps)
            want = np.empty(len(pts))
            want_dilated = np.empty(len(pts), dtype=bool)
            for i, p in enumerate(pts):
                win = np.linalg.norm(pts - p, axis=1) <= eps * (1 + 1e-9)
                want[i] = flat[win].min()
                want_dilated[i] = mask.ravel()[win].any()
            assert np.array_equal(got.vals.ravel(), want), eps
            assert np.array_equal(dilated.ravel(), want_dilated), eps

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 30), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_and_composition(self, seed, r1, r2):
        g = Grid.line(-1.0, 1.0, 41)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=41)
        b = a + rng.uniform(0.0, 1.0, size=41)
        fa, fb = SampledFunction(g, a), SampledFunction(g, b)
        # monotone: a <= b pointwise implies filtered a <= filtered b
        assert np.all(min_filter(fa, r1).vals <= min_filter(fb, r1).vals)
        # window composition is sub-additive on grids
        two_step = min_filter(min_filter(fa, r1), r2).vals
        one_step = min_filter(fa, r1 + r2).vals
        assert np.all(two_step >= one_step)


def test_monotone_chain_square():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.9]])
    hull = monotone_chain(pts)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == {(0, 0), (1, 0), (1, 1), (0, 1)}
