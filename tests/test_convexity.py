import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipot import convexity, windows
from bipot.bipotentials import check_bbgraph
from bipot.blur import blur_law
from bipot.convexity import (_set_scan, batch_is_convex, first_nonconvex,
                             is_convex, is_set_convex)
from bipot.errors import InvalidInputError
from bipot.fixtures import (cone_fixture, cone_fixture_params,
                            elasticity_fixture, elasticity_phi)
from bipot.grids import Grid, SampledFunction
from bipot.windows import ball_dilate

from oracles import (brute_midpoint_convex, brute_min_filter,
                     convex_1d_oracle, hull_margin_set_convex, min_filter,
                     monotone_chain, per_diagonal_is_convex,
                     random_piecewise_linear_1d)


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

    def test_huge_values_keep_their_sign(self):
        # -2b overflows to -inf on a triple of finite values; the triple
        # is then (a - b) + (c - b)
        g = Grid.line(-1.0, 1.0, 5)
        flat = SampledFunction(g, np.full(5, 1e308))
        assert is_convex(flat, 0.0).ok
        assert batch_is_convex(flat.vals[None], g, 0.0).tolist() == [True]
        cave = SampledFunction(g, np.array([-1e308, 1e308, -1e308, 0.0, 1e308]))
        rep = is_convex(cave, 0.0)
        assert (rep.axiom, rep.witness, rep.residual) == \
            ("second-difference", (1,), -np.inf)
        lean = SampledFunction(g, np.array([0.0, 0.9e308, 1.7e308, 1.7e308,
                                            1.7e308]))
        rep = is_convex(lean, 0.0)
        assert rep.witness == (1,)
        assert rep.residual == (0.0 - 0.9e308) + (1.7e308 - 0.9e308)
        tilt = SampledFunction(g, np.array([1.7e308, 1e308, 0.5e308, 0.5e308,
                                            0.5e308]))
        assert is_convex(tilt, 0.0).ok

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

    def test_huge_values_on_the_sheared_diagonals(self):
        # the sheared diagonals put +inf next to each huge end node
        g = Grid((-1.0, -1.0), (1.0, 1.0), (4, 6))
        assert is_convex(SampledFunction(g, np.full(g.shape, 1e308)), 0.0).ok
        vals = np.full(g.shape, 1e308)
        vals[1, 1] = -1e308
        rep = is_convex(SampledFunction(g, vals), 0.0)
        assert (rep.witness, rep.residual) == ((1, 2), -np.inf)

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


    @pytest.mark.parametrize("shape", [(17,), (5, 6)])
    def test_chunks_keep_every_verdict(self, monkeypatch, shape):
        # 59 slices: chunks of 1, and of 3 with a ragged last chunk
        rng = np.random.default_rng(7)
        g = Grid((-1.0,) * len(shape), (1.0,) * len(shape), shape)
        vals = self.corpus(shape, rng)[:59]
        whole = batch_is_convex(vals, g, 1e-9)
        first = int(np.flatnonzero(~whole)[0])
        assert first_nonconvex(vals, g, 1e-9) == first
        for slices in (1, 3):
            monkeypatch.setattr(windows, "_TILE_BYTES", slices * g.size * 8)
            assert np.array_equal(batch_is_convex(vals, g, 1e-9), whole)
            assert first_nonconvex(vals, g, 1e-9) == first
            assert first_nonconvex(vals[whole], g, 1e-9) is None
            assert first_nonconvex(vals[first:], g, 1e-9) == 0


    @staticmethod
    def oracle_corpus(rng):
        """300 stacks of 8 slices on grids of 3-11 nodes per axis: tilted
        quadratics (some concave along one diagonal only), some noisy,
        some with +inf holes, a half-plane or a disc as their domain."""
        for _ in range(300):
            g = Grid((-1.0, -1.0), (1.0, 1.0), tuple(rng.integers(3, 12, 2)))
            a, b = g.meshgrid()
            stack = []
            for k in range(8):
                p, q = rng.uniform(0.0, 2.0, 2)
                v = p * a * a + q * b * b + rng.uniform(-3, 3) * a * b + a
                if k % 3 == 0:
                    v += rng.normal(scale=10.0 ** rng.uniform(-6, -1),
                                    size=g.shape)
                if k % 4 == 0:
                    v[rng.random(g.shape) < 0.1] = np.inf
                elif k % 4 == 1:
                    v[a + rng.uniform(-1, 1) * b > rng.uniform(-1, 1)] = np.inf
                elif k % 4 == 2:
                    v[a * a + b * b > rng.uniform(0.2, 1.5)] = np.inf
                stack.append(v)
            yield g, np.stack(stack)

    def test_sheared_battery_matches_per_diagonal_oracle(self, monkeypatch):
        # every report equals the one-view-per-diagonal scan's, and the
        # verdicts hold at the default chunk and at chunks of 1 and 3
        seen = {"pass": 0, "domain-contiguous": 0, "second-difference": 0}
        diagonal = 0
        default = windows._TILE_BYTES
        for g, stack in self.oracle_corpus(np.random.default_rng(21)):
            want = [per_diagonal_is_convex(SampledFunction(g, v), 1e-9)
                    for v in stack]
            for v, rep in zip(stack, want):
                got = is_convex(SampledFunction(g, v), 1e-9)
                assert got.to_lines() == rep.to_lines()
                seen["pass" if rep.ok else rep.axiom] += 1
                diagonal += any("diag" in n for n in rep.notes)
            ok = [rep.ok for rep in want]
            first = ok.index(False) if False in ok else None
            for tile in (default, g.size * 8, 3 * g.size * 8):
                monkeypatch.setattr(windows, "_TILE_BYTES", tile)
                assert batch_is_convex(stack, g, 1e-9).tolist() == ok
                assert first_nonconvex(stack, g, 1e-9) == first
        assert min(seen.values()) > 100 and diagonal > 100

    @pytest.mark.parametrize("shape", [(9,), (5, 6), (7, 4)])
    def test_scattered_survivors_across_chunks(self, monkeypatch, shape):
        # noise fails the rows; every seventh slice is a bowl, and those
        # with |c| = 4 fail a diagonal only (a row in 1-D, where they are
        # concave), so each chunk scans its diagonals over the few slices
        # that pass its rows and columns; the stack is a transposed view,
        # as the y-slices of a product array are
        rng = np.random.default_rng(len(shape) + shape[0])
        g = Grid((-1.0,) * len(shape), (1.0,) * len(shape), shape)
        cs = (0.0, 4.0, -1.0, -4.0, 1.0, 4.0, 0.5)
        if len(shape) == 1:
            x = g.axis(0)
            bowls = [np.sign(2.0 - abs(c)) * x * x + c * x for c in cs]
        else:
            a, b = g.meshgrid()
            bowls = [a * a + b * b + c * a * b for c in cs]
        vals = rng.normal(size=(45,) + shape)
        vals[::7] = bowls
        stack = np.moveaxis(np.ascontiguousarray(np.moveaxis(vals, 0, -1)),
                            -1, 0)
        want = [is_convex(SampledFunction(g, v), 1e-9).ok for v in vals]
        assert 1 < sum(want) < len(cs)
        for slices in (2, 5):
            monkeypatch.setattr(windows, "_TILE_BYTES", slices * g.size * 8)
            assert batch_is_convex(stack, g, 1e-9).tolist() == want
            assert first_nonconvex(stack, g, 1e-9) == want.index(False)


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

    def test_gap_on_hull_edge_passes(self):
        # (0, 1) is missing but lies on the hull edge (0,0)-(0,2), at depth
        # 0: the hull-margin rule keeps the set, a row scan would not
        g = Grid.box(-1.0, 1.0, 5)
        rep = is_set_convex({(0, 0), (0, 2), (1, 0), (1, 1), (2, 0)}, g)
        assert rep.ok and rep.notes == ()


class TestSetScan:
    """The batched hull-margin scan against the one-set oracle, set by set:
    verdict, witness, residual bits and notes."""

    @staticmethod
    def check(masks, grid):
        got = list(_set_scan(masks, grid))
        assert [b for b, _ in got] == [b for b in range(len(masks))
                                       if masks[b].any()]
        for b, rep in got:
            want = hull_margin_set_convex(masks[b], grid.axes, grid.h)
            assert (rep.ok, rep.witness, rep.residual, rep.notes) == want, b
            assert is_set_convex(masks[b], grid) == rep
        return [rep for _, rep in got]

    @pytest.mark.parametrize("grid", [Grid.box(-1.0, 1.0, 13),
                                      Grid((-1.0, 0.5), (2.0, 1.5), (11, 17))])
    def test_random_and_rasterised_sets(self, grid):
        rng = np.random.default_rng(12)
        a0, a1 = grid.meshgrid()
        masks = [rng.random(grid.shape) < p for p in (0.02, 0.1, 0.5, 0.9)
                 for _ in range(10)]
        for _ in range(60):
            c0, c1 = rng.uniform(grid.lo, grid.hi)
            r = rng.uniform(0.0, 0.8 * max(np.subtract(grid.hi, grid.lo)))
            disc = (a0 - c0) ** 2 + (a1 - c1) ** 2 <= r * r
            masks.append(disc)
            if disc.sum() > 2:
                holed = disc.copy()
                holed.flat[rng.choice(np.flatnonzero(disc))] = False
                masks.append(holed)
        reps = self.check(np.array(masks), grid)
        assert {r.ok for r in reps} == {True, False}
        assert any(r.notes for r in reps if r.ok)

    def test_edge_cases(self):
        g = Grid.box(-1.0, 1.0, 5)
        masks = np.zeros((9, 5, 5), dtype=bool)
        masks[0, 2, 3] = True                        # one node
        masks[1, 3, 1:4] = True                      # one row
        masks[2, 3, [0, 4]] = True                   # one row with a gap
        masks[3][np.eye(5, dtype=bool)] = True       # a diagonal
        masks[4, [0, 0, 1, 1, 2], [0, 2, 0, 1, 0]] = True   # gap on a hull edge
        masks[5, :, 2] = True                        # one column
        masks[5, 2, 2] = False                       # ... with a gap
        masks[7, 1:4, 1:4] = True                    # a square ...
        masks[7, 2, 2] = False                       # ... missing its center
        masks[8] = True
        reps = self.check(masks, g)                  # masks[6] is empty
        assert [r.ok for r in reps] == [True] * 6 + [False, True]
        assert reps[5].notes == ("degenerate hull: no interior nodes",)

    def test_1d_stack(self):
        g = Grid.line(0.0, 1.0, 9)
        rng = np.random.default_rng(4)
        masks = rng.random((200, 9)) < 0.6
        reps = self.check(masks, g)
        assert {r.ok for r in reps} == {True, False}

    @staticmethod
    def shapes(grid, rng, count):
        """Digitized discs, ellipses, rotated boxes and diamonds at random
        centres, strips and one-node-wide lines; each plain, with a random
        member removed or with a random node added."""
        a0, a1 = grid.meshgrid()
        lo, hi = np.array(grid.lo), np.array(grid.hi)
        span = (hi - lo).max()
        out = []
        for k in range(count):
            c0, c1 = rng.uniform(lo, hi)
            r = rng.uniform(0.05, 0.6) * span
            th = rng.uniform(0.0, np.pi)
            u = (a0 - c0) * np.cos(th) + (a1 - c1) * np.sin(th)
            w = (a1 - c1) * np.cos(th) - (a0 - c0) * np.sin(th)
            aspect = rng.uniform(0.1, 1.0)
            m = [u * u + w * w <= r * r,
                 (u / r) ** 2 + (w / (aspect * r)) ** 2 <= 1.0,
                 (np.abs(u) <= r) & (np.abs(w) <= aspect * r),
                 np.abs(a0 - c0) + np.abs(a1 - c1) / aspect <= r,
                 np.abs(w) <= rng.uniform(0.0, 0.05) * span,
                 (a0 == grid.axis(0)[rng.integers(grid.n[0])])
                 | (a1 == grid.axis(1)[rng.integers(grid.n[1])])][k % 6]
            m = m.copy()
            if k % 3 == 1 and m.sum() > 1:
                m.flat[rng.choice(np.flatnonzero(m))] = False
            elif k % 3 == 2:
                m.flat[rng.integers(m.size)] = True
            if k % 12 == 10:          # a one-node-wide row
                m[:] = False
                m[rng.integers(grid.n[0]), :rng.integers(1, grid.n[1])] = True
            out.append(m)
        return np.array(out)

    @pytest.mark.parametrize("grid", [Grid.box(-1.0, 1.0, 21),
                                      Grid.box((-1.0, -2.0), (1.0, 3.0),
                                               (19, 31)),
                                      Grid.box((-1.0, -2.0), (1.0, 3.0),
                                               (27, 9))])
    def test_digitized_shapes(self, grid):
        # convex shapes pass the integer accept test or the hull, damaged
        # ones fail with the hull's witness; C-ordered and transposed-view
        # stacks (set index fastest in memory) give the same reports
        masks = self.shapes(grid, np.random.default_rng(grid.n[1]), 300)
        reps = self.check(masks, grid)
        view = np.ascontiguousarray(masks.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert self.check(view, grid) == reps
        assert {r.ok for r in reps} == {True, False}
        assert any(r.notes for r in reps if r.ok)   # degenerate hulls

    @pytest.mark.parametrize("grid", [Grid.box(0.0, 1e-200, 9),
                                      Grid.box(1e7, 1e7 + 1.0, 11),
                                      Grid.box(-1e150, 1e150, 9)])
    def test_extreme_grids_build_every_hull(self, monkeypatch, grid):
        # where float depths could stray (tiny steps, coordinates far from
        # 0 in steps, huge boxes), every set goes through the hull
        built = []
        hull = convexity._hull
        monkeypatch.setattr(convexity, "_hull",
                            lambda pts: built.append(1) or hull(pts))
        masks = self.shapes(grid, np.random.default_rng(9), 60)
        self.check(masks, grid)
        built.clear()
        list(_set_scan(masks, grid))
        assert len(built) == np.count_nonzero(masks.any(axis=(1, 2)))

    def test_convex_sections_build_no_hull(self, monkeypatch):
        # every section of elasticity's M + A passes without a hull; the
        # cone's first failing y-section keeps its report
        built = []
        hull = convexity._hull
        monkeypatch.setattr(convexity, "_hull",
                            lambda pts: built.append(1) or hull(pts))
        efix = elasticity_fixture(n=25, dim=2)
        elaw = blur_law(elasticity_phi(efix), efix.spec, efix.ygrid)
        assert check_bbgraph(elaw.MplusA).ok
        assert built == []
        fix = cone_fixture_params(n=25)
        law = blur_law(cone_fixture(fix).phi, fix.spec, fix.ygrid)
        assert check_bbgraph(law.MplusA).to_lines() == [
            "verdict = fail", "axiom = y-section-convex",
            "witness = (('y', (6, 6)), (1, 1))",
            "residual = 0.08333333333333341",
            "note.0 = missing hull-interior node"]


def test_near_envelope_matches_every_chord():
    # a point lies less than 1 above the lower convex envelope iff it lies
    # less than 1 above every chord over it; 400 runs of 2-12 live points
    # decided in one call, half of them near-convex
    rng = np.random.default_rng(8)
    v = rng.integers(-3, 4, size=(400, 12))
    v[::2] = v[::2] // 3 + (np.arange(12) - rng.integers(12, size=(200, 1))) ** 2 // 4
    live = np.zeros(v.shape, dtype=bool)
    want = []
    for s in range(len(v)):
        a = int(rng.integers(0, 11))
        live[s, a:int(rng.integers(a + 2, 13))] = True
        pts = np.flatnonzero(live[s])
        want.append(all(
            (v[s, i] - v[s, p]) * (q - p) - (v[s, q] - v[s, p]) * (i - p) < q - p
            for p in pts for q in pts for i in pts if p < i < q))
    assert 50 < sum(want) < 350
    assert convexity._near_envelope(v, live).tolist() == want


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
