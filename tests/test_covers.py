import numpy as np
import pytest

from bipot import covers, windows
from bipot.bipotentials import (check_bipotential, default_graph_tol,
                                graphs_match_within)
from bipot.blur import BlurSpec, blurred_bipotential, blurred_graph
from bipot.covers import (CoverFamily, build_cover, check_implicitly_convex,
                          check_maithm_equivalence, infimum_bipotential,
                          member_graph_union)
from bipot.convexity import batch_is_convex
from bipot.errors import InvalidInputError, ResolutionError
from bipot.grids import Grid, SampledBivariate, SampledFunction
from bipot.fixtures import cone_fixture, cone_fixture_params
from bipot.sampling import random_convex_1d

from oracles import (adjacent_triples, cover_member, envelope_verdicts,
                     explicit_graph_union, explicit_infimum, pair_sample_whole,
                     reparameterize)


def member(fam, off):
    """The cover's member b_a for one offset (tests/oracles.py)."""
    return SampledBivariate(fam.xgrid, fam.ygrid, cover_member(
        fam.phi.vals, fam.phistar.vals, off, fam.xgrid, fam.ygrid))


def oracle_infimum(fam):
    """The cover's infimum member by member (tests/oracles.py)."""
    return explicit_infimum(fam.phi.vals, fam.phistar.vals, fam.offsets,
                            fam.xgrid, fam.ygrid)


@pytest.fixture(scope="module")
def quad_cover(line_grid):
    phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
    return phi, build_cover(phi, 0.5, line_grid)


class TestBuildCover:
    def test_zero_offset_member_is_separable(self, quad_cover, line_grid):
        from bipot.bipotentials import separable
        phi, fam = quad_cover
        assert 0 in fam.offsets
        m0 = member(fam, 0)
        sep = separable(phi, line_grid)
        assert np.abs(m0.vals - sep.vals).max() <= 1e-12

    def test_members_pass_bipotential_check(self, quad_cover):
        phi, fam = quad_cover
        for off in (min(fam.offsets), 0, max(fam.offsets)):
            assert check_bipotential(member(fam, off)).ok, off

    def test_member_graph_is_shifted_diagonal(self, quad_cover, line_grid):
        phi, fam = quad_cover
        from bipot.bipotentials import graph_of
        off = 10
        tol = default_graph_tol(line_grid, line_grid)
        g = graph_of(member(fam, off), tol)
        ij = np.argwhere(g.mask)
        assert np.abs(ij[:, 1] - ij[:, 0] - off).max() <= 1

    def test_values_at_equals_member_at_the_node(self):
        fix = cone_fixture_params(n=9)
        fam = build_cover(cone_fixture(fix).phi, fix.eps, fix.ygrid)
        left_box = 0
        for y in ((0, 0), (8, 8), (4, 1)):
            values = fam.values_at(y)
            for k, off in enumerate(fam.offsets):
                row = member(fam, off).vals[(slice(None), slice(None)) + y]
                assert np.array_equal(values[k], row), (y, off)
                left_box += not np.isfinite(values[k]).any()
        assert left_box > 0

    def test_sub_resolution_eps_rejected(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        for eps in (line_grid.h[0] / 3, 0.0):
            with pytest.raises(ResolutionError):
                build_cover(phi, eps, line_grid)


class TestInfimum:
    def test_single_member_family(self, quad_cover):
        phi, fam = quad_cover
        solo = reparameterize(fam, range(len(fam.offsets)))
        one = type(fam)(fam.phi, fam.phistar, (0,))
        assert np.array_equal(oracle_infimum(one),
                              member(fam, 0).vals)
        assert np.array_equal(oracle_infimum(solo),
                              oracle_infimum(fam))

    def test_equals_blurred_bipotential(self, quad_cover, line_grid):
        phi, fam = quad_cover
        inf_b = oracle_infimum(fam)
        bA = blurred_bipotential(phi, BlurSpec(0.5), line_grid)
        fin = np.isfinite(inf_b)
        assert np.array_equal(fin, np.isfinite(bA.vals))
        assert np.abs(inf_b[fin] - bA.vals[fin]).max() <= 1e-9
        assert np.array_equal(infimum_bipotential(fam).vals, bA.vals)

    def test_non_ball_family_refused(self, quad_cover):
        fam = quad_cover[1]
        for offsets in ((0, 3), (-1, 0, 2), tuple(fam.offsets[1:])):
            other = CoverFamily(fam.phi, fam.phistar, offsets)
            with pytest.raises(InvalidInputError, match="ball of offsets"):
                infimum_bipotential(other)
            with pytest.raises(InvalidInputError, match="ball of offsets"):
                member_graph_union(other)

    def test_permutation_invariance_seeded(self, quad_cover):
        phi, fam = quad_cover
        base = infimum_bipotential(fam).vals
        for seed in range(50):
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(fam.offsets))
            vals = infimum_bipotential(reparameterize(fam, perm)).vals
            assert np.array_equal(vals, base), seed

    def test_non_bijection_rejected(self, quad_cover):
        phi, fam = quad_cover
        with pytest.raises(InvalidInputError):
            reparameterize(fam, [0] * len(fam.offsets))


def oracle_union(fam, tol=None):
    """The cover's graph union member by member (tests/oracles.py)."""
    if tol is None:
        tol = default_graph_tol(fam.xgrid, fam.ygrid)
    return explicit_graph_union(fam.phi.vals, fam.phistar.vals, fam.offsets,
                                fam.xgrid, fam.ygrid, tol)


class TestGraphUnion:
    def test_union_matches_blurred_graph(self, quad_cover, line_grid):
        phi, fam = quad_cover
        union, mode = member_graph_union(fam)
        assert np.array_equal(union.mask, oracle_union(fam))
        M = blurred_graph(phi, BlurSpec(0.5), None, line_grid)
        assert graphs_match_within(union, M, 1)

    def test_shifted_mask_route_agrees(self, quad_cover):
        fam = quad_cover[1]
        tol = 0.01
        shifted, mode = member_graph_union(fam, tol)
        assert mode == "shifted-masks"
        assert np.array_equal(shifted.mask, oracle_union(fam, tol))

    def test_shifted_mask_route_is_exact(self, quad_cover):
        fix = cone_fixture_params(n=17)
        cone = build_cover(cone_fixture(fix).phi, fix.eps, fix.ygrid)
        for fam in (quad_cover[1], cone):
            shifted, mode = member_graph_union(fam)
            assert mode == "shifted-masks"
            assert np.array_equal(shifted.mask, oracle_union(fam))


class TestImplicitConvexity:
    def test_uniform_minorant_passes(self):
        z = np.linspace(-1, 1, 41)
        F = np.stack([z * z, z * z + 1.0])
        assert check_implicitly_convex(F).ok

    def test_lambda_independent_convex_passes(self):
        z = np.linspace(-1, 1, 41)
        F = np.stack([np.abs(z)] * 3)
        assert check_implicitly_convex(F).ok

    def test_nonconvex_envelope_fails(self):
        z = np.linspace(-1, 1, 41)
        F = np.stack([np.abs(z - 0.5), np.abs(z + 0.5)])
        rep = check_implicitly_convex(F)
        assert not rep.ok
        (l1, z1), (l2, z2), alpha = rep.witness
        assert alpha == 0.5
        assert F[:, z1[0]].argmin() == l1

    def test_alpha_validation(self):
        z = np.linspace(-1, 1, 11)
        F = np.stack([z * z])
        with pytest.raises(InvalidInputError):
            check_implicitly_convex(F, alphas=(0.25,))

    def test_quarter_alpha_alignment(self):
        z = np.linspace(-1, 1, 41)
        F = np.stack([z * z])
        rep = check_implicitly_convex(F, alphas=(0.5, 0.25))
        assert rep.ok

    def test_hole_in_domain_fails(self):
        z = np.linspace(-1, 1, 41)
        vals = z * z
        vals[20] = np.inf
        F = np.stack([vals])
        assert not check_implicitly_convex(F).ok

    def test_2d_family(self):
        g = Grid.box(-1.0, 1.0, 15)
        a0, a1 = g.meshgrid()
        F = np.stack([a0 ** 2 + a1 ** 2, a0 ** 2 + a1 ** 2 + 0.3])
        assert check_implicitly_convex(F).ok


class TestMaithmEquivalence:
    def test_quadratic_both_pass(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
        rep = check_maithm_equivalence(phi, 0.5, ygrid=line_grid)
        assert rep.ok
        assert "bipotential-verdict = pass" in rep.notes
        assert "implicit-convexity-verdict = pass" in rep.notes

    def test_abs_value_agrees(self, line_grid):
        phi = SampledFunction.from_callable(line_grid, np.abs)
        rep = check_maithm_equivalence(phi, 0.5, ygrid=line_grid)
        assert rep.ok

    def test_indicator_agrees(self, line_grid):
        phi = SampledFunction.from_callable(
            line_grid, lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf))
        rep = check_maithm_equivalence(phi, 0.5, ygrid=line_grid)
        assert rep.ok

    def test_random_convex_agree(self, line_grid):
        rng = np.random.default_rng(17)
        for k in range(5):
            phi = random_convex_1d(line_grid, rng, truncate=bool(k % 2))
            rep = check_maithm_equivalence(phi, 0.5, ygrid=line_grid)
            assert rep.ok, (k, rep.notes)

    def test_cone_both_fail_and_agree(self):
        fix = cone_fixture_params(n=41)
        law = cone_fixture(fix)
        rep = check_maithm_equivalence(law.phi, fix.eps, ygrid=fix.ygrid,
                                       pair_cap=20000, seed=1)
        assert rep.ok
        assert "bipotential-verdict = fail" in rep.notes
        assert "implicit-convexity-verdict = fail" in rep.notes


@pytest.mark.parametrize("seed", [-1, -2 ** 40])
def test_a_negative_seed_is_invalid_input(line_grid, seed):
    # numpy's default_rng raised ValueError, an internal error at the CLI
    phi = SampledFunction.from_callable(line_grid, lambda x: 0.5 * x * x)
    F = np.stack([line_grid.axis(0) ** 2])
    for call in (lambda: check_maithm_equivalence(phi, 0.5, seed=seed),
                 lambda: check_implicitly_convex(F, seed=seed)):
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            call()


def _envelope_stack(zshape, rng):
    """(B, *zshape) envelopes on integer nodes, exact in float64: convex
    quadratics (pass), the same with an interior band of +inf two nodes
    wide, or a quadratic convex along the rows, columns and diagonals but
    not along (1, -2) (both pass the +-1-step triples and fail only some
    wider pair), the quadratics with a bump (fail), one convex along all
    but the anti-diagonal (fails), noise with +inf entries, and all-+inf
    slices (pass)."""
    idx = np.indices(zshape).astype(np.float64)
    i, j = (idx[0], idx[0]) if len(zshape) == 1 else idx
    out = []
    for k in range(60):
        a, c = rng.integers(1, 4, size=2)
        g = a * (i - 2) ** 2 + c * (j - 3) ** 2 + rng.integers(-5, 5)
        kind = k % 6
        if kind == 1:
            g = g.copy()
            band = int(rng.integers(1, zshape[-1] - 3))
            g[..., band:band + 2] = np.inf
        elif kind == 2:
            g = 4.0 * i * i + 4.0 * i * j + 0.25 * j * j if len(zshape) == 2 \
                else np.where((i == 3) | (i == 4), np.inf, g)
        elif kind == 3:
            g = g.copy()
            g[tuple(rng.integers(1, n - 1) for n in zshape)] += 2.0
        elif kind == 4:
            g = rng.normal(size=zshape)
            g[rng.random(zshape) < 0.2] = np.inf
        elif kind == 5 and k % 4 == 1:
            g = np.full(zshape, np.inf)
        elif kind == 5 and len(zshape) == 2:
            g = i * i + 3.0 * i * j + j * j   # fails along (1, -1) only
        out.append(g)
    return np.stack(out)


class TestFlatMandatoryScan:
    def test_steps_give_the_adjacent_triples(self):
        for zshape in ((7,), (3, 3), (5, 8), (9, 4)):
            for a, b in zip(covers._mandatory_pairs(zshape),
                            adjacent_triples(zshape)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("zshape", [(13,), (7, 10), (10, 7)])
    def test_verdicts_equal_the_slice_loop(self, monkeypatch, zshape):
        # 60 slices in chunks of 1, of 7 (ragged) and whole; exhaustive
        # aligned pairs, and a sample of them; the line battery of
        # the same chunks is batch_is_convex's
        rng = np.random.default_rng(sum(zshape))
        stack = _envelope_stack(zshape, rng)
        grid = Grid(np.zeros(len(zshape)), np.subtract(zshape, 1), zshape)
        battery = batch_is_convex(stack, grid, 1e-9)
        empty = (np.zeros(0, dtype=np.int64),) * 3
        mandatory_only = envelope_verdicts(stack, empty, 1e-9)
        got = covers._slice_verdicts(stack, grid, empty, 1e-9)
        assert np.array_equal(got[0], battery)
        assert np.array_equal(got[1], mandatory_only)
        for cap in (10 ** 6, 97):
            z1, z2, mid, _ = covers._pair_sample(
                zshape, 0.5, cap, lambda: np.random.default_rng(3))
            want = envelope_verdicts(stack, (z1, z2, mid), 1e-9)
            # slices that pass every +-1-step triple but fail a wider pair
            if cap > 10 ** 5:
                assert (mandatory_only & ~want).sum() >= 10
            assert 0 < want.sum() < len(stack)
            for slices in (1, 7, len(stack)):
                monkeypatch.setattr(windows, "_TILE_BYTES",
                                    slices * stack[0].nbytes)
                got = covers._slice_verdicts(stack, grid, (z1, z2, mid), 1e-9)
                assert np.array_equal(got[0], battery), (cap, slices)
                assert np.array_equal(got[1], want), (cap, slices)


class TestPairSampleTiles:
    # (zshape, cap, a mode some alpha reaches): z-grids of at most 4
    # nodes list every aligned pair, also above a cap below their count
    CASES = [((13,), 10 ** 6, "exhaustive"), ((6, 5), 10 ** 6, "exhaustive"),
             ((4,), 3, "exhaustive"), ((1, 4), 3, "exhaustive"),
             ((3,), 1, "exhaustive"), ((13,), 60, "sampled"),
             ((6, 5), 300, "sampled")]

    @pytest.mark.parametrize("tile_bytes", [8, 100, windows._TILE_BYTES])
    @pytest.mark.parametrize("zshape, cap, mode", CASES)
    def test_tiles_list_the_whole_arrays_pairs(self, monkeypatch, tile_bytes,
                                               zshape, cap, mode):
        # one z1 node, a few, or all of them per tile
        monkeypatch.setattr(windows, "_TILE_BYTES", tile_bytes)
        modes = set()
        for alpha in (0.5, 1 / 3, 0.25):
            for seed in range(4):
                try:
                    want = pair_sample_whole(zshape, alpha, cap,
                                             np.random.default_rng(seed))
                except InvalidInputError as err:
                    with pytest.raises(InvalidInputError, match=str(err)):
                        covers._pair_sample(
                            zshape, alpha, cap,
                            lambda: np.random.default_rng(seed))
                    continue
                got = covers._pair_sample(zshape, alpha, cap,
                                          lambda: np.random.default_rng(seed))
                for a, b in zip(got[:3], want[:3]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert got[3] == want[3]
                modes.add(got[3].split()[0])
        assert f"mode={mode}" in modes

    @pytest.mark.parametrize("zshape", [(13,), (7, 10)])
    def test_one_slices_triples_split_over_tiles(self, monkeypatch, zshape):
        # tiles of 1, 3 and 8 triples, far fewer than one slice has
        rng = np.random.default_rng(sum(zshape) + 1)
        stack = _envelope_stack(zshape, rng)
        grid = Grid(np.zeros(len(zshape)), np.subtract(zshape, 1), zshape)
        z1, z2, mid, _ = covers._pair_sample(
            zshape, 0.5, 10 ** 6, lambda: np.random.default_rng(0))
        want = envelope_verdicts(stack, (z1, z2, mid), 1e-9)
        assert 0 < want.sum() < len(stack)
        for tile_bytes in (8, 24, 64):
            assert len(z1) * 8 > tile_bytes
            monkeypatch.setattr(windows, "_TILE_BYTES", tile_bytes)
            got = covers._slice_verdicts(stack, grid, (z1, z2, mid), 1e-9)
            assert np.array_equal(got[1], want), tile_bytes
