"""Acceptance criteria, one test per criterion, at their stated scales.

Each test prints one `ACCEPTANCE <n> <name>: PASS` line (visible with
pytest -s / -rA); a failing criterion fails its test. Tolerances are fixed
here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest

from bipot.bipotentials import (check_bbgraph, check_bipotential,
                                check_cyclically_monotone, check_sync,
                                default_graph_tol, graphs_match_within,
                                separable, sync_from_bipotential)
from bipot.blur import (BlurSpec, blur_law, blurred_bipotential,
                        blurred_graph, check_admits_blurring, check_newc,
                        inf_convolve_blur, minkowski_blur)
from bipot.covers import (build_cover, check_maithm_equivalence,
                          infimum_bipotential, member_graph_union)
from bipot.fixtures import (cone_fixture, cone_fixture_params,
                            elasticity_closed_form_ca, elasticity_fixture,
                            elasticity_phi, elasticity_sync,
                            two_point_fixture)
from bipot.grids import Grid, SampledBivariate, SampledFunction, pairing
from bipot.legendre import conjugate
from bipot.sampling import random_convex_1d

from oracles import (biconjugate_residual, conjugate_bruteforce,
                     explicit_graph_union, explicit_infimum,
                     lower_hull_envelope, random_convex_2d_separable,
                     reparameterize)


def announce(num, name, ok=True):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")


GRID_401 = Grid.line(-2.0, 2.0, 401)
GRID_201 = Grid.line(-2.0, 2.0, 201)


@pytest.fixture(scope="module")
def corpus_201():
    mk = SampledFunction.from_callable
    return {
        "quad": mk(GRID_201, lambda x: 0.5 * x * x),
        "abs": mk(GRID_201, np.abs),
        "indicator": mk(GRID_201,
                        lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf)),
        "relu_sq": mk(GRID_201, lambda x: np.maximum(x, 0.0) ** 2),
    }


@pytest.fixture(scope="module")
def cone81():
    fix = cone_fixture_params(alpha=0.5, y1=1.0, eps=1.0, n=81)
    return fix, cone_fixture(fix)


def test_criterion_1_blurred_elasticity_oracle():
    fix = elasticity_fixture(k=1.0, eps=0.5, lo=-2.0, hi=2.0, n=401)
    h = max(fix.ygrid.h)
    t0 = time.perf_counter()
    c = elasticity_sync(fix)
    ca = inf_convolve_blur(c, fix.spec)
    oracle = elasticity_closed_form_ca(fix)
    band = int(np.ceil(fix.eps / h))
    inner = np.s_[:, band:-band]
    gap_ca = float(np.abs(ca.vals[inner] - oracle.vals[inner]).max())
    phi = elasticity_phi(fix)
    ba = blurred_bipotential(phi, fix.spec, fix.ygrid)
    P = pairing(fix.xgrid, fix.ygrid)
    gap_ba = float(np.abs(ba.vals[inner] - (P + oracle.vals)[inner]).max())
    elapsed = time.perf_counter() - t0
    assert gap_ca <= 2 * h, f"c_A oracle gap {gap_ca} > {2 * h}"
    assert gap_ba <= 2 * h, f"b_A oracle gap {gap_ba} > {2 * h}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    announce(1, f"blurred elasticity oracle (gaps {gap_ca:.2e}/{gap_ba:.2e}, "
                f"{elapsed:.2f}s)")


def test_criterion_2_two_point_threshold():
    M6, spec6 = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.6, GRID_201, GRID_201)
    rep6 = check_admits_blurring(M6, spec6)
    assert not rep6.ok, "eps=0.6 must fail"
    (tag, iy), _ = rep6.witness
    assert tag == "y"
    MA6, _ = minkowski_blur(M6, spec6)
    section = set(np.flatnonzero(MA6.y_section(iy)))
    want = {GRID_201.snap([0.0]), GRID_201.snap([1.0])}
    assert section == want, f"witness section {section} != x-nodes of 0 and 1"
    M4, spec4 = two_point_fixture(0.0, 0.0, 1.0, 1.0, 0.4, GRID_201, GRID_201)
    assert check_admits_blurring(M4, spec4).ok, "eps=0.4 must pass"
    announce(2, "two-point threshold (fail@0.6 with exact section, pass@0.4)")


def test_criterion_3_cone_proposition(cone81):
    fix, law = cone81
    rep_newc = check_newc(law.phi, fix.eps, law.y_star_index, ygrid=fix.ygrid)
    assert not rep_newc.ok, "condition (newc) must fail at y*"
    assert rep_newc.axiom == "newc"
    assert any("hull-interior" in n for n in rep_newc.notes), rep_newc.notes
    wi, wj = rep_newc.witness

    M = blurred_graph(law.phi, fix.spec, None, fix.ygrid)
    rep_bb = check_bbgraph(M)
    assert not rep_bb.ok, "the blurred graph must fail bi-convexity"

    rep_mai = check_maithm_equivalence(law.phi, fix.eps, ygrid=fix.ygrid,
                                       pair_cap=20_000, seed=1)
    assert rep_mai.ok, "the two sides of the equivalence must agree"
    assert "bipotential-verdict = fail" in rep_mai.notes
    assert "implicit-convexity-verdict = fail" in rep_mai.notes
    announce(3, f"cone fixture (newc witness ({wi},{wj}), bbgraph fail, "
                f"maithm agreement of two failing verdicts)")


def test_criterion_4_legendre_oracle_equivalence(corpus_201):
    rng = np.random.default_rng(20260808)
    ygrid = Grid.line(-3.0, 3.0, 301)
    for k in range(100):
        phi = random_convex_1d(GRID_401, rng, truncate=bool(k % 3 == 0))
        assert np.array_equal(conjugate(phi, ygrid).vals,
                              conjugate_bruteforce(phi, ygrid).vals), k
    g2 = Grid.box(-1.5, 1.5, 21)
    for k in range(20):
        phi = random_convex_2d_separable(g2, rng)
        assert np.array_equal(conjugate(phi, g2).vals,
                              conjugate_bruteforce(phi, g2).vals), k

    # Fenchel-Moreau on the convex corpus: residual <= h^2 * max curvature
    for name, phi in corpus_201.items():
        h = max(phi.grid.h)
        fin = np.isfinite(phi.vals)
        tri = fin[:-2] & fin[1:-1] & fin[2:]
        if tri.any():
            with np.errstate(invalid="ignore"):
                second = np.where(
                    tri, phi.vals[:-2] - 2 * phi.vals[1:-1] + phi.vals[2:],
                    0.0)[tri]
            curv = max(float(second.max()) / (h * h), 1.0)
        else:
            curv = 1.0
        res = biconjugate_residual(phi)
        assert res <= h * h * curv + 1e-12, (name, res, h * h * curv)

    g = Grid.line(-1.0, 3.0, 801)
    noncvx = SampledFunction.from_callable(
        g, lambda x: np.minimum(x * x, (x - 2.0) ** 2 + 0.5))
    res = biconjugate_residual(noncvx)
    env_gap = float((noncvx.vals - lower_hull_envelope(g.axis(0),
                                                       noncvx.vals)).max())
    assert res >= 0.5, res
    assert res == pytest.approx(env_gap, abs=5e-2)
    announce(4, f"legendre oracle equivalence (120 bit-exact samples, "
                f"nonconvex residual {res:.3f})")


def test_criterion_5_axiom_suites(corpus_201):
    for name, phi in corpus_201.items():
        b = separable(phi, GRID_201)
        rep_b = check_bipotential(b)
        assert rep_b.ok, (name, rep_b)
        rep_c = check_sync(sync_from_bipotential(b))
        assert rep_c.ok, (name, rep_c)

    # negative fixture 1: b == 0 violates the duality lower bound
    zero = SampledBivariate(GRID_201, GRID_201, np.zeros((201, 201)))
    rep = check_bipotential(zero)
    assert not rep.ok and rep.axiom == "duality-lower-bound"
    assert rep.witness is not None

    # negative fixture 2: shifted sync violates the zero-minimum axiom
    shifted = SampledBivariate.from_callable(
        GRID_201, GRID_201, lambda x, y: 0.5 * (x - y) ** 2 + 1.0)
    rep = check_sync(shifted)
    assert not rep.ok and rep.axiom == "attained-min-zero"
    assert rep.witness is not None

    # negative fixture 3: the cone blur fails slice convexity (axiom (a))
    fix = cone_fixture_params(n=41)
    law = cone_fixture(fix)
    bA = blurred_bipotential(law.phi, fix.spec, fix.ygrid)
    rep = check_bipotential(bA)
    assert not rep.ok and rep.axiom.startswith("slice-convex")
    assert rep.witness is not None
    announce(5, "axiom suites (4 positive laws, 3 named negative fixtures)")


def _blur_fixture_laws():
    laws = []
    for name, fix in (
            ("elasticity_k1", elasticity_fixture(1.0, 0.5, n=401)),
            ("elasticity_k2", elasticity_fixture(2.0, 0.3, n=401))):
        laws.append((name, elasticity_phi(fix), fix.spec, fix.ygrid))
    mk = SampledFunction.from_callable
    for name, fn in (("abs", np.abs),
                     ("indicator",
                      lambda x: np.where(np.abs(x) <= 1, 0.0, np.inf)),
                     ("relu_sq", lambda x: np.maximum(x, 0.0) ** 2)):
        laws.append((name, mk(GRID_201, fn), BlurSpec(0.5), GRID_201))
    return laws


def _assert_cA_independent(law, phi, spec, ygrid, name):
    """c_A against the min-filter of the separable sync, a route that
    shares no filter with b_A: same +inf pattern, values within 1e-9."""
    ref = inf_convolve_blur(sync_from_bipotential(separable(phi, ygrid)),
                            spec).vals
    assert np.array_equal(np.isposinf(law.cA.vals), np.isposinf(ref)), name
    fin = np.isfinite(ref)
    assert np.abs(law.cA.vals[fin] - ref[fin]).max() <= 1e-9, name


def _assert_infimum_is_blurred(phi, spec, ygrid, name):
    """The cover's member-by-member minimum (tests/oracles.py) against
    b_A: same +inf pattern, values within 1e-9; ``infimum_bipotential``
    is b_A bit for bit."""
    fam = build_cover(phi, spec.eps, ygrid)
    inf_b = explicit_infimum(fam.phi.vals, fam.phistar.vals, fam.offsets,
                             fam.xgrid, fam.ygrid)
    bA = blurred_bipotential(phi, spec, ygrid)
    fin = np.isfinite(inf_b)
    assert np.array_equal(fin, np.isfinite(bA.vals)), name
    assert np.abs(inf_b[fin] - bA.vals[fin]).max() <= 1e-9, name
    assert np.array_equal(infimum_bipotential(fam).vals, bA.vals), name


def test_criterion_6_shift_identity(cone81):
    for name, phi, spec, ygrid in _blur_fixture_laws():
        law = blur_law(phi, spec, ygrid)   # validates b_A - <x,y> == c_A @1e-9
        P = pairing(law.cA.xgrid, law.cA.ygrid)
        fin = np.isfinite(law.bA.vals)
        gap = np.abs((law.bA.vals - P)[fin] - law.cA.vals[fin]).max()
        assert gap <= 1e-9, (name, gap)
        _assert_cA_independent(law, phi, spec, ygrid, name)
        _assert_infimum_is_blurred(phi, spec, ygrid, name)

    # 2-D: the cone at two scales (the infimum route at desk scale)
    fix, law81 = cone81
    blaw = blur_law(law81.phi, fix.spec, fix.ygrid)
    del blaw
    small = cone_fixture_params(alpha=0.5, y1=1.0, eps=1.0, n=21)
    small_law = cone_fixture(small)
    _assert_cA_independent(blur_law(small_law.phi, small.spec, small.ygrid),
                           small_law.phi, small.spec, small.ygrid, "cone21")
    _assert_infimum_is_blurred(small_law.phi, small.spec, small.ygrid,
                               "cone21")
    announce(6, "shift identity at 1e-9 (5 1-D laws + 2-D cone; "
                "infimum == blurred on all desk-scale fixtures)")


def test_criterion_7_cover_properties(cone81):
    phi = SampledFunction.from_callable(GRID_201, lambda x: 0.5 * x * x)
    fam = build_cover(phi, 0.5, GRID_201)
    base = infimum_bipotential(fam).vals
    for seed in range(50):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(fam.offsets))
        vals = infimum_bipotential(reparameterize(fam, perm)).vals
        assert np.array_equal(vals, base), seed
    assert base.tobytes() == infimum_bipotential(fam).vals.tobytes()

    for name, phi, spec, ygrid in _blur_fixture_laws():
        fam = build_cover(phi, spec.eps, ygrid)
        union, mode = member_graph_union(fam)
        M = blurred_graph(phi, spec, None, ygrid)
        assert graphs_match_within(union, M, 1), (name, mode)

    small = cone_fixture_params(alpha=0.5, y1=1.0, eps=1.0, n=21)
    small_law = cone_fixture(small)
    fam = build_cover(small_law.phi, small.eps, small.ygrid)
    union, mode = member_graph_union(fam)
    assert np.array_equal(union.mask, explicit_graph_union(
        fam.phi.vals, fam.phistar.vals, fam.offsets, fam.xgrid, fam.ygrid,
        default_graph_tol(fam.xgrid, fam.ygrid)))
    M = blurred_graph(small_law.phi, small.spec, None, small.ygrid)
    assert graphs_match_within(union, M, 1)

    fix, law81 = cone81
    fam81 = build_cover(law81.phi, fix.eps, fix.ygrid)
    union81, mode81 = member_graph_union(fam81)
    M81 = blurred_graph(law81.phi, fix.spec, None, fix.ygrid)
    assert graphs_match_within(union81, M81, 1)
    announce(7, f"cover properties (50 byte-identical permutations; "
                f"graph union on all fixtures incl. cone [{mode81}])")


def test_criterion_8_cyclic_monotonicity():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    with pytest.warns(UserWarning):
        rep = check_cyclically_monotone(pts, 5)   # clamped to the point count
    assert rep.ok
    # unclamped exhaustion up to length 5 over a richer identity-graph set
    pts5 = [(t, t) for t in np.linspace(-1.0, 1.0, 5)]
    assert check_cyclically_monotone(pts5, 5).ok

    rep = check_cyclically_monotone([(0.0, 1.0), (1.0, 0.0)], 2)
    assert not rep.ok
    assert rep.residual == -1.0
    announce(8, "cyclic monotonicity (identity passes <=5, swap fails at -1)")


def test_criterion_9_determinism(run_cli, tmp_path):
    g = Grid.line(-2.0, 2.0, 101)
    SampledFunction.from_callable(g, lambda x: 0.5 * x * x).to_csv(
        tmp_path / "quad.csv")
    jobs = [
        ("maithm", ["check", "maithm", "--phi", "quad.csv", "--eps", "0.5",
                    "--seed", "11"]),
        ("implicit", ["check", "implicit", "--phi", "quad.csv", "--eps",
                      "0.5", "--y", "0.5", "--seed", "11"]),
        ("darboux", ["explore", "darboux", "--samples", "2", "--grid", "41",
                     "--seed", "11"]),
        ("elasticity", ["example", "elasticity", "--grid", "101",
                        "--out-dir", "el"]),
    ]
    for name, args in jobs:
        a = run_cli(args + ["--report", f"{name}_a.txt"], tmp_path)
        b = run_cli(args + ["--report", f"{name}_b.txt"], tmp_path)
        assert a.returncode == 0, f"{name}: {a.stderr}"
        assert b.returncode == 0, f"{name}: {b.stderr}"
        ba = (tmp_path / f"{name}_a.txt").read_bytes()
        bb = (tmp_path / f"{name}_b.txt").read_bytes()
        assert ba == bb, f"{name}: reports differ between identical runs"
    announce(9, "determinism (byte-identical reports across repeated runs)")
