import subprocess
import sys

import numpy as np
import pytest

import bipot
from bipot import cli
from bipot.cli import main, report_schema_version
from bipot.grids import Grid, SampledBivariate, SampledFunction


@pytest.fixture()
def quad_csv(tmp_path):
    g = Grid.line(-2.0, 2.0, 101)
    p = tmp_path / "quad.csv"
    SampledFunction.from_callable(g, lambda x: 0.5 * x * x).to_csv(p)
    return p


def test_cli_child_imports_package_under_test(cli_env, tmp_path):
    """The CLI children run the `bipot` this suite imported, even from a
    scratch working directory where a relative PYTHONPATH resolves to
    nothing."""
    r = subprocess.run(
        [sys.executable, "-c", "import bipot; print(bipot.__file__)"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == bipot.__file__


def test_schema_version_constant():
    assert report_schema_version().count(".") == 2


def test_version_flag(run_cli, tmp_path):
    r = run_cli(["--version"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "report schema" in r.stdout


def test_conjugate_roundtrip(run_cli, tmp_path, quad_csv):
    r = run_cli(["conjugate", "--input", str(quad_csv),
                 "--out", "star.csv", "--report", "rep.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = (tmp_path / "rep.txt").read_text().splitlines()
    assert rep[0] == f"schema_version = {report_schema_version()}"
    assert "output_convex = pass" in rep
    star = SampledFunction.read_csv(tmp_path / "star.csv")
    ys = star.grid.axis(0)
    # inside the slope range the conjugate is y^2/2; the padded edge band
    # is boundary-dominated by construction
    core = np.abs(ys) <= 2.0
    assert np.abs(star.vals[core] - 0.5 * ys[core] ** 2).max() <= 0.01


def test_conjugate_missing_file_exits_2(run_cli, tmp_path):
    r = run_cli(["conjugate", "--input", "nope.csv"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "error" in r.stderr


def test_malformed_csv_exits_2_with_line(run_cli, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,value\n0.0,0.0\n0.1,huh\n0.2,0.0\n")
    r = run_cli(["check", "convex", "--input", str(p)], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "line 3" in r.stderr


def test_check_convex_pass_and_fail(run_cli, tmp_path, quad_csv):
    r = run_cli(["check", "convex", "--input", str(quad_csv)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    g = Grid.line(-1.0, 1.0, 51)
    bad = tmp_path / "cave.csv"
    SampledFunction.from_callable(g, lambda x: -x * x).to_csv(bad)
    r = run_cli(["check", "convex", "--input", str(bad)], tmp_path)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "witness" in r.stdout


def test_blur_and_check_pipeline(run_cli, tmp_path, quad_csv):
    r = run_cli(["blur", "--phi", str(quad_csv), "--eps", "0.5",
                 "--out-ca", "ca.csv", "--out-ba", "ba.csv",
                 "--out-graph", "mg.csv", "--report", "rep.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    ca = SampledBivariate.read_csv(tmp_path / "ca.csv")
    assert (ca.vals >= 0).all()
    r2 = run_cli(["check", "sync", "--input", "ca.csv"], tmp_path)
    assert r2.returncode == 0, r2.stdout + r2.stderr
    r3 = run_cli(["check", "bbgraph", "--graph", "mg.csv"], tmp_path)
    assert r3.returncode == 0, r3.stdout + r3.stderr


def test_blur_and_check_pipeline_2d(run_cli, tmp_path):
    g = Grid.box(-2.0, 2.0, 11)
    SampledFunction.from_callable(
        g, lambda a, b: 0.5 * (a * a + b * b)).to_csv(tmp_path / "phi2.csv")
    r = run_cli(["blur", "--phi", "phi2.csv", "--eps", "0.8",
                 "--out-ca", "ca.csv", "--out-ba", "ba.csv",
                 "--out-graph", "mg.csv"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    r2 = run_cli(["check", "bbgraph", "--graph", "mg.csv"], tmp_path)
    assert r2.returncode in (0, 1), r2.stdout + r2.stderr
    assert "axiom = bbgraph" in r2.stdout.splitlines(), r2.stdout + r2.stderr


def test_check_sync_gives_verdict_on_rounding_below_zero(run_cli, tmp_path):
    """The blurred 2-D elasticity sync has entries a few ulps below 0,
    inside check_sync's tolerance; the cross-check must not refuse them."""
    r = run_cli(["example", "elasticity", "--dim", "2", "--grid", "21",
                 "--out-dir", "."], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    r = run_cli(["blur", "--phi", "phi.csv", "--eps", "0.5"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    ca = SampledBivariate.read_csv(tmp_path / "ca.csv")
    assert (ca.vals < 0).any() and (ca.vals > -1e-12).all()
    r = run_cli(["check", "sync", "--input", "ca.csv"], tmp_path)
    assert r.returncode in (0, 1), r.stdout + r.stderr
    assert "axiom = " in r.stdout, r.stdout + r.stderr


@pytest.mark.parametrize("eps", ["1e308", "inf", "nan"])
def test_blur_rejects_unusable_eps(run_cli, tmp_path, quad_csv, eps):
    r = run_cli(["blur", "--phi", str(quad_csv), "--eps", eps,
                 "--out-ca", "ca.csv"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "bipot: error: radius" in r.stderr
    assert "Traceback" not in r.stderr


def test_blur_huge_eps_equals_box_width(run_cli, tmp_path):
    g = Grid.line(-1.0, 1.0, 3)
    SampledFunction.from_callable(g, lambda x: 0.5 * x * x).to_csv(
        tmp_path / "phi3.csv")
    for eps, out in (("1e300", "huge.csv"), ("2.0", "box.csv")):
        r = run_cli(["blur", "--phi", "phi3.csv", "--eps", eps,
                     "--out-ca", out], tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "huge.csv").read_bytes() == \
        (tmp_path / "box.csv").read_bytes()


@pytest.mark.parametrize("checker, flag, text", [
    ("convex", "--input", b"x,value\n0.0,0.0\n0.1,\xff\n0.2,0.0\n"),
    ("bbgraph", "--graph", b"# bipot-graph v1\n# xgrid lo=-1.0 hi=1.0 n=3\n"
     b"# ygrid lo=-1.0 hi=1.0 n=3\nx_index,y_index\n0,0\n1,\xff\n")],
    ids=["grid", "graph"])
def test_invalid_utf8_csv_exits_2(run_cli, tmp_path, checker, flag, text):
    (tmp_path / "bad.csv").write_bytes(text)
    r = run_cli(["check", checker, flag, "bad.csv"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "bad.csv: not valid UTF-8" in r.stderr
    assert "Traceback" not in r.stderr


def test_example_elasticity_report(run_cli, tmp_path):
    r = run_cli(["example", "elasticity", "--k", "1", "--eps", "0.5",
                 "--grid", "401", "--out-dir", "el",
                 "--report", "el/rep.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = (tmp_path / "el" / "rep.txt").read_text()
    assert "max_oracle_gap_interior" in rep
    gap = float([ln.split("=")[1] for ln in rep.splitlines()
                 if ln.startswith("max_oracle_gap_interior")][0])
    assert gap <= 0.02


def test_example_two_point_and_bbgraph_exit_codes(run_cli, tmp_path):
    r = run_cli(["example", "two-point", "--eps", "0.6",
                 "--out-dir", "tp"], tmp_path)
    # the 0.6 blur is not admitted: a failed check, not a crash
    assert r.returncode == 1, r.stdout + r.stderr
    assert "verdict = fail" in r.stdout.splitlines(), r.stdout + r.stderr
    r2 = run_cli(["check", "bbgraph", "--graph", "tp/twopoint_blurred.csv",
                  "--report", "bb.txt"], tmp_path)
    assert r2.returncode == 1, r2.stdout + r2.stderr
    rep = (tmp_path / "bb.txt").read_text()
    assert "witness" in rep
    r3 = run_cli(["example", "two-point", "--eps", "0.4",
                  "--out-dir", "tp4"], tmp_path)
    assert r3.returncode == 0, r3.stdout + r3.stderr


def test_check_cyclic(run_cli, tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x,y\n0.0,1.0\n1.0,0.0\n")
    r = run_cli(["check", "cyclic", "--points", str(p), "--n-max", "2",
                 "--report", "rep.txt"], tmp_path)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "residual = -1.0" in (tmp_path / "rep.txt").read_text()


@pytest.mark.parametrize("rows, message", [
    ("1,nan\n", "line 3: not an extended real: 'nan'"),
    ("inf,1\n", "line 3: coordinates must be finite"),
    ("1,-inf\n", "line 3: not an extended real: '-inf'"),
    ("1,2,3\n", "line 3: expected 2 fields, got 3"),
])
def test_check_cyclic_refuses_bad_points(run_cli, tmp_path, rows, message):
    # a NaN point made the cycle sums NaN, and the check passed
    (tmp_path / "pts.csv").write_text("x,y\n0.0,1.0\n" + rows)
    r = run_cli(["check", "cyclic", "--points", "pts.csv", "--n-max", "2"],
                tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert f"bipot: error: {message}" in r.stderr


def test_check_newc_cli(run_cli, tmp_path):
    g = Grid.line(-2.0, 2.0, 101)
    p = tmp_path / "phi.csv"
    SampledFunction.from_callable(g, lambda x: 0.5 * x * x).to_csv(p)
    r = run_cli(["check", "newc", "--phi", str(p), "--eps", "0.5",
                 "--y", "1.0"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_check_maithm_cli(run_cli, tmp_path, quad_csv):
    r = run_cli(["check", "maithm", "--phi", str(quad_csv), "--eps", "0.5",
                 "--report", "m.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "bipotential-verdict = pass" in (tmp_path / "m.txt").read_text()


def test_check_implicit_cli(run_cli, tmp_path, quad_csv):
    r = run_cli(["check", "implicit", "--phi", str(quad_csv), "--eps", "0.5",
                 "--y", "0.5"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_check_reports_print_plain_numbers(run_cli, tmp_path):
    """Node coordinates and witness indices print as Python numbers, so
    the report bytes do not depend on the numpy version's scalar repr."""
    line = Grid.line(-2.0, 2.0, 9)
    box = Grid.box(-2.0, 2.0, 9)
    SampledFunction.from_callable(line, lambda x: 0.5 * x * x).to_csv(
        tmp_path / "quad.csv")
    SampledFunction.from_callable(line, lambda x: -0.5 * x * x).to_csv(
        tmp_path / "cave.csv")
    SampledFunction.from_callable(box, lambda a, b: a * a + b * b).to_csv(
        tmp_path / "bowl.csv")
    runs = [(["newc", "--phi", "quad.csv", "--eps", "0.5", "--y", "1.0"], 0),
            (["newc", "--phi", "bowl.csv", "--eps", "0.5", "--y", "1.0,0.5"], 0),
            (["implicit", "--phi", "cave.csv", "--eps", "0.5", "--y", "-2.0"], 1)]
    reports = []
    for k, (args, code) in enumerate(runs):
        r = run_cli(["check", *args, "--report", f"r{k}.txt"], tmp_path)
        assert r.returncode == code, r.stdout + r.stderr
        reports.append((tmp_path / f"r{k}.txt").read_text().splitlines())
        assert [ln for ln in reports[-1] if "np." in ln] == [], args
    assert "note.0 = y = (1.0, 0.5)" in reports[1]
    assert "witness = ((0, (0,)), (0, (2,)), 0.5)" in reports[2]


def test_cover_build(run_cli, tmp_path, quad_csv):
    r = run_cli(["cover", "build", "--phi", str(quad_csv), "--eps", "0.5",
                 "--out-dir", "cov"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "cov" / "infimum_bipotential.csv").exists()
    assert (tmp_path / "cov" / "offsets.csv").exists()


def test_explore_darboux_runs(run_cli, tmp_path):
    r = run_cli(["explore", "darboux", "--samples", "3", "--grid", "41",
                 "--seed", "5", "--report", "d.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "violations = 0" in (tmp_path / "d.txt").read_text()


def test_report_determinism(run_cli, tmp_path, quad_csv):
    for name in ("a.txt", "b.txt"):
        r = run_cli(["check", "maithm", "--phi", str(quad_csv),
                     "--eps", "0.5", "--seed", "3", "--report", name],
                    tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_check_blurring_sync_form_cli(run_cli, tmp_path, quad_csv):
    r = run_cli(["blur", "--phi", str(quad_csv), "--eps", "0.5",
                 "--out-ca", "ca.csv", "--out-ba", "ba.csv",
                 "--out-graph", "mg.csv"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    g = Grid.line(-2.0, 2.0, 101)
    c = SampledBivariate.from_callable(g, g, lambda x, y: 0.5 * (x - y) ** 2)
    c.to_csv(tmp_path / "sync.csv")
    r2 = run_cli(["check", "blurring", "--sync", "sync.csv", "--eps", "0.5"],
                 tmp_path)
    assert r2.returncode == 0, r2.stdout + r2.stderr


def test_stale_golden_reports_detected(run_cli, tmp_path, quad_csv):
    """The golden-file harness: a report whose schema line disagrees with
    the current schema version must be detected as stale, never diffed."""
    r = run_cli(["check", "convex", "--input", str(quad_csv),
                 "--report", "fresh.txt"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    fresh = (tmp_path / "fresh.txt").read_text().splitlines()
    assert fresh[0] == f"schema_version = {report_schema_version()}"
    stale = ["schema_version = 0.0.1"] + fresh[1:]
    assert stale[0] != fresh[0]  # version mismatch marks the golden stale


def test_main_callable_in_process(tmp_path, quad_csv, capsys):
    code = main(["check", "convex", "--input", str(quad_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict = pass" in out


def test_crash_exits_3_with_traceback(tmp_path, quad_csv, capsys, monkeypatch):
    # an internal error is neither a failed check (1) nor bad input (2)
    def boom(cfg):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "run", boom)
    code = main(["check", "convex", "--input", str(quad_csv)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
