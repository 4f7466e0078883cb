import argparse
import subprocess
import sys

import numpy as np
import pytest

import bipot
from bipot import cli
from bipot.blur import BlurSpec, blurred_bipotential, check_newc
from bipot.cli import main, report_schema_version
from bipot.covers import build_cover
from bipot.fixtures import (cone_fixture, cone_fixture_params,
                            elasticity_fixture, elasticity_sync)
from bipot.grids import Grid, SampledBivariate, SampledFunction

from oracles import explicit_infimum, random_piecewise_linear_1d


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


def _child(cli_env, tmp_path, code, **extra):
    """Run CODE in a fresh interpreter with the suite's environment, less
    OPENBLAS_NUM_THREADS, plus EXTRA; returns its stdout."""
    env = {k: v for k, v in cli_env.items() if k != "OPENBLAS_NUM_THREADS"}
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                       env={**env, **extra}, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


def test_import_bipot_loads_no_numpy(cli_env, tmp_path):
    code = "import sys, bipot; print('numpy' in sys.modules)"
    assert _child(cli_env, tmp_path, code) == ["False"]


def test_public_names_resolve():
    for name in bipot.__all__:
        assert getattr(bipot, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'ConjugatePair'"):
        bipot.ConjugatePair


# prints OPENBLAS_NUM_THREADS as numpy starts to load, then after the import
_SPY = """
import os, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import bipot.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("user, expected", [(None, "1"), ("4", "4")])
def test_cli_pins_openblas_unless_set(cli_env, tmp_path, user, expected):
    extra = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
    assert _child(cli_env, tmp_path, _SPY, **extra) == [expected, expected]


def test_schema_version_constant():
    assert report_schema_version().count(".") == 2


def test_version_flag(run_cli, tmp_path):
    r = run_cli(["--version"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "report schema" in r.stdout


# every (sub)command's option strings, -h/--help aside; a new or removed
# option shows up here as a diff
OPTIONS = {
    "": "--version",
    "conjugate": "--cap --input --out --report --ybox --yn",
    "blur": "--eps --out-ba --out-ca --out-graph --phi --report --tol --ybox "
            "--yn",
    "check": "",
    "check convex": "--input --report --tol",
    "check bbgraph": "--graph --report",
    "check sync": "--input --report --tol",
    "check bipotential": "--input --report --tol",
    "check newc": "--eps --phi --report --tol --y --ybox --yn",
    "check blurring": "--eps --graph --report --sync --tol",
    "check implicit": "--alphas --cap --eps --phi --report --seed --tol --y "
                      "--ybox --yn",
    "check maithm": "--cap --eps --phi --report --seed --tol --ybox --yn",
    "check cyclic": "--n-max --points --report --tol",
    "cover": "",
    "cover build": "--eps --out-dir --phi --report --ybox --yn",
    "example": "",
    "example elasticity": "--box --dim --eps --grid --k --out-dir --report",
    "example two-point": "--box --eps --grid --out-dir --report --x1 --x2 "
                         "--y1 --y2",
    "example cone": "--alpha --box --eps --grid --out-dir --report --y1",
    "explore": "",
    "explore darboux": "--eps --grid --report --samples --seed",
}


def _option_table(parser, path=()):
    table = {" ".join(path): " ".join(sorted(
        o for a in parser._actions for o in a.option_strings
        if o not in ("-h", "--help")))}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                table.update(_option_table(sub, path + (name,)))
    return table


def test_option_surface(tmp_path, quad_csv, capsys):
    assert _option_table(cli.build_parser()) == OPTIONS
    # A has one shape, so there is no --kind or --p; and no option is
    # read as the prefix of another (--p as --phi)
    for args in (["blur", "--phi", str(quad_csv), "--eps", "0.5"],
                 ["check", "blurring", "--sync", "c.csv", "--eps", "0.5"]):
        for extra in (["--kind", "yball"], ["--p", "2.0"]):
            with pytest.raises(SystemExit) as exc:
                main(args + extra + ["--report", str(tmp_path / "r.txt")])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {extra[0]}" in \
                capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("args", [
    ["conjugate", "--input"], ["blur", "--eps", "0.5", "--phi"],
    ["check", "newc", "--eps", "0.5", "--y", "0", "--phi"],
    ["check", "implicit", "--eps", "0.5", "--y", "0", "--phi"],
    ["check", "maithm", "--eps", "0.5", "--phi"],
    ["cover", "build", "--eps", "0.5", "--out-dir", ".", "--phi"]],
    ids=["conjugate", "blur", "newc", "implicit", "maithm", "cover"])
def test_yn_without_ybox_is_refused(tmp_path, quad_csv, capsys, monkeypatch,
                                    args):
    # --yn alone was accepted and ignored: the y-grid kept phi's nodes
    monkeypatch.chdir(tmp_path)
    code = main(args + [str(quad_csv), "--yn", "51"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "give --ybox" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quad.csv"]


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


@pytest.mark.parametrize("command", [
    ["check", "bipotential"],
    ["conjugate", "--out", "star.csv"],
])
def test_input_piped_through_dev_stdin(run_cli, cli_env, tmp_path, command):
    # the grid readers read a pipe front to back and never seek
    g = Grid.line(-2.0, 2.0, 41)
    if command[0] == "check":
        src = SampledBivariate.from_callable(
            g, g, lambda x, y: 0.5 * (x * x + y * y))
    else:
        src = SampledFunction.from_callable(g, lambda x: 0.5 * x * x)
    src.to_csv(tmp_path / "in.csv")
    text = (tmp_path / "in.csv").read_text()
    (tmp_path / "path").mkdir()
    (tmp_path / "pipe").mkdir()
    args = [*command, "--report", "rep.txt", "--input"]
    r = run_cli([*args, str(tmp_path / "in.csv")], tmp_path / "path")
    assert r.returncode == 0, r.stdout + r.stderr
    r = subprocess.run([sys.executable, "-m", "bipot.cli", *args, "/dev/stdin"],
                       cwd=tmp_path / "pipe", env=cli_env, input=text,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stdout + r.stderr
    for name in ["rep.txt"] + (["star.csv"] if "--out" in command else []):
        got = (tmp_path / "pipe" / name).read_text()
        want = (tmp_path / "path" / name).read_text()
        assert got == want.replace(f"input = {tmp_path / 'in.csv'}\n",
                                   "input = /dev/stdin\n")
    assert "input = /dev/stdin\n" in (tmp_path / "pipe" / "rep.txt").read_text()


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


def test_check_convex_passes_a_huge_constant(run_cli, tmp_path):
    # -2 * 1e308 overflows; the battery must not call the constant concave
    p = tmp_path / "big.csv"
    p.write_text("x,value\n" + "".join(f"{x},1e308\n"
                                       for x in (-1, -0.5, 0, 0.5, 1)))
    r = run_cli(["check", "convex", "--input", str(p)], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "verdict = pass" in r.stdout.splitlines()


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


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_blur_rejects_unusable_tol(run_cli, tmp_path, quad_csv, tol):
    r = run_cli(["blur", "--phi", str(quad_csv), "--eps", "0.5",
                 f"--tol={tol}"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "bipot: error: tol must be >= 0" in r.stderr
    assert "Traceback" not in r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quad.csv"]


@pytest.fixture()
def tol_inputs(tmp_path):
    """Inputs of each checker that takes --tol; the first three fail
    their check at the default tolerance."""
    g = Grid.line(-2.0, 2.0, 41)
    SampledBivariate(g, g, np.zeros((41, 41))).to_csv(tmp_path / "zero.csv")
    SampledFunction.from_callable(g, lambda x: -x * x).to_csv(
        tmp_path / "concave.csv")
    (tmp_path / "pts.csv").write_text("x,y\n0,1\n1,0\n")
    SampledFunction.from_callable(g, lambda x: 0.5 * x * x).to_csv(
        tmp_path / "quad.csv")
    SampledBivariate.from_callable(
        g, g, lambda x, y: 0.5 * (x - y) ** 2).to_csv(tmp_path / "sync.csv")
    return tmp_path


TOL_CHECKS = [
    ["bipotential", "--input", "zero.csv"],
    ["convex", "--input", "concave.csv"],
    ["cyclic", "--points", "pts.csv", "--n-max", "2"],
    ["sync", "--input", "sync.csv"],
    ["implicit", "--phi", "quad.csv", "--eps", "0.5", "--y", "0.0"],
    ["maithm", "--phi", "quad.csv", "--eps", "0.5"],
    ["blurring", "--sync", "sync.csv", "--eps", "0.5"]]


@pytest.mark.parametrize("args", TOL_CHECKS, ids=lambda a: a[0])
@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_checks_refuse_an_unusable_tol(tol_inputs, capsys, monkeypatch,
                                       args, tol):
    # with --tol nan every comparison was false: zero.csv, concave.csv and
    # pts.csv, which fail their checks, passed with exit 0
    monkeypatch.chdir(tol_inputs)
    if args in TOL_CHECKS[:3]:
        assert main(["check", *args]) == 1
    capsys.readouterr()
    assert main(["check", *args, f"--tol={tol}", "--report", "r.txt"]) == 2
    assert "bipot: error: tol must be >= 0" in capsys.readouterr().err
    assert not (tol_inputs / "r.txt").exists()


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


def _straddling_column() -> bytes:
    """23 distinct nodes across 2**57, 16 apart below it and 32 above: close
    enough to uniform to read, but the Grid fitted to them steps about
    17.5, below the ulp 32 above 2**57, so two of its nodes coincide."""
    b = 2.0 ** 57
    nodes = [b - 16.0 * k for k in range(20, 0, -1)] + [b, b + 32.0, b + 64.0]
    return ("x,value\n" + "".join(f"{x!r},0.0\n" for x in nodes)).encode()


@pytest.mark.parametrize("checker, flag, text", [
    ("convex", "--input", _straddling_column()),
    # hi = 1e17 + 64 with 41 nodes: h = 1.6, below the ulp 16 of 1e17
    ("bbgraph", "--graph", b"# bipot-graph v1\n# xgrid lo=1e17 "
     b"hi=1.0000000000000006e17 n=41\n# ygrid lo=-1.0 hi=1.0 n=3\n"
     b"x_index,y_index\n0,0\n")],
    ids=["grid", "graph"])
def test_coincident_nodes_exit_2(run_cli, tmp_path, checker, flag, text):
    (tmp_path / "bad.csv").write_bytes(text)
    r = run_cli(["check", checker, flag, "bad.csv"], tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "not strictly increasing" in r.stderr
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


@pytest.mark.parametrize("n, args, message", [
    (3, ["implicit", "--y", "0.0", "--cap", "0"], "pair cap must be >= 1"),
    (3, ["maithm", "--cap", "0"], "pair cap must be >= 1"),
    (3, ["implicit", "--y", "0.0", "--cap", "-5"], "pair cap must be >= 1"),
    (401, ["implicit", "--y", "0.0", "--cap", "0"], "pair cap must be >= 1"),
    (3, ["implicit", "--y", "0.0", "--alphas", "0.5,nan"],
     "alphas must lie in [0, 1]"),
    # a negative seed reached numpy's default_rng, a ValueError: exit 3
    (3, ["implicit", "--y", "0.0", "--seed", "-1"], "seed must be >= 0"),
    (3, ["maithm", "--seed", "-1"], "seed must be >= 0")])
def test_check_refuses_bad_pair_settings(run_cli, tmp_path, n, args, message):
    SampledFunction.from_callable(Grid.line(-1.0, 1.0, n),
                                  lambda x: 0.5 * x * x).to_csv(
        tmp_path / "phi.csv")
    r = run_cli(["check", *args, "--phi", "phi.csv", "--eps", "1.0"],
                tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    assert message in r.stderr, r.stderr


def test_explore_refuses_a_negative_seed(tmp_path, capsys):
    code = main(["explore", "darboux", "--seed", "-1", "--samples", "1",
                 "--report", str(tmp_path / "d.txt")])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_explore_refuses_a_negative_sample_count(tmp_path, capsys):
    # -1 ran no sample and reported violations = 0 with exit 0
    report = tmp_path / "d.txt"
    code = main(["explore", "darboux", "--samples", "-1",
                 "--report", str(report)])
    assert code == 2
    assert "samples must be >= 0" in capsys.readouterr().err
    assert not report.exists()


def test_conjugate_refuses_a_nan_cap(tmp_path, quad_csv, capsys):
    # every `value > nan` is false, so a NaN cap reported no +inf at all
    code = main(["conjugate", "--input", str(quad_csv), "--cap", "nan",
                 "--out", str(tmp_path / "star.csv"),
                 "--report", str(tmp_path / "rep.txt")])
    assert code == 2
    assert "cap must not be NaN" in capsys.readouterr().err


@pytest.mark.parametrize("checker", ["newc", "implicit"])
@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_check_refuses_a_non_finite_y(quad_csv, capsys, checker, y):
    # nan died in int(round(nan)) with ValueError, inf with OverflowError
    code = main(["check", checker, "--phi", str(quad_csv), "--eps", "0.5",
                 f"--y={y}"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "expected a point in R^1" in err and "Traceback" not in err


@pytest.mark.parametrize("example", ["elasticity", "two-point", "cone"])
@pytest.mark.parametrize("box", ["1,2,3", "1"])
def test_example_refuses_a_box_of_other_than_two_reals(tmp_path, capsys,
                                                       example, box):
    # unpacking the parsed reals raised ValueError: exit 3
    code = main(["example", example, "--out-dir", str(tmp_path / "o"),
                 "--box", box])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "--box expects 'lo,hi'" in err and "Traceback" not in err


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


def _check_cover_build(run_cli, tmp_path, phi_csv, eps):
    """``cover build`` writes b_A itself: its infimum reads back bit-equal
    to ``blurred_bipotential`` on the family's grids, and within 1e-9 of
    the member-by-member minimum (tests/oracles.py)."""
    r = run_cli(["cover", "build", "--phi", str(phi_csv), "--eps", str(eps),
                 "--out-dir", "cov"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "cov" / "offsets.csv").exists()
    got = SampledBivariate.read_csv(tmp_path / "cov" / "infimum_bipotential.csv")
    phi = SampledFunction.read_csv(phi_csv)
    fam = build_cover(phi, eps)
    bA = blurred_bipotential(phi, BlurSpec(eps))
    assert (got.xgrid, got.ygrid) == (fam.xgrid, fam.ygrid)
    assert np.array_equal(got.vals, bA.vals)
    ref = explicit_infimum(fam.phi.vals, fam.phistar.vals, fam.offsets,
                           fam.xgrid, fam.ygrid)
    fin = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got.vals), fin)
    assert np.abs(got.vals[fin] - ref[fin]).max() <= 1e-9


def test_cover_build(run_cli, tmp_path, quad_csv):
    _check_cover_build(run_cli, tmp_path, quad_csv, 0.5)


def test_cover_build_cone(run_cli, tmp_path):
    fix = cone_fixture_params(n=17)
    cone_fixture(fix).phi.to_csv(tmp_path / "cone.csv")
    _check_cover_build(run_cli, tmp_path, tmp_path / "cone.csv", fix.eps)


def test_explore_darboux_runs(run_cli, tmp_path):
    r = run_cli(["explore", "darboux", "--samples", "3", "--grid", "41",
                 "--seed", "5", "--report", "d.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "violations = 0" in (tmp_path / "d.txt").read_text()


def test_explore_darboux_lists_failures(tmp_path, monkeypatch):
    # random_convex_1d never fails newc, so a non-convex sampler stands in
    def sampler(grid, rng, truncate=False):
        return random_piecewise_linear_1d(grid, rng, convex=False)
    monkeypatch.setattr(cli, "random_convex_1d", sampler)
    report = tmp_path / "d.txt"
    assert main(["explore", "darboux", "--samples", "4", "--grid", "41",
                 "--seed", "5", "--eps", "0.3", "--report", str(report)]) == 0

    # the reference: one check_newc call per (sample, y-node), in order
    rng = np.random.default_rng(5)
    g = Grid.line(-2.0, 2.0, 41)
    want = []
    for s in range(4):
        phi = sampler(g, rng, truncate=bool(s % 2))
        for iy in range(41):
            rep = check_newc(phi, 0.3, iy, ygrid=g)
            if not rep.ok:
                want.append(f"violation = sample={s} y_node={iy} "
                            f"axiom={rep.axiom}")
    assert len(want) > 20
    lines = report.read_text().splitlines()
    assert f"violations = {len(want)}" in lines
    assert [ln for ln in lines if ln.startswith("violation =")] == want[:20]


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


def test_check_blurring_sync_with_empty_zero_set(run_cli, tmp_path):
    # c + 0.01 is a sync, but no pair reaches the zero-set tolerance
    # 0.1 h^2: the empty zero set is its own Minkowski sum
    fix = elasticity_fixture(k=1.0, eps=0.5, n=101)
    c = elasticity_sync(fix)
    SampledBivariate(c.xgrid, c.ygrid, c.vals + 0.01).to_csv(tmp_path / "c2.csv")
    r = run_cli(["check", "blurring", "--sync", "c2.csv", "--eps", "0.5",
                 "--report", "rep.txt"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "verdict = pass" in (tmp_path / "rep.txt").read_text()


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
