"""Command-line front end.

Every subcommand writes a flat key = value report whose first line carries
the report schema version; identical configuration and seed produce
byte-identical report files (wall time goes to stderr, never into the
report). Exit codes: 0 success / check passed, 1 a mathematical check
failed (the report carries the witness), 2 usage or input error, 3 an
internal error (its traceback goes to stderr).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set, before numpy loads: an idle OpenBLAS worker pool costs
each CLI process CPU time and no BLAS call here is big enough to use it.
Input CSV files are parsed a block of rows at a time by numpy's C reader
(``grids._read_rows``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

# before numpy loads: `import bipot` loads no submodule (see above)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .bipotentials import (GraphSet, check_bbgraph, check_bipotential,
                           check_cyclically_monotone, check_sync)
from .blur import (BlurSpec, blur_law, check_admits_blurring, check_newc,
                   check_newc_all, inf_convolve_blur, minkowski_blur)
from .convexity import is_convex
from .covers import (_require_seed, build_cover, check_implicitly_convex,
                     check_maithm_equivalence, infimum_bipotential)
from .errors import BipotError, FormatError, InvalidInputError
from .fixtures import (cone_fixture, cone_fixture_params, elasticity_closed_form_ca,
                       elasticity_fixture, elasticity_phi, elasticity_sync,
                       two_point_fixture)
from .grids import (Grid, SampledBivariate, SampledFunction, _open_csv,
                    _read_rows)
from .legendre import conjugate, default_dual_grid
from .report import CheckReport
from .sampling import random_convex_1d
from .windows import radius_nodes

# constant per release; embedded as the first line of every report
SCHEMA_VERSION = "1.0.0"


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags."""

    subcommand: str
    args: argparse.Namespace
    report_lines: list[str] = field(default_factory=list)

    def add(self, key, value) -> None:
        self.report_lines.append(f"{key} = {value}")

    def add_report(self, rep: CheckReport) -> None:
        self.report_lines.extend(rep.to_lines())

    def write(self) -> None:
        text = "\n".join([f"schema_version = {SCHEMA_VERSION}",
                          f"command = {self.subcommand}",
                          *self.report_lines]) + "\n"
        path = getattr(self.args, "report", None)
        if path:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise InvalidInputError(f"expected comma-separated reals, got {text!r}")


def _lo_hi(text: str, flag: str) -> tuple[float, ...]:
    lohi = _parse_floats(text)
    if len(lohi) != 2:
        raise InvalidInputError(f"{flag} expects 'lo,hi'")
    return lohi


def _ygrid_from_flags(args, phi: SampledFunction) -> Grid | None:
    box = getattr(args, "ybox", None)
    if box is None:
        if getattr(args, "yn", None) is not None:
            raise InvalidInputError("--yn sets the nodes of --ybox; give --ybox too")
        return None
    lohi = _lo_hi(box, "--ybox")
    n = getattr(args, "yn", None) or phi.grid.n[0]
    if phi.grid.dim == 1:
        return Grid.line(lohi[0], lohi[1], n)
    return Grid.box(lohi[0], lohi[1], n)


def _out_path(args, name: str) -> str:
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, name)
    return name


# --- subcommand bodies ------------------------------------------------------


def _cmd_conjugate(cfg: RunConfig) -> int:
    a = cfg.args
    phi = SampledFunction.read_csv(a.input)
    ygrid = _ygrid_from_flags(a, phi) or default_dual_grid(phi)
    star = conjugate(phi, ygrid, cap=a.cap)
    star.to_csv(a.out)
    cfg.add("input", a.input)
    cfg.add("out", a.out)
    cfg.add("ygrid", ygrid)
    cfg.add("cap", a.cap)
    rep = is_convex(star, 1e-9 * (1.0 + abs(star.finite_max)))
    cfg.add("output_convex", rep.verdict)
    cfg.write()
    return 0 if rep.ok else 1


def _cmd_blur(cfg: RunConfig) -> int:
    a = cfg.args
    phi = SampledFunction.read_csv(a.phi)
    law = blur_law(phi, BlurSpec(a.eps), _ygrid_from_flags(a, phi), a.tol)
    cfg.add("phi", a.phi)
    cfg.add("eps", a.eps)
    cfg.add("kind", "yball")
    pieces = [(a.out_ca, law.cA),
              ("ba.csv" if a.out_ba is None else a.out_ba, law.bA),
              ("mg.csv" if a.out_graph is None else a.out_graph, law.MplusA)]
    for path, piece in pieces:
        if path:
            piece.to_csv(path)
            cfg.add("wrote", path)
    cfg.add("graph_pairs", law.MplusA.count)
    cfg.write()
    return 0


def _finish_check(cfg: RunConfig, rep: CheckReport) -> int:
    cfg.add_report(rep)
    cfg.write()
    return 0 if rep.ok else 1


def _cmd_check(cfg: RunConfig) -> int:
    a = cfg.args
    which = a.checker

    if which == "convex":
        f = SampledFunction.read_csv(a.input)
        tol = a.tol if a.tol is not None else 1e-9 * (1.0 + abs(f.finite_max))
        cfg.add("input", a.input)
        cfg.add("tol", tol)
        return _finish_check(cfg, is_convex(f, tol))

    if which == "bbgraph":
        M = GraphSet.read_csv(a.graph)
        cfg.add("graph", a.graph)
        return _finish_check(cfg, check_bbgraph(M))

    if which == "sync":
        c = SampledBivariate.read_csv(a.input)
        cfg.add("input", a.input)
        return _finish_check(cfg, check_sync(c, a.tol))

    if which == "bipotential":
        b = SampledBivariate.read_csv(a.input)
        cfg.add("input", a.input)
        return _finish_check(cfg, check_bipotential(b, a.tol))

    if which == "newc":
        phi = SampledFunction.read_csv(a.phi)
        ygrid = _ygrid_from_flags(a, phi) or phi.grid
        y_idx = ygrid.snap(_parse_floats(a.y))
        cfg.add("phi", a.phi)
        cfg.add("eps", a.eps)
        cfg.add("y", a.y)
        return _finish_check(cfg, check_newc(phi, a.eps, y_idx, a.tol, ygrid))

    if which == "blurring":
        if (a.graph is None) == (a.sync is None):
            raise InvalidInputError(
                "check blurring takes exactly one of --graph and --sync")
        spec = BlurSpec(a.eps)
        cfg.add("eps", a.eps)
        cfg.add("kind", "yball")
        if a.graph is not None:
            target = GraphSet.read_csv(a.graph)
            cfg.add("graph", a.graph)
        else:
            target = SampledBivariate.read_csv(a.sync)
            cfg.add("sync", a.sync)
        return _finish_check(cfg, check_admits_blurring(target, spec, a.tol))

    if which == "implicit":
        phi = SampledFunction.read_csv(a.phi)
        ygrid = _ygrid_from_flags(a, phi) or phi.grid
        fam = build_cover(phi, a.eps, ygrid)
        y_idx = ygrid.snap(_parse_floats(a.y))
        values = fam.values_at(y_idx)
        alphas = _parse_floats(a.alphas)
        cfg.add("phi", a.phi)
        cfg.add("eps", a.eps)
        cfg.add("y", a.y)
        cfg.add("alphas", a.alphas)
        rep = check_implicitly_convex(values, alphas, a.tol,
                                      pair_cap=a.cap, seed=a.seed)
        return _finish_check(cfg, rep)

    if which == "maithm":
        phi = SampledFunction.read_csv(a.phi)
        ygrid = _ygrid_from_flags(a, phi) or phi.grid
        cfg.add("phi", a.phi)
        cfg.add("eps", a.eps)
        rep = check_maithm_equivalence(phi, a.eps, a.tol, ygrid,
                                       pair_cap=a.cap, seed=a.seed)
        return _finish_check(cfg, rep)

    if which == "cyclic":
        pts = _read_points_csv(a.points)
        cfg.add("points", a.points)
        cfg.add("n_max", a.n_max)
        return _finish_check(cfg, check_cyclically_monotone(pts, a.n_max, a.tol))

    raise InvalidInputError(f"unknown checker {which!r}")


def _read_points_csv(path):
    """(x, y) rows: columns x,y (1-D) or x1,x2,y1,y2 (2-D), all finite."""
    with _open_csv(path) as fh:
        header = fh.readline().strip().split(",")
        if header == ["x", "y"]:
            d = 1
        elif header == ["x1", "x2", "y1", "y2"]:
            d = 2
        else:
            raise FormatError("expected header 'x,y' or 'x1,x2,y1,y2'", line=1)
        rows = _read_rows(fh, 2 * d, value_col=False)
    return [(r[:d], r[d:]) for r in rows]


def _cmd_cover(cfg: RunConfig) -> int:
    a = cfg.args
    phi = SampledFunction.read_csv(a.phi)
    ygrid = _ygrid_from_flags(a, phi) or phi.grid
    fam = build_cover(phi, a.eps, ygrid)
    inf_b = infimum_bipotential(fam)
    out = _out_path(a, "infimum_bipotential.csv")
    inf_b.to_csv(out)
    offs = _out_path(a, "offsets.csv")
    with open(offs, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("offset\n")
        for off in fam.offsets:
            fh.write(f"{off}\n".replace(" ", ""))
    cfg.add("phi", a.phi)
    cfg.add("eps", a.eps)
    cfg.add("members", len(fam.offsets))
    cfg.add("wrote", out)
    cfg.add("wrote", offs)
    cfg.write()
    return 0


def _fixture_kwargs(a, *flags) -> dict:
    """The flags among FLAGS that were given, as fixture keywords: --grid
    is n, a nonempty --box is lo and hi."""
    kw = {"n" if f == "grid" else f: getattr(a, f) for f in flags
          if hasattr(a, f)}
    if getattr(a, "box", ""):
        kw["lo"], kw["hi"] = _lo_hi(a.box, "--box")
    return kw


def _cmd_example(cfg: RunConfig) -> int:
    a = cfg.args

    if a.example == "elasticity":
        fix = elasticity_fixture(**_fixture_kwargs(a, "k", "eps", "grid",
                                                   "dim"))
        phi = elasticity_phi(fix)
        c = elasticity_sync(fix)
        ca = inf_convolve_blur(c, fix.spec)
        oracle = elasticity_closed_form_ca(fix)
        band = radius_nodes(fix.eps, max(fix.ygrid.h))
        sl = (slice(None),) * fix.xgrid.dim + \
            tuple(slice(band, m - band) for m in fix.ygrid.shape)
        gap = float(np.abs(ca.vals[sl] - oracle.vals[sl]).max())
        phi.to_csv(_out_path(a, "phi.csv"))
        c.to_csv(_out_path(a, "sync.csv"))
        ca.to_csv(_out_path(a, "ca.csv"))
        oracle.to_csv(_out_path(a, "ca_closed_form.csv"))
        cfg.add("k", fix.k)
        cfg.add("eps", fix.eps)
        cfg.add("grid", fix.xgrid.n[0])
        cfg.add("max_oracle_gap_interior", repr(gap))
        cfg.add("gap_allowance_2h", repr(2.0 * max(fix.ygrid.h)))
        cfg.write()
        return 0 if gap <= 2.0 * max(fix.ygrid.h) else 1

    if a.example == "two-point":
        box = getattr(a, "box", "")
        g = Grid.line(*(_lo_hi(box, "--box") if box else (-2.0, 2.0)), a.grid)
        M, spec = two_point_fixture(a.x1, a.y1, a.x2, a.y2, a.eps, g, g)
        MA, clipped = minkowski_blur(M, spec)
        M.to_csv(_out_path(a, "twopoint.csv"))
        MA.to_csv(_out_path(a, "twopoint_blurred.csv"))
        rep = check_admits_blurring(M, spec)
        cfg.add("points", f"({a.x1},{a.y1}) ({a.x2},{a.y2})")
        cfg.add("eps", a.eps)
        cfg.add("threshold_2eps", 2 * a.eps)
        cfg.add("y_gap", abs(a.y2 - a.y1))
        cfg.add("clipped", clipped)
        cfg.add_report(rep)
        cfg.write()
        return 0 if rep.ok else 1

    if a.example == "cone":
        fix = cone_fixture_params(**_fixture_kwargs(a, "alpha", "y1", "eps",
                                                    "grid"))
        law = cone_fixture(fix)
        law.phistar.to_csv(_out_path(a, "phistar.csv"))
        law.phi.to_csv(_out_path(a, "phi.csv"))
        rep = check_newc(law.phi, fix.eps, law.y_star_index, ygrid=fix.ygrid)
        cfg.add("alpha", fix.alpha)
        cfg.add("y_star", fix.y_star)
        cfg.add("eps", fix.eps)
        cfg.add("window", fix.window)
        cfg.add_report(rep)
        cfg.write()
        return 0 if rep.ok else 1

    raise InvalidInputError(f"unknown example {a.example!r}")


def _cmd_explore(cfg: RunConfig) -> int:
    a = cfg.args
    _require_seed(a.seed)
    if a.samples < 0:
        raise InvalidInputError(f"samples must be >= 0, got {a.samples}")
    rng = np.random.default_rng(a.seed)
    g = Grid.line(-2.0, 2.0, a.grid)
    failures = []
    for s in range(a.samples):
        phi = random_convex_1d(g, rng, truncate=bool(s % 2))
        ok = check_newc_all(phi, a.eps, ygrid=g)
        failures.extend((s, int(iy), "newc") for iy in np.flatnonzero(~ok))
    cfg.add("samples", a.samples)
    cfg.add("grid", a.grid)
    cfg.add("eps", a.eps)
    cfg.add("seed", a.seed)
    cfg.add("violations", len(failures))
    for s, iy, ax in failures[:20]:
        cfg.add("violation", f"sample={s} y_node={iy} axiom={ax}")
    cfg.write()
    return 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # no option prefixes, in every subparser too: a removed or misspelt
    # option is refused, not read as another (--p as --phi)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bipot",
        description="Convex conjugates, syncs, bipotentials and blurred "
                    "monotone laws on grids")
    p.add_argument("--version", action="version",
                   version=f"bipot {__version__} "
                           f"(report schema {SCHEMA_VERSION})")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_report(sp):
        sp.add_argument("--report", help="report file (default: stdout)")

    sp = sub.add_parser("conjugate", help="Fenchel conjugate of a sampled function")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", default="conjugate.csv")
    sp.add_argument("--ybox", help="dual box 'lo,hi' (default: slope range)")
    sp.add_argument("--yn", type=int, help="dual nodes per axis")
    sp.add_argument("--cap", type=float, default=1e12)
    add_report(sp)

    sp = sub.add_parser("blur", help="c_A, b_A and M+A of a blurred law")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--ybox")
    sp.add_argument("--yn", type=int)
    sp.add_argument("--out-ca", dest="out_ca", default="ca.csv")
    # ba.csv and mg.csv unless given; '' writes none
    sp.add_argument("--out-ba", dest="out_ba")
    sp.add_argument("--out-graph", dest="out_graph")
    add_report(sp)

    sp = sub.add_parser("check", help="run one predicate checker")
    csub = sp.add_subparsers(dest="checker", required=True)

    def checker(name, **flags):
        c = csub.add_parser(name)
        for flag, kw in flags.items():
            c.add_argument(f"--{flag.replace('_', '-')}", **kw)
        add_report(c)
        return c

    checker("convex", input=dict(required=True), tol=dict(type=float))
    checker("bbgraph", graph=dict(required=True))
    checker("sync", input=dict(required=True), tol=dict(type=float))
    checker("bipotential", input=dict(required=True), tol=dict(type=float))
    checker("newc", phi=dict(required=True), eps=dict(type=float, required=True),
            y=dict(required=True), tol=dict(type=float),
            ybox=dict(), yn=dict(type=int))
    checker("blurring", graph=dict(), sync=dict(),
            eps=dict(type=float, required=True), tol=dict(type=float))
    checker("implicit", phi=dict(required=True),
            eps=dict(type=float, required=True), y=dict(required=True),
            alphas=dict(default="0.5"), tol=dict(type=float),
            cap=dict(type=int, default=200000), seed=dict(type=int, default=0),
            ybox=dict(), yn=dict(type=int))
    checker("maithm", phi=dict(required=True),
            eps=dict(type=float, required=True), tol=dict(type=float),
            cap=dict(type=int, default=200000), seed=dict(type=int, default=0),
            ybox=dict(), yn=dict(type=int))
    checker("cyclic", points=dict(required=True),
            n_max=dict(type=int, required=True), tol=dict(type=float))

    sp = sub.add_parser("cover", help="bipotential convex covers")
    cov = sp.add_subparsers(dest="covercmd", required=True)
    cb = cov.add_parser("build")
    cb.add_argument("--phi", required=True)
    cb.add_argument("--eps", type=float, required=True)
    cb.add_argument("--out-dir", dest="out_dir", required=True)
    cb.add_argument("--ybox")
    cb.add_argument("--yn", type=int)
    add_report(cb)

    sp = sub.add_parser("example", help="reproduce a worked example")
    ex = sp.add_subparsers(dest="example", required=True)
    for name, flags in (("elasticity", "k dim"), ("two-point", "x1 y1 x2 y2"),
                        ("cone", "alpha y1")):
        # a flag not given stays out of the namespace, so the fixture's
        # keyword default holds; an empty --box is the default box
        e = ex.add_parser(name, argument_default=argparse.SUPPRESS)
        e.add_argument("--out-dir", dest="out_dir", required=True)
        e.add_argument("--box")
        for f in ("grid", "eps", *flags.split()):
            e.add_argument(f"--{f}", type=int if f in ("grid", "dim") else float)
        add_report(e)
    # two_point_fixture takes grids, so these flags hold its defaults
    ex.choices["two-point"].set_defaults(grid=201, eps=0.6, x1=0.0, y1=0.0,
                                         x2=1.0, y2=1.0)

    sp = sub.add_parser("explore", help="exploration harnesses")
    xp = sp.add_subparsers(dest="explorecmd", required=True)
    dx = xp.add_parser("darboux",
                       help="randomized 1-D search for convexity failures "
                            "of the subdifferential-union condition")
    dx.add_argument("--samples", type=int, default=20)
    dx.add_argument("--seed", type=int, default=0)
    dx.add_argument("--grid", type=int, default=101)
    dx.add_argument("--eps", type=float, default=0.5)
    add_report(dx)

    return p


_DISPATCH = {
    "conjugate": _cmd_conjugate,
    "blur": _cmd_blur,
    "check": _cmd_check,
    "cover": _cmd_cover,
    "example": _cmd_example,
    "explore": _cmd_explore,
}


def run(config: RunConfig) -> int:
    return _DISPATCH[config.subcommand](config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(args.subcommand, args)
    t0 = time.perf_counter()
    try:
        code = run(cfg)
    except (BipotError, OSError) as exc:
        print(f"bipot: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        print(f"bipot: elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
