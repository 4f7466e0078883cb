"""The bipot benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). Workloads, chosen so that each layer that
is likely to be optimised does most of its work in one of them:

  cli-1d      the 1-D worked-example law at acceptance scale (n = 401) as a
              shell pipeline of nine ``python -m bipot.cli`` processes;
              CSV write/read dominates.
  product-2d  the paper's two planar laws (cone, 2-D elasticity) through
              the Python API at n = 41 in one fresh process; 41^4-element
              product-grid arrays, the disc min-filter, covers and section
              scans dominate.
  darboux-1d  ``bipot explore darboux --samples 20 --grid 101``: 2,020
              small ``check_newc`` calls, so per-call overhead and the
              Legendre kernel show.

Load is a closed loop with one client: one operation at a time, from this
process. A pass is all of a workload's operations in order; passes repeat
until ``--seconds`` is used up. With ``--trace 0`` the last stdout line
carries the end-to-end metrics (medians over passes); with ``--trace 1``
untraced and traced passes alternate and it carries the per-layer metrics
of the traced passes plus the tracing overhead. Every operation's exit
code, verdict and output bytes are checked; any failure sets
``"correct": false`` and the exit code to 1. A full record (machine,
backend, quartiles, sample counts, per-operation outcomes) is written to
``.perfbench/results/``. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SETUP_PROBES = 7          # timed interpreter start-ups per run
PROC_TIMEOUT_S = 150.0    # a process running longer than this is killed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# (name, unit, kind): kind "exact" marks counts that repeat exactly for a
# given seed, "computed" a count derived by formula rather than observed
PER_LAYER = (
    ("cli.startup_s", "s", "measured"),
    ("cli.main.self_s", "s", "measured"),
    ("grids.to_csv.calls", "count", "measured"),
    ("grids.to_csv.rows", "count", "exact"),
    ("grids.to_csv.self_s", "s", "measured"),
    ("grids.read_csv.calls", "count", "measured"),
    ("grids.read_csv.rows", "count", "exact"),
    ("grids.read_csv.self_s", "s", "measured"),
    ("bipotentials.GraphSet.to_csv.rows", "count", "measured"),
    ("bipotentials.GraphSet.to_csv.self_s", "s", "measured"),
    ("bipotentials.GraphSet.read_csv.rows", "count", "measured"),
    ("bipotentials.GraphSet.read_csv.self_s", "s", "measured"),
    ("legendre.conjugate.calls", "count", "exact"),
    ("legendre.conjugate.self_s", "s", "measured"),
    ("kernels.lf_transform.calls", "count", "measured"),
    ("kernels.lf_transform.rows", "count", "measured"),
    ("kernels.lf_transform.self_s", "s", "measured"),
    ("kernels.sliding_min.calls", "count", "measured"),
    ("kernels.sliding_min.elements", "count", "exact"),
    ("kernels.sliding_min.bytes", "B", "computed"),
    ("kernels.sliding_min.self_s", "s", "measured"),
    ("kernels.sliding_max_u8.calls", "count", "measured"),
    ("kernels.sliding_max_u8.elements", "count", "exact"),
    ("kernels.sliding_max_u8.self_s", "s", "measured"),
    ("windows.ball_min_filter.calls", "count", "measured"),
    ("windows.ball_min_filter.elements", "count", "measured"),
    ("windows.ball_min_filter.self_s", "s", "measured"),
    ("windows.ball_dilate.calls", "count", "measured"),
    ("windows.ball_dilate.self_s", "s", "measured"),
    ("windows.chebyshev_dilate.calls", "count", "measured"),
    ("windows.chebyshev_dilate.self_s", "s", "measured"),
    *((f"blur.{fn}.{stat}", unit, "measured")
      for fn in ("blur_law", "blurred_bipotential", "blurred_graph",
                 "inf_convolve_blur")
      for stat, unit in (("calls", "count"), ("self_s", "s"),
                         ("rss_rise_mb", "MB"))),
    ("blur.check_newc.calls", "count", "measured"),
    ("blur.check_newc.self_s", "s", "measured"),
    ("covers.check_maithm_equivalence.self_s", "s", "measured"),
    ("covers.check_maithm_equivalence.rss_rise_mb", "MB", "measured"),
    ("covers.member_graph_union.self_s", "s", "measured"),
    ("covers.member_graph_union.rss_rise_mb", "MB", "measured"),
    ("covers.build_cover.calls", "count", "measured"),
    ("covers.check_implicitly_convex.self_s", "s", "measured"),
    ("bipotentials.check_bbgraph.self_s", "s", "measured"),
    ("bipotentials.check_bipotential.self_s", "s", "measured"),
    ("bipotentials.check_sync.self_s", "s", "measured"),
    ("bipotentials.graphs_match_within.self_s", "s", "measured"),
    ("convexity.is_set_convex.calls", "count", "exact"),
    ("convexity.is_set_convex.self_s", "s", "measured"),
    ("convexity.batch_is_convex.calls", "count", "measured"),
    ("convexity.batch_is_convex.self_s", "s", "measured"),
    ("trace.overhead_s", "s", "measured"),
)


# --- workloads ---------------------------------------------------------------


@dataclass
class Op:
    """One checked operation: its report file, the report lines it must
    contain, and the output files whose bytes must repeat across passes."""

    name: str
    report: str
    expect: dict[str, str] = field(default_factory=dict)
    outputs: tuple[str, ...] = ()


@dataclass
class Proc:
    """One process of a pass: ``script`` (a file in this directory) with
    ``args``, or ``python -m bipot.cli`` with ``args`` when it is None."""

    args: list[str]
    ops: list[Op]
    code: int = 0
    script: str | None = None


@dataclass
class Workload:
    name: str
    inputs: dict[str, str]     # file name -> text, written into each pass
    procs: list[Proc]
    params: dict


def _cli(args, name, code=0, expect=None, outputs=()):
    report = f"{name}.txt"
    return Proc([*args, "--report", report],
                [Op(name, report, dict(expect or {}), tuple(outputs))], code)


def _quadratic_csv(n: int) -> str:
    """phi(x) = x^2/2 on n nodes of [-2, 2] in the CLI's grid CSV format."""
    rows = ["x,value"]
    for i in range(n):
        x = -2.0 + 4.0 * i / (n - 1)
        rows.append(f"{x!r},{0.5 * x * x!r}")
    return "\n".join(rows) + "\n"


def cli_1d(seed: int, small: bool) -> Workload:
    rng = random.Random(seed)
    # 0.30, 0.35, .., 0.60: node-aligned at both sizes (h = 0.01 and 0.05),
    # so the elasticity oracle gap stays at rounding level
    eps = round(0.3 + 0.05 * rng.randrange(7), 2)
    check_seed = rng.randrange(2 ** 31)
    n = 81 if small else 401
    e = repr(eps)
    passed = {"verdict": "pass"}
    procs = [
        _cli(["conjugate", "--input", "phi.csv", "--out", "conj.csv"],
             "conjugate", 0, {"output_convex": "pass"}, ["conj.csv"]),
        _cli(["blur", "--phi", "phi.csv", "--eps", e, "--out-ca", "ca.csv",
              "--out-ba", "ba.csv", "--out-graph", "mg.csv"],
             "blur", 0, None, ["ca.csv", "ba.csv", "mg.csv"]),
        _cli(["check", "bipotential", "--input", "ba.csv"],
             "check_bipotential", 0, passed),
        _cli(["check", "sync", "--input", "ca.csv"], "check_sync", 0, passed),
        _cli(["check", "bbgraph", "--graph", "mg.csv"], "check_bbgraph", 0,
             passed),
        _cli(["check", "maithm", "--phi", "phi.csv", "--eps", e,
              "--seed", str(check_seed)], "check_maithm", 0, passed),
        _cli(["example", "elasticity", "--out-dir", "elasticity",
              "--grid", str(n), "--eps", e], "example_elasticity", 0, None,
             [f"elasticity/{f}.csv"
              for f in ("phi", "sync", "ca", "ca_closed_form")]),
        # the paper's 2*eps threshold: the blurred two-point law is no BB-graph
        _cli(["example", "two-point", "--out-dir", "two-point"],
             "example_two_point", 1,
             {"verdict": "fail", "axiom": "y-section-convex"},
             ["two-point/twopoint.csv", "two-point/twopoint_blurred.csv"]),
        # the cone law: newc fails at y*
        _cli(["example", "cone", "--out-dir", "cone"], "example_cone", 1,
             {"verdict": "fail", "axiom": "newc"},
             ["cone/phistar.csv", "cone/phi.csv"]),
    ]
    return Workload("cli-1d", {"phi.csv": _quadratic_csv(n)}, procs,
                    {"n": n, "eps": eps, "check_seed": check_seed})


def product_2d(seed: int, small: bool) -> Workload:
    check_seed = random.Random(seed).randrange(2 ** 31)
    n = 25 if small else 41
    fail = {"verdict": "fail"}
    ops = [
        Op("cone.cone_fixture", "cone.cone_fixture.txt"),
        Op("cone.blur_law", "cone.blur_law.txt"),
        Op("cone.check_bbgraph", "cone.check_bbgraph.txt",
           {**fail, "axiom": "y-section-convex"}),
        # no verdict is pinned for b_A's or c_A's axioms: only repeatability
        Op("cone.check_bipotential", "cone.check_bipotential.txt"),
        Op("cone.check_maithm_equivalence",
           "cone.check_maithm_equivalence.txt",
           {"verdict": "pass", "note.0": "bipotential-verdict = fail",
            "note.3": "implicit-convexity-verdict = fail"}),
        Op("cone.member_graph_union", "cone.member_graph_union.txt"),
        Op("cone.check_newc", "cone.check_newc.txt", {**fail, "axiom": "newc"}),
        Op("elasticity.blur_law", "elasticity.blur_law.txt"),
        Op("elasticity.check_bbgraph", "elasticity.check_bbgraph.txt",
           {"verdict": "pass"}),
        Op("elasticity.check_sync", "elasticity.check_sync.txt"),
    ]
    proc = Proc(["--out", ".", "--seed", str(check_seed), "--n", str(n)], ops,
                0, "product2d.py")
    return Workload("product-2d", {}, [proc], {"n": n, "check_seed": check_seed})


def darboux_1d(seed: int, small: bool) -> Workload:
    samples, grid = (2, 41) if small else (20, 101)
    proc = _cli(["explore", "darboux", "--samples", str(samples),
                 "--grid", str(grid), "--seed", str(seed)],
                "explore_darboux", 0, {"violations": "0"})
    return Workload("darboux-1d", {}, [proc],
                    {"samples": samples, "grid": grid, "seed": seed})


WORKLOADS = {"cli-1d": cli_1d, "product-2d": product_2d,
             "darboux-1d": darboux_1d}


# --- processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BIPOT_THREADS", None)
    env.pop("BIPOT_BACKEND", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run to completion; (exit code, start, end, rusage of the child)."""
    t0 = time.monotonic()
    env = {**env, "PERFBENCH_SPAWN_T": repr(t0)}
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout,
                            stderr=stderr)
    killer = threading.Timer(PROC_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage


def probe_setup(env, cwd: Path) -> tuple[list[float], dict]:
    """One untimed warm-up start-up (fills bytecode caches, records the
    backend, compares backends), then SETUP_PROBES timed ones."""
    argv = [sys.executable, str(HERE / "probe.py")]
    record = None
    times = []
    for i in range(SETUP_PROBES + 1):
        out = cwd / "probe.out"
        with open(out, "w") as fh, open(cwd / "probe.err", "w") as err:
            code, t0, _, _ = spawn(argv + (["--compare-backends"] if i == 0 else []),
                                   cwd, env, fh, err)
        if code != 0:
            sys.stderr.write((cwd / "probe.err").read_text())
            raise SystemExit(f"perfbench: set-up probe exited {code}")
        data = json.loads(out.read_text())
        if i == 0:
            record = {k: v for k, v in data.items() if k != "t"}
        else:
            times.append(data["t"] - t0)
    return times, record


def _read_report(path: Path) -> dict[str, str] | None:
    if not path.is_file():
        return None
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, val = line.partition(" = ")
        if sep and key not in out:
            out[key] = val
    return out


def _fingerprint(pass_dir: Path, op: Op) -> str:
    h = hashlib.sha256()
    for rel in (op.report, *op.outputs):
        path = pass_dir / rel
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outcomes: list[dict]        # per op: name, fingerprint, problem
    spans: list[Path]


def run_pass(wl: Workload, pass_dir: Path, span_dir: Path | None,
             env) -> PassResult:
    """One pass in a fresh directory; traced when `span_dir` is given."""
    traced = span_dir is not None
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    for name, text in wl.inputs.items():
        (pass_dir / name).write_text(text, encoding="utf-8")
    wall = cpu = peak = 0.0
    outcomes, spans = [], []
    for i, proc in enumerate(wl.procs):
        penv = env
        if proc.script:
            argv = [sys.executable, str(HERE / proc.script), *proc.args]
        elif traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), *proc.args]
        else:
            argv = [sys.executable, "-m", "bipot.cli", *proc.args]
        if traced:
            span_file = span_dir / f"proc{i}.jsonl"
            penv = {**env, "PERFBENCH_SPANS": str(span_file),
                    "PERFBENCH_OP": proc.ops[0].name}
        with open(pass_dir / f"proc{i}.stderr", "w") as err:
            code, t0, t1, usage = spawn(argv, pass_dir, penv, stderr=err)
        if traced and span_file.is_file():    # absent if the process was killed
            spans.append(span_file)
        wall += t1 - t0
        cpu += usage.ru_utime + usage.ru_stime
        peak = max(peak, usage.ru_maxrss / 1024.0)
        for op in proc.ops:
            problem = None
            report = _read_report(pass_dir / op.report)
            if code != proc.code:
                problem = f"exit code {code}, expected {proc.code}"
            elif report is None:
                problem = "no report written"
            else:
                for key, want in op.expect.items():
                    if report.get(key) != want:
                        problem = f"{key} = {report.get(key)!r}, expected {want!r}"
                        break
            outcomes.append({"name": op.name, "problem": problem,
                             "fingerprint": _fingerprint(pass_dir, op)})
    return PassResult(traced, wall, cpu, peak, outcomes, spans)


# --- statistics --------------------------------------------------------------


def summary(values) -> dict:
    vals = list(values)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def layer_values(agg: dict, overhead: float) -> dict[str, float]:
    """Per-layer metric values of one traced pass from aggregated spans."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = overhead
        elif name == "cli.startup_s":
            out[name] = agg.get("cli.startup", {}).get("self_s", 0.0)
        else:
            span, _, stat = name.rpartition(".")
            out[name] = agg.get(span, {}).get(stat, 0.0)
    return out


def _number(v: float, unit: str):
    if unit in ("count", "B") and float(v).is_integer():
        return int(v)
    return v


# --- machine record ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    mem = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        level = _read(str(idx / "level")).strip()
        kind = _read(str(idx / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "ram": mem, "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown"), "platform": platform.platform()}


# --- the run -----------------------------------------------------------------


def measure(wl: Workload, seconds: float, trace: bool, seed: int) -> dict:
    """Set up, run passes for `seconds`, check them, and compute metrics."""
    env = child_env()
    wdir = WORK / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    setup_times, backend = probe_setup(env, wdir)

    passes: list[PassResult] = []
    start = time.monotonic()
    while True:
        span_dir = None
        if trace and len(passes) % 2 == 1:
            span_dir = wdir / f"spans{len(passes)}"
            span_dir.mkdir()
        t0 = time.monotonic()
        passes.append(run_pass(wl, wdir / "pass", span_dir, env))
        took = time.monotonic() - t0
        if trace and len(passes) < 2:
            continue
        if time.monotonic() - start + took > seconds:
            break

    # correctness: expectations, and bytes equal to the first pass
    attempted = failed = 0
    problems = []
    reference = [o["fingerprint"] for o in passes[0].outcomes]
    for k, p in enumerate(passes):
        for o, ref in zip(p.outcomes, reference):
            attempted += 1
            problem = o["problem"]
            if problem is None and o["fingerprint"] != ref:
                problem = "report or output bytes differ from pass 0"
            if problem:
                failed += 1
                problems.append(f"pass {k} ({'traced' if p.traced else 'untraced'})"
                                f" {o['name']}: {problem}")
    identical = backend.get("backends_identical")
    if identical is not None:
        attempted += 1
        if not all(identical.values()):
            failed += 1
            problems.append(f"kernel backends differ: {identical}")

    untraced = [p for p in passes if not p.traced]
    metrics = {}
    if not trace:
        series = {"wall_s": [p.wall_s for p in untraced],
                  "cpu_s": [p.cpu_s for p in untraced],
                  "peak_rss_mb": [p.peak_rss_mb for p in untraced],
                  "setup_s": setup_times}
        for name, unit in END_TO_END:
            metrics[name] = {"unit": unit, "kind": "measured",
                             **summary(series[name])}
    else:
        tpasses = [p for p in passes if p.traced]
        overhead = (summary([p.wall_s for p in tpasses])["median"]
                    - summary([p.wall_s for p in untraced])["median"])
        per_pass = [layer_values(aggregate(p.spans), overhead) for p in tpasses]
        for name, unit, kind in PER_LAYER:
            vals = [v[name] for v in per_pass]
            if kind == "exact" and len(set(vals)) > 1:
                failed += 1
                problems.append(f"exact count {name} varies: {vals}")
            metrics[name] = {"unit": unit, "kind": kind, **summary(vals)}
        attempted += 1    # the exact-count repeatability check

    return {"workload": wl.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "params": wl.params,
            "backend": backend, "machine": machine_record(),
            "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                        "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
                        "ops": {o["name"]: o["problem"] or "ok"
                                for o in p.outcomes}}
                       for p in passes],
            "untraced_wall_s": summary([p.wall_s for p in untraced]),
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "problems": problems,
            "metrics": metrics}


def print_result(res: dict) -> None:
    b = res["backend"]
    print(f"bipot benchmark  workload={res['workload']} seed={res['seed']} "
          f"trace={res['trace']} backend={b['backend']} "
          f"python={b['python']} numpy={b['numpy']} "
          f"nproc={res['machine']['nproc']}")
    print(f"{'metric':<46} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  "
          "unit   kind")
    for name, m in res["metrics"].items():
        print(f"{name:<46} {m['median']:>14.6g} {m['q1']:>14.6g} "
              f"{m['q3']:>14.6g} {m['n']:>3}  {m['unit']:<6} {m['kind']}")
    print(f"{'error_rate':<46} {res['error_rate']:>14.6g}  "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    for line in res["problems"]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": _number(m["median"], m["unit"]),
                           "unit": m["unit"]}
                    for name, m in res["metrics"].items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bipot" / "cli.py").is_file():
        print(f"perfbench: no bipot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.small)
    res = measure(wl, args.seconds, bool(args.trace), args.seed)
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    print_result(res)
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
