"""Self-test of the benchmark, at reduced sizes (about a minute).

    python3 perfbench/selftest.py

1. Runs ``run.py --small`` on every workload of ``BENCHMARK.json`` with
   ``--trace 0`` and ``--trace 1``. Each run must exit 0, report
   ``"correct": true`` and print, on its last line, exactly the end-to-end
   (resp. per-layer) metrics of ``BENCHMARK.json`` with their units.
2. Runs a small darboux-1d pass with a wrong expected verdict: the
   correctness gate must count the operation as failed and print
   ``"correct": false``.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   the benchmark's files: it must exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_metrics_printed() -> None:
    for wl in BENCH["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 wl["name"], "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--small"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            what = f"{wl['name']} --trace {trace}"
            check(proc.returncode == 0, f"{what} exits 0")
            res = last_json_line(proc.stdout)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} result keys")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, f"{what} is correct")
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == want, f"{what} prints every {key} metric with its unit")
            check(all(isinstance(m["value"], (int, float))
                      for m in res["metrics"].values()), f"{what} values are numbers")


def test_gate_fires() -> None:
    wl = run.darboux_1d(7, small=True)
    wl.procs[0].ops[0].expect["violations"] = "1"      # wrong on purpose
    res = run.measure(wl, 0.1, False, 7)
    check(res["failed"] >= 1 and res["failed"] == res["attempted"],
          "wrong expected verdict counts as a failed operation")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(res)
    check(last_json_line(out.getvalue())["correct"] is False,
          "wrong expected verdict prints correct: false")


def test_bare_directory_fails() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for rel in BENCH["paths"]:
        shutil.copytree(run.ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", BENCH["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    test_metrics_printed()
    test_gate_fires()
    test_bare_directory_fails()
    print("selftest passed")
