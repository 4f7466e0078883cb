"""One pass of the product-2d workload, in a fresh process.

    python perfbench/product2d.py --out DIR --seed N [--n 41]

Runs the paper's two planar laws through the Python API on n x n grids:
the cone law (alpha = 0.5, y1 = 1, eps = 1) and 2-D elasticity (k = 1,
eps = 0.5). Each step writes ``DIR/<step>.txt`` in the CLI's flat
``key = value`` report style: a checker's verdict lines, or the SHA-256 of
the arrays a construction produced. The caller checks the verdicts and
compares the files across passes. With ``PERFBENCH_SPANS`` set, the layers
are traced into that file.

Functions are called through their modules (``blur.blur_law``) so that the
tracer's rebinding reaches these calls too.
"""

from __future__ import annotations

import argparse
import hashlib
import os

import numpy as np

import bipot.bipotentials as bipotentials
import bipot.blur as blur
import bipot.covers as covers
import bipot.fixtures as fixtures


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def law_lines(law) -> list[str]:
    return [f"cA = {digest(law.cA.vals)}", f"bA = {digest(law.bA.vals)}",
            f"MplusA = {digest(law.MplusA.mask)}",
            f"graph_pairs = {law.MplusA.count}"]


def run(out: str, seed: int, n: int) -> None:
    def write(step: str, lines) -> None:
        with open(os.path.join(out, f"{step}.txt"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    fix = fixtures.cone_fixture_params(0.5, 1.0, 1.0, -2.0, 2.0, n)
    cone = fixtures.cone_fixture(fix)
    write("cone.cone_fixture", [f"phi = {digest(cone.phi.vals)}",
                                f"y_star_index = {cone.y_star_index}"])
    law = blur.blur_law(cone.phi, fix.spec, fix.ygrid)
    write("cone.blur_law", law_lines(law))
    write("cone.check_bbgraph",
          bipotentials.check_bbgraph(law.MplusA).to_lines())
    write("cone.check_bipotential",
          bipotentials.check_bipotential(law.bA).to_lines())
    write("cone.check_maithm_equivalence",
          covers.check_maithm_equivalence(cone.phi, fix.eps, ygrid=fix.ygrid,
                                          pair_cap=20000, seed=seed).to_lines())
    family = covers.build_cover(cone.phi, fix.eps, fix.ygrid)
    union, mode = covers.member_graph_union(family)
    write("cone.member_graph_union", [f"members = {len(family.offsets)}",
                                      f"mode = {mode}",
                                      f"union = {digest(union.mask)}"])
    write("cone.check_newc",
          blur.check_newc(cone.phi, fix.eps, cone.y_star_index,
                          ygrid=fix.ygrid).to_lines())

    efix = fixtures.elasticity_fixture(1.0, 0.5, -2.0, 2.0, n, dim=2)
    elaw = blur.blur_law(fixtures.elasticity_phi(efix), efix.spec, efix.ygrid)
    write("elasticity.blur_law", law_lines(elaw))
    write("elasticity.check_bbgraph",
          bipotentials.check_bbgraph(elaw.MplusA).to_lines())
    write("elasticity.check_sync", bipotentials.check_sync(elaw.cA).to_lines())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n", type=int, default=41)
    args = ap.parse_args()
    spans = os.environ.get("PERFBENCH_SPANS")
    if spans:
        from tracer import Tracer
        Tracer(spans, os.environ.get("PERFBENCH_OP", "")).install()
    run(args.out, args.seed, args.n)


if __name__ == "__main__":
    main()
