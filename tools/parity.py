"""Parity corpus: one line of digests and report lines per outcome.

    python3 tools/parity.py                  # print the corpus lines
    python3 tools/parity.py --against REV    # the lines that differ at REV

Run from anywhere in a source checkout; the package is imported from the
checkout's ``src/`` (or ``--src DIR``), nothing is installed. An outcome
is one law with one blur radius eps on its y-grid. Its line holds fields
separated by " | ":

  name            the law, its grid and eps;
  cA, bA, MA      sha256 prefixes of the bytes of ``blur_law``'s c_A, b_A
                  and M + A;
  inf             the same digest of ``infimum_bipotential`` of the cover;
  bip-bA, sync-cA, bbgraph-MA
                  the report lines of ``check_bipotential(b_A)``,
                  ``check_sync(c_A)`` and ``check_bbgraph(M + A)``;
  bip-separable   those of ``check_bipotential(separable(phi, ygrid))``,
                  a law that reaches the three-way equivalence where most
                  b_A fail slice convexity first;
  implicit@Y      ``check_implicitly_convex``'s report lines on the
                  cover's ``values_at(Y)``, at the first, middle and last
                  y-node of the diagonal;
  maithm          ``check_maithm_equivalence``'s report lines (cap 20000,
                  seed 1).

An outcome that raises ends with "error = <class>: <message>" instead.

The corpus: ``random_convex_1d`` seeds 1-6, plain and truncated, on 101
nodes of [-1, 1] with eps in {0.04, 0.1, 0.3, 0.5, 1.0}; the cone of the
worked example at n in {9, 17, 25, 41}; 2-D elasticity (k = 1,
eps = 0.5) at n in {11, 21, 25}. The two largest pin 2-D battery
witnesses on larger grids.

``--against REV`` unpacks ``git archive REV`` into a temporary directory,
runs the same corpus on that tree's ``src/``, and prints, for each outcome
whose line differs, the fields that differ. It exits 1 if any line
differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEP = " | "


def _digest(a) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _corpus():
    """(name, phi, eps, ygrid) for every outcome, in a fixed order."""
    import numpy as np
    from bipot.fixtures import (cone_fixture, cone_fixture_params,
                                elasticity_fixture, elasticity_phi)
    from bipot.grids import Grid
    from bipot.sampling import random_convex_1d

    line = Grid.line(-1.0, 1.0, 101)
    for seed, truncate in itertools.product(range(1, 7), (False, True)):
        phi = random_convex_1d(line, np.random.default_rng(seed), truncate)
        law = f"convex1d-{seed}{'-trunc' if truncate else ''}-n101"
        for eps in (0.04, 0.1, 0.3, 0.5, 1.0):
            yield f"{law} eps={eps}", phi, eps, line
    for n in (9, 17, 25, 41):
        fix = cone_fixture_params(n=n)
        yield f"cone-n{n} eps={fix.eps}", cone_fixture(fix).phi, fix.eps, fix.ygrid
    for n in (11, 21, 25):
        fix = elasticity_fixture(n=n, dim=2)
        yield (f"elasticity2d-n{n} eps={fix.eps}", elasticity_phi(fix),
               fix.eps, fix.ygrid)


def _lines(tag, rep) -> str:
    return f"{tag}: " + "; ".join(rep.to_lines())


def _fields(phi, eps, ygrid):
    from bipot.bipotentials import (check_bbgraph, check_bipotential,
                                    check_sync, separable)
    from bipot.blur import BlurSpec, blur_law
    from bipot.covers import (build_cover, check_implicitly_convex,
                              check_maithm_equivalence, infimum_bipotential)

    law = blur_law(phi, BlurSpec(eps), ygrid)
    yield f"cA={_digest(law.cA.vals)}"
    yield f"bA={_digest(law.bA.vals)}"
    yield f"MA={_digest(law.MplusA.mask)}"
    checks = [_lines("bip-bA", check_bipotential(law.bA)),
              _lines("sync-cA", check_sync(law.cA)),
              _lines("bbgraph-MA", check_bbgraph(law.MplusA))]
    del law
    fam = build_cover(phi, eps, ygrid)
    yield f"inf={_digest(infimum_bipotential(fam).vals)}"
    yield from checks
    yield _lines("bip-separable", check_bipotential(separable(phi, ygrid)))
    for k in (0, ygrid.n[0] // 2, ygrid.n[0] - 1):
        y = k if ygrid.dim == 1 else (k, k)
        yield _lines(f"implicit@{y}",
                     check_implicitly_convex(fam.values_at(y)))
    yield _lines("maithm", check_maithm_equivalence(
        phi, eps, ygrid=ygrid, pair_cap=20000, seed=1))


def corpus_lines():
    """One line per outcome of the corpus, on the imported ``bipot``."""
    for name, phi, eps, ygrid in _corpus():
        fields = [name]
        try:
            for f in _fields(phi, eps, ygrid):
                fields.append(f)
        except Exception as exc:   # one outcome's failure is its record
            fields.append(f"error = {type(exc).__name__}: {exc}")
        yield SEP.join(fields)


def _lines_at(rev: str) -> list[str]:
    """The corpus lines of ``git archive REV``, run in a fresh process."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, "src"], capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(tmp, filter="data")
        out = subprocess.run(
            [sys.executable, __file__, "--src", os.path.join(tmp, "src")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}).stdout
    return out.splitlines()


def _diff(theirs: list[str], ours: list[str], rev: str) -> int:
    """Print the differing fields of each outcome; the number that differ."""
    split = lambda lines: {ln.split(SEP)[0]: ln.split(SEP)[1:] for ln in lines}
    a, b = split(theirs), split(ours)
    names = list(a) + [n for n in b if n not in a]
    differ = 0
    for name in names:
        if a.get(name) == b.get(name):
            continue
        differ += 1
        print(name)
        if name not in a or name not in b:
            print(f"  only {'here' if name not in a else 'at ' + rev}")
            continue
        for fa, fb in itertools.zip_longest(a[name], b[name], fillvalue=""):
            if fa != fb:
                print(f"  {rev}: {fa}\n  here: {fb}")
    print(f"{differ} of {len(names)} outcomes differ from {rev}")
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the bipot source tree to import")
    ap.add_argument("--against", metavar="REV",
                    help="print the lines that differ at git revision REV")
    a = ap.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, a.src)
    if a.against is None:
        for ln in corpus_lines():
            print(ln, flush=True)
        return 0
    theirs = _lines_at(a.against)
    return 1 if _diff(theirs, list(corpus_lines()), a.against) else 0


if __name__ == "__main__":
    sys.exit(main())
