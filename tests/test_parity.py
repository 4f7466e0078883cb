"""tools/parity.py: one corpus line, and the diff of two runs."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_first_outcome_line():
    line = next(parity.corpus_lines())
    name, *fields = line.split(parity.SEP)
    assert name == "convex1d-1-n101 eps=0.04"
    digests = dict(f.split("=", 1) for f in fields[:4])
    assert list(digests) == ["cA", "bA", "MA", "inf"]
    # the cover's infimum is b_A bit for bit
    assert digests["inf"] == digests["bA"]
    assert [f.split(":")[0] for f in fields[4:]] == [
        "bip-bA", "sync-cA", "bbgraph-MA", "bip-separable",
        "implicit@0", "implicit@50", "implicit@100", "maithm"]
    # the separable law phi + phi* reaches the three-way equivalence
    assert fields[7].startswith("bip-separable: verdict = pass")
    assert "error =" not in line


def test_diff_prints_the_fields_that_differ(capsys):
    theirs = ["a | x=1 | y=2", "b | x=1", "c | z=0"]
    ours = ["a | x=1 | y=3", "b | x=1", "d | z=0"]
    assert parity._diff(theirs, ours, "REV") == 3
    assert capsys.readouterr().out.splitlines() == [
        "a", "  REV: y=2", "  here: y=3", "c", "  only at REV",
        "d", "  only here", "3 of 4 outcomes differ from REV"]
