"""The names of the package that the benchmark in ``perfbench/`` reaches.

The benchmark wraps the functions listed in ``perfbench/tracer.py``'s
``TARGETS`` by name and its set-up probe imports the kernel backend, so
deleting or renaming one of them breaks ``run.py --trace 1`` or the probe
without failing any other test. The files are read, never changed.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr, _, _ in tracer.TARGETS]


def _module_attributes(path):
    """(module, attribute) for each ``alias.name`` read in the script
    where ``import bipot.X as alias``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name.startswith("bipot.") and a.asname}
    return {(aliases[n.value.id], n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in aliases}


@pytest.mark.parametrize("module, attr", sorted(
    set(_targets()) | _module_attributes(PERFBENCH / "product2d.py")
    | {("bipot._kernels", "BACKEND"), ("bipot._kernels", "_fallback")}))
def test_benchmark_name_resolves(module, attr):
    functools.reduce(getattr, attr.split("."), importlib.import_module(module))
