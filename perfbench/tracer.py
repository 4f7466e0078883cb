"""Span tracing of bipot layers, installed from outside the package.

``install`` wraps a fixed list of bipot functions and rebinds each wrapper
wherever a ``bipot`` module holds the original (so ``bipot.legendre.conjugate``
and ``bipot.blur.conjugate`` both record). Spans stay in memory and are
written as JSON lines when the process exits. ``aggregate`` turns span files
into per-layer totals; self time is a span's duration minus the time its
child spans cover.

The package runs single-threaded here (``BIPOT_THREADS`` unset), so one span
stack per process is enough.
"""

from __future__ import annotations

import atexit
import functools
import json
import resource
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(a):
    return int(getattr(a, "size", 0))


# counters recorded per call: name -> fn(args, kwargs, result) -> dict
def _rows_written(a, k, r):
    return {"rows": _size(_arg(a, k, 3, "vals"))}


def _rows_read(a, k, r):
    return {"rows": _size(r[1])}


def _graph_rows_written(a, k, r):
    return {"rows": int(a[0].count)}


def _graph_rows_read(a, k, r):
    return {"rows": int(r.count)}


def _lf_rows(a, k, r):
    return {"rows": int(_arg(a, k, 1, "vals").shape[0])}


def _elements(a, k, r):
    n = _size(_arg(a, k, 0, "a"))
    return {"elements": n}


def _elements_bytes(a, k, r):
    n = _size(_arg(a, k, 0, "a"))
    # computed, not measured: float64 elements read once and written once
    return {"elements": n, "bytes": 16 * n}


def _filter_elements(a, k, r):
    return {"elements": _size(_arg(a, k, 0, "vals"))}


# (span name, module, attribute, counters, record rss rise); an attribute
# "Class.method" wraps a method on the class
TARGETS = (
    ("cli.main", "bipot.cli", "main", None, False),
    ("grids.to_csv", "bipot.grids", "_write_grid_csv", _rows_written, False),
    ("grids.read_csv", "bipot.grids", "_read_grid_csv", _rows_read, False),
    ("bipotentials.GraphSet.to_csv", "bipot.bipotentials", "GraphSet.to_csv",
     _graph_rows_written, False),
    ("bipotentials.GraphSet.read_csv", "bipot.bipotentials", "GraphSet.read_csv",
     _graph_rows_read, False),
    ("legendre.conjugate", "bipot.legendre", "conjugate", None, False),
    ("kernels.lf_transform", "bipot._kernels", "lf_transform", _lf_rows, False),
    ("kernels.sliding_min", "bipot._kernels", "sliding_min", _elements_bytes, False),
    ("kernels.sliding_max_u8", "bipot._kernels", "sliding_max_u8", _elements, False),
    ("windows.ball_min_filter", "bipot.windows", "ball_min_filter",
     _filter_elements, False),
    ("windows.ball_dilate", "bipot.windows", "ball_dilate", None, False),
    ("windows.chebyshev_dilate", "bipot.windows", "chebyshev_dilate", None, False),
    ("blur.blur_law", "bipot.blur", "blur_law", None, True),
    ("blur.blurred_bipotential", "bipot.blur", "blurred_bipotential", None, True),
    ("blur.blurred_graph", "bipot.blur", "blurred_graph", None, True),
    ("blur.inf_convolve_blur", "bipot.blur", "inf_convolve_blur", None, True),
    ("blur.check_newc", "bipot.blur", "check_newc", None, False),
    ("covers.check_maithm_equivalence", "bipot.covers",
     "check_maithm_equivalence", None, True),
    ("covers.member_graph_union", "bipot.covers", "member_graph_union", None, True),
    ("covers.build_cover", "bipot.covers", "build_cover", None, False),
    ("covers.check_implicitly_convex", "bipot.covers", "check_implicitly_convex",
     None, False),
    ("bipotentials.check_bbgraph", "bipot.bipotentials", "check_bbgraph", None, False),
    ("bipotentials.check_bipotential", "bipot.bipotentials", "check_bipotential",
     None, False),
    ("bipotentials.check_sync", "bipot.bipotentials", "check_sync", None, False),
    ("bipotentials.graphs_match_within", "bipot.bipotentials",
     "graphs_match_within", None, False),
    ("convexity.is_set_convex", "bipot.convexity", "is_set_convex", None, False),
    ("convexity.batch_is_convex", "bipot.convexity", "batch_is_convex", None, False),
)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans of wrapped calls in one process."""

    def __init__(self, path: str, op: str):
        self.path = path
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add_span(self, name, start, end):
        """A span that no wrapper produced (such as process start-up)."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": None, "op": self.op, "counters": {}})

    def wrap(self, name, fn, counters=None, rss=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "counters": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            rss0 = _max_rss_mb() if rss else 0.0
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            if rss:
                span["counters"]["rss_rise_mb"] = _max_rss_mb() - rss0
            if counters is not None:
                span["counters"].update(counters(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in every bipot module."""
        import importlib

        for name, modname, attr, counters, rss in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self.wrap(name, raw.__func__, counters, rss)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, counters, rss))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, counters, rss)
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("bipot"):
                    continue
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)
        atexit.register(self.dump)

    def dump(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(paths) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and summed counters over span files."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh if line.strip()]
        children = defaultdict(list)
        for sp in spans:
            if sp["parent"] is not None:
                children[sp["parent"]].append((sp["start"], sp["end"]))
        for i, sp in enumerate(spans):
            dur = sp["end"] - sp["start"]
            agg = out[sp["name"]]
            agg["calls"] += 1
            agg["self_s"] += dur - _covered(children.get(i, ()))
            for key, val in sp["counters"].items():
                agg[key] += val
    return out
