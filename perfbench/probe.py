"""Set-up probe: time to import the bipot CLI in a fresh interpreter.

    python perfbench/probe.py [--compare-backends]

Prints one JSON object: ``t``, the ``time.monotonic()`` reading right after
``import bipot.cli`` returns (the kernel backend is chosen during that
import), plus the backend and the Python and numpy versions. With
``--compare-backends`` it also runs the three kernels through the numpy
fallback and the compiled extension on the same inputs and reports whether
the outputs are bit-identical (``null`` when the extension does not import).
"""

import time

import bipot.cli  # noqa: F401  (the import being timed)

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from bipot import _kernels  # noqa: E402


def kernel_inputs():
    """Shapes of the package's hot paths, a quarter of bench_kernels' size."""
    rng = np.random.default_rng(0)
    n, rows = 401, 500
    xs = np.linspace(-2, 2, n)
    ys = np.linspace(-4, 4, n)
    slopes = np.sort(rng.uniform(-2, 2, (rows, n - 1)), axis=1)
    vals = np.concatenate([np.zeros((rows, 1)),
                           np.cumsum(slopes * (4 / (n - 1)), axis=1)], axis=1)
    slab = rng.normal(size=(65536, 81))
    slab[rng.random(slab.shape) < 0.05] = np.inf
    masks = (rng.random((65536, 81)) < 0.03).astype(np.uint8)
    return (("lf_transform", (xs, vals, ys)), ("sliding_min", (slab, 10)),
            ("sliding_max_u8", (masks, 10)))


def compare_backends():
    """None when the extension is absent, else {kernel: bit-identical}."""
    from bipot._kernels import _fallback
    try:
        from bipot._kernels import _ext
    except ImportError:
        return None
    return {name: bool(np.array_equal(getattr(_fallback, name)(*args),
                                      getattr(_ext, name)(*args)))
            for name, args in kernel_inputs()}


if __name__ == "__main__":
    record = {"t": T_IMPORTED, "backend": _kernels.BACKEND,
              "python": platform.python_version(), "numpy": np.__version__}
    if "--compare-backends" in sys.argv[1:]:
        record["backends_identical"] = compare_backends()
    print(json.dumps(record))
