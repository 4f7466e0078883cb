"""Extended-real values: R extended by +inf, under Moreau's conventions.

Sampled functions are plain float64 arrays where ``np.inf`` encodes +inf.
-inf and NaN are rejected at every construction site (:func:`as_ext_array`)
and by the CSV reader, which makes plain ``+`` and ``-`` on these arrays
safe: ``inf - finite`` and ``inf + inf`` already behave as the conventions
``a + (+inf) = +inf`` require.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

INF = math.inf


def as_ext_array(values, shape=None) -> np.ndarray:
    """Validate and return a float64 array of extended reals.

    Rejects NaN and -inf anywhere. The returned array is a read-only copy
    (or the input itself if it already owns read-only float64 data).
    """
    a = np.asarray(values, dtype=np.float64)
    if shape is not None and a.shape != tuple(shape):
        raise InvalidInputError(f"expected shape {tuple(shape)}, got {a.shape}")
    lo = a.min(initial=INF)   # NaN wins a min, so one pass sees both
    if math.isnan(lo):
        raise InvalidInputError("NaN is not an extended real")
    if lo == -INF:
        raise InvalidInputError("-inf is not representable; only +inf is")
    if a.flags.writeable or a.dtype != np.float64:
        a = a.copy()
        a.flags.writeable = False
    return a

