"""The hot inner loops: the discrete Legendre transform and the sliding
window min/max line filters, implemented in numpy in ``_fallback``.

Callers reach them as ``_kernels.<name>`` so that a tracer can rebind them.
``BACKEND`` names the implementation for benchmark records.
"""

from ._fallback import lf_transform, sliding_max_u8, sliding_min

BACKEND = "fallback"

__all__ = ["BACKEND", "lf_transform", "sliding_min", "sliding_max_u8"]
