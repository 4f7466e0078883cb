"""bipot: computational convex analysis for blurred monotone laws on grids.

Conjugates sampled convex functions, builds syncs and bipotentials, blurs
maximal cyclically monotone graphs by indeterminacy balls, and decides the
associated convexity conditions (BB-graphs, subdifferential-union convexity,
implicit convexity of covers).

``import bipot`` loads no submodule (and so not numpy): each public name is
imported from its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "bipotentials": "GraphSet check_bbgraph check_bipotential "
                        "check_cyclically_monotone check_sync graph_of "
                        "graphs_match_within separable sync_from_bipotential",
        "blur": "BlurSpec BlurredLaw blur_law blurred_bipotential "
                "blurred_graph check_admits_blurring check_newc "
                "check_newc_all inf_convolve_blur minkowski_blur",
        "convexity": "is_convex is_set_convex",
        "covers": "CoverFamily build_cover check_implicitly_convex "
                  "check_maithm_equivalence infimum_bipotential "
                  "member_graph_union",
        "errors": "BipotError FormatError InvalidInputError ResolutionError",
        "grids": "Grid SampledBivariate SampledFunction pairing",
        "legendre": "conjugate default_dual_grid",
        "report": "CheckReport",
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
