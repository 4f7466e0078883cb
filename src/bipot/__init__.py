"""bipot: computational convex analysis for blurred monotone laws on grids.

Conjugates sampled convex functions, builds syncs and bipotentials, blurs
maximal cyclically monotone graphs by indeterminacy balls, and decides the
associated convexity conditions (BB-graphs, subdifferential-union convexity,
implicit convexity of covers).
"""

__version__ = "0.1.0"

from .bipotentials import (GraphSet, b_infinity, bipotential_from_sync,
                           check_bbgraph, check_bipotential,
                           check_cyclically_monotone, check_sync, graph_of,
                           graphs_match_within, separable,
                           sync_from_bipotential)
from .blur import (BlurSpec, BlurredLaw, blur_law, blurred_bipotential,
                   blurred_graph, check_admits_blurring, check_newc,
                   inf_convolve_blur, minkowski_blur)
from .convexity import is_convex, is_set_convex, min_filter
from .covers import (CoverFamily, build_cover, check_implicitly_convex,
                     check_maithm_equivalence, infimum_bipotential,
                     member_graph_union, reparameterize)
from .errors import (BipotError, FormatError, InvalidInputError,
                     ResolutionError)
from .extreal import ExtReal
from .grids import Grid, SampledBivariate, SampledFunction, pairing
from .legendre import (ConjugatePair, biconjugate_residual, conjugate,
                       conjugate_bruteforce, conjugate_pair,
                       default_dual_grid, subdiff_points)
from .report import CheckReport

__all__ = [
    "BipotError", "BlurSpec", "BlurredLaw", "CheckReport",
    "ConjugatePair", "CoverFamily", "ExtReal", "FormatError", "GraphSet",
    "Grid", "InvalidInputError", "ResolutionError", "SampledBivariate",
    "SampledFunction", "b_infinity", "biconjugate_residual",
    "bipotential_from_sync", "blur_law", "blurred_bipotential",
    "blurred_graph", "build_cover", "check_admits_blurring", "check_bbgraph",
    "check_bipotential", "check_cyclically_monotone",
    "check_implicitly_convex", "check_maithm_equivalence", "check_newc",
    "check_sync", "conjugate", "conjugate_bruteforce", "conjugate_pair",
    "default_dual_grid", "graph_of", "graphs_match_within",
    "inf_convolve_blur", "infimum_bipotential", "is_convex", "is_set_convex",
    "member_graph_union", "min_filter", "minkowski_blur", "pairing",
    "reparameterize", "separable", "subdiff_points", "sync_from_bipotential",
]
