"""Exact-arithmetic engine for rational-curve counts on hypersurfaces.

Computes the hypergeometric correlators of a degree-l hypersurface in
P^m, runs the mirror change of variables, extracts the quintic genus-0
invariants and virtual curve counts, verifies the associated recursion,
polynomiality and differential-equation identities, and cross-checks the
low-degree invariants against an independent fixed-point graph sum.
Everything is computed over arbitrary-precision rationals.
"""

from .errors import (ClassPViolation, ConsistencyError, DegenerateLambda,
                     DomainError, OrderMismatch, PoleError, StructureError)
from .hbar import Poly, RatFunc
from .hypergeom import (CorrelatorFamily, HypergeomConfig, f_and_g,
                        fundamental_solution, hypersurface_series,
                        zstar_family)
from .localization import (DecoratedGraph, bott_sum, enumerate_graphs,
                           graph_contribution, oracle_crosscheck)
from .mirror import (InvariantTable, MirrorMap, build_mirror_map,
                     mirror_identity_check, multiple_cover_invert,
                     multiple_cover_sum, quintic_invariants)
from .mixed import MixedSeries
from .series import (TruncSeries, series_exp, series_log, series_reversion)

__all__ = [
    "ClassPViolation", "ConsistencyError", "CorrelatorFamily",
    "DecoratedGraph", "DegenerateLambda", "DomainError",
    "HypergeomConfig", "InvariantTable", "MirrorMap",
    "MixedSeries", "OrderMismatch", "Poly", "PoleError", "RatFunc",
    "StructureError", "TruncSeries", "bott_sum", "build_mirror_map",
    "enumerate_graphs", "f_and_g",
    "fundamental_solution", "graph_contribution", "hypersurface_series",
    "mirror_identity_check", "multiple_cover_invert", "multiple_cover_sum",
    "oracle_crosscheck", "quintic_invariants", "series_exp", "series_log",
    "series_reversion", "zstar_family",
]

__version__ = "0.1.0"
