"""
laminate: exact combinatorics of normal and almost-normal surfaces,
branched surfaces and train tracks over closed orientable triangulated
3-manifolds.

The public surface mirrors the module layout: triangulations and their
skeleta (triangulation), coordinate vectors and matching equations
(normal), surface reconstruction and Haken sums (surfaces), the exact
polyhedral engine (cones), branched-surface models with the linear Euler
characteristic functional (branched), fixed-genus enumeration with the
antichain certificate (finiteness), and weighted train-track splitting
(traintracks).
"""

__version__ = "0.1.0"

from .triangulation import Triangulation, parse_triangulation
from .normal import (MatchingSystem, matching_system, matching_cone,
                     is_admissible, weight, edge_weights, haken_sum,
                     vertex_link_vector, is_vertex_linking,
                     vertex_solutions, fundamental_solutions,
                     iter_orthant_supports, chi_functional_coefficients)
from .surfaces import NormalSurface, build_surface
from .cones import (RationalCone, extreme_rays, hilbert_basis,
                    positive_integer_point, decompose_over)
from .branched import (BranchedSurfaceModel, from_support,
                       sub_branched_surface, carries_nonneg_chi,
                       zero_chi_locus)
from .finiteness import (GenusEnumeration, enumerate_genus,
                         antichain_certificate, brute_force_genus_list)
from .traintracks import (TrainTrack, split, is_subtrack, cone_cover_check,
                          figure_sp1_track)

__all__ = [
    "Triangulation", "parse_triangulation",
    "MatchingSystem", "matching_system", "matching_cone", "is_admissible",
    "weight", "edge_weights", "haken_sum", "vertex_link_vector",
    "is_vertex_linking", "vertex_solutions", "fundamental_solutions",
    "iter_orthant_supports", "chi_functional_coefficients",
    "NormalSurface", "build_surface",
    "RationalCone", "extreme_rays", "hilbert_basis",
    "positive_integer_point", "decompose_over",
    "BranchedSurfaceModel", "from_support", "sub_branched_surface",
    "carries_nonneg_chi", "zero_chi_locus",
    "GenusEnumeration", "enumerate_genus", "antichain_certificate",
    "brute_force_genus_list",
    "TrainTrack", "split", "is_subtrack", "cone_cover_check",
    "figure_sp1_track",
]
