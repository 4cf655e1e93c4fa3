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

``import laminate`` loads only ``laminate.errors``: each public name
imports its home module on first access (PEP 562) and is then cached
here, so a process pays only for the modules it uses.  ``laminate.cli``
serves the engine names its commands call through the same loader,
``_lazy_getattr``.
"""

import importlib

from . import errors  # noqa: F401

__version__ = "0.1.0"

# The public names by home module: both __all__ and the lazy lookup.
_EXPORTS = {
    "triangulation": ("Triangulation", "parse_triangulation"),
    "normal": ("MatchingSystem", "matching_system", "matching_cone",
               "is_admissible", "weight", "edge_weights", "haken_sum",
               "vertex_link_vector", "is_vertex_linking",
               "vertex_solutions", "fundamental_solutions",
               "iter_orthant_supports", "chi_functional_coefficients"),
    "surfaces": ("NormalSurface", "build_surface"),
    "cones": ("RationalCone", "extreme_rays", "hilbert_basis",
              "positive_integer_point", "decompose_over"),
    "branched": ("BranchedSurfaceModel", "from_support",
                 "sub_branched_surface", "carries_nonneg_chi",
                 "zero_chi_locus"),
    "finiteness": ("GenusEnumeration", "enumerate_genus",
                   "antichain_certificate", "brute_force_genus_list"),
    "traintracks": ("TrainTrack", "split", "is_subtrack", "cone_cover_check",
                    "figure_sp1_track"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy_getattr(namespace, homes):
    """The PEP 562 ``__getattr__`` of a module's globals namespace: it
    binds there each name of homes (name -> home module) on first access,
    read from the home module, so a wrapper put on the name in one
    namespace (a monkeypatch, a tracer) never reaches another."""
    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (namespace["__name__"], name))
        value = getattr(importlib.import_module("laminate." + home), name)
        namespace[name] = value
        return value
    return __getattr__


__getattr__ = _lazy_getattr(globals(), _HOME)


def __dir__():
    return sorted(set(globals()) | set(__all__))
