"""
Branched-surface models over disk-type coordinates.

A model is a support: the set of disk types (branch sectors) the branched
surface is glued from, with at most one quad/oct direction per
tetrahedron and at most one octagon sector in total.  Its solution cone
is the matching cone restricted to the support; surfaces carried by the
model are the integer points of that cone, and the fundamental solutions
are its Hilbert basis.  The linear Euler characteristic functional turns
Haken decompositions into the counting certificates used downstream.
"""

from fractions import Fraction
from math import lcm

from .cones import (RationalCone, extreme_rays, hilbert_basis,
                    positive_integer_point)
from .errors import InternalCheckFailed, InvalidSupport, NotCarried
from .linalg import dot
# matching_system: unused, kept for perfbench/spans.py.
from .normal import (COORDS_PER_TET, chi_functional_coefficients,
                     matching_cone, matching_system, vector_length)
from .surfaces import build_surface


class BranchedSurfaceModel:
    """
    A supported branch system over a triangulation.  Immutable; the
    extreme rays of its cone, the fundamental solutions and the chi
    verdict are each computed once, on first use.  Every cone
    computation of the model (fundamentals, full carrying, the zero-chi
    locus) runs under the coefficient budget max_coeff_bits, when given.
    chi is the row of the linear Euler characteristic, one exact rational
    per disk type: chi(S(v)) = dot(model.chi, v) for every carried v.
    """

    def __init__(self, tri, support, max_coeff_bits=None):
        self.triangulation = tri
        self.support = frozenset(support)
        n = vector_length(tri)
        for j in self.support:
            if not (0 <= j < n):
                raise InvalidSupport("coordinate %d out of range" % j)
        oct_sectors = []
        for t in range(tri.tet_count):
            base = COORDS_PER_TET * t
            directions = [k for k in range(4, 10)
                          if base + k in self.support]
            if len(directions) > 1:
                raise InvalidSupport(
                    "tetrahedron %d has %d quad/oct sectors in the support"
                    % (t, len(directions)))
            oct_sectors.extend(base + k for k in directions if k >= 7)
        if len(oct_sectors) > 1:
            raise InvalidSupport("more than one octagon sector in the support")
        self.oct_sector = oct_sectors[0] if oct_sectors else None
        self.cone = matching_cone(tri, self.support)
        self.chi = chi_functional_coefficients(tri)
        self.max_coeff_bits = max_coeff_bits
        self._rays = None
        self._fundamentals = None
        self._verdict = None

    def _extreme_rays(self):
        if self._rays is None:
            self._rays = extreme_rays(self.cone,
                                      max_coeff_bits=self.max_coeff_bits)
        return self._rays

    def fundamentals(self):
        if self._fundamentals is None:
            self._fundamentals = tuple(hilbert_basis(
                self._extreme_rays(), max_coeff_bits=self.max_coeff_bits))
        return self._fundamentals

    @property
    def fully_carrying(self):
        return positive_integer_point(self._extreme_rays(),
                                      self.support) is not None

    def carries(self, v):
        return self.cone.contains(v)

    def chi_augmented_cone(self):
        """The branch system with the equation chi = 0 adjoined, its row
        cleared of denominators by their lcm."""
        scale = lcm(*(x.denominator for x in self.chi))
        return RationalCone(
            self.cone.matrix + (tuple(int(x * scale) for x in self.chi),),
            self.cone.dim, self.cone.support)

    def to_json_dict(self):
        funds = self.fundamentals()
        return {
            "support": sorted(self.support),
            "oct_sector": self.oct_sector,
            "fully_carrying": self.fully_carrying,
            "fundamentals": [list(f) for f in funds],
            "chi": [str(dot(self.chi, f)) for f in funds],
            "verdict": carries_nonneg_chi(self).verdict,
        }


def from_support(tri, support, max_coeff_bits=None):
    """Build a model; InvalidSupport if the quad/oct constraints fail."""
    return BranchedSurfaceModel(tri, support, max_coeff_bits=max_coeff_bits)


def sub_branched_surface(model, v):
    """
    The sub-branched surface of the sectors v passes through.  The result
    fully carries v.  Raises NotCarried when v is not in the model's cone.
    """
    if not model.carries(v):
        raise NotCarried("vector is not carried by the model")
    support = frozenset(j for j, x in enumerate(v) if x)
    return BranchedSurfaceModel(model.triangulation, support,
                                max_coeff_bits=model.max_coeff_bits)


class CarryVerdict:
    """
    Outcome of carries_nonneg_chi: one of the verdicts
    'carries_positive_chi', 'carries_zero_chi' (but none positive) or
    'all_negative_chi', with witnesses where they exist.
    """

    def __init__(self, verdict, witness, fundamental_chis,
                 torus_witness=None, klein_witness=None):
        self.verdict = verdict
        self.witness = witness
        self.fundamental_chis = fundamental_chis
        self.torus_witness = torus_witness
        self.klein_witness = klein_witness

    @property
    def all_negative(self):
        return self.verdict == "all_negative_chi"

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "fundamental_chi": [str(c) for c in self.fundamental_chis],
            "torus_witness": (list(self.torus_witness)
                              if self.torus_witness else None),
            "klein_witness": (list(self.klein_witness)
                              if self.klein_witness else None),
            # Always null: a torus witness is always found (_verdict).
            "klein_double_is_torus": None,
        }


def carries_nonneg_chi(model):
    """
    Decide whether the model carries a surface of nonnegative Euler
    characteristic.  Since chi is linear and the fundamentals generate
    every carried surface as a nonnegative integer sum, all-negative
    fundamentals certify that every carried surface has chi < 0; a
    fundamental of chi >= 0 is itself a witness.

    For the chi = 0 verdict a connected orientable chi = 0 witness (a
    torus) is searched among the chi = 0 fundamentals and then the double
    of the first; a Klein bottle met before the torus is reported too.
    The verdict is kept on the model, so it is decided once per model.
    """
    if model._verdict is None:
        model._verdict = _verdict(model)
    return model._verdict


def _verdict(model):
    tri = model.triangulation
    funds = model.fundamentals()
    chis = [dot(model.chi, f) for f in funds]
    if not funds:
        return CarryVerdict("all_negative_chi", None, chis)
    best = max(chis)
    if best > 0:
        witness = funds[chis.index(best)]
        return CarryVerdict("carries_positive_chi", witness, chis)
    if best < 0:
        return CarryVerdict("all_negative_chi", None, chis)

    # A fundamental's surface is connected (its components would sum to
    # it), so a chi = 0 one is a torus or a one-sided Klein bottle, whose
    # double is a torus: the search ends at 2 f0 at the latest.
    zero_funds = [f for f, c in zip(funds, chis) if c == 0]
    klein = None
    for v in zero_funds + [tuple(2 * x for x in zero_funds[0])]:
        s = build_surface(tri, v)
        if s.connected and s.chi == 0:
            if s.components[0].orientable:
                return CarryVerdict("carries_zero_chi", v, chis,
                                    torus_witness=v, klein_witness=klein)
            if klein is None:
                klein = v
    raise InternalCheckFailed("no torus among the chi = 0 fundamentals "
                              "and the double of the first")


def zero_chi_locus(model):
    """
    The vertices of {x in cone : sum x = 1, chi(x) = 0}: the extreme rays
    of the chi-augmented branch system, normalized to the projective
    slice.  Empty exactly when no carried measured class has chi = 0.
    """
    rays = extreme_rays(model.chi_augmented_cone(),
                        max_coeff_bits=model.max_coeff_bits)
    vertices = []
    for r in rays:
        s = sum(r)
        vertices.append(tuple(Fraction(x, s) for x in r))
    return vertices
