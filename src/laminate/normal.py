"""
Normal and almost-normal coordinates, matching equations, weights.

Coordinate layout
-----------------
A coordinate vector over a triangulation with n tetrahedra has 10n
nonnegative integer entries, tetrahedron-major::

    10*t + 0..3   triangles; triangle i cuts off vertex i
    10*t + 4..6   quadrilaterals; quad q separates the opposite edge pair
                  QUAD_PAIRS[q]
    10*t + 7..9   octagons; octagon q meets both edges of QUAD_PAIRS[q]
                  twice and the other four edges once

Quad/oct type q is indexed by the pair of opposite edges
QUAD_PAIRS[q] = (edge containing vertex 0, complementary edge):

    q = 0: (0,1) | (2,3)
    q = 1: (0,2) | (1,3)
    q = 2: (0,3) | (1,2)

Disk-type combinatorics (frozen; validated against the cell-complex
Euler characteristic oracle in surfaces.py):

- A triangle of type i has one boundary arc in each face f != i, cutting
  off corner i of that face, and meets the three edges at vertex i once.
- A quad of type q has one arc in each face f; the arc cuts off the
  corner paired with f in QUAD_PAIRS[q].  It meets the four edges not in
  its pair once each.
- An octagon of type q has two arcs in each face f, cutting off the two
  corners of the half of QUAD_PAIRS[q] not containing f; it meets the
  two pair edges twice each and the other four edges once each.  (This
  is the unique connected normal boundary curve of length 8 for each
  pair; its boundary closes up into a single octagonal circle, which the
  surface builder asserts.)

Matching equations: one equation per (face class, arc type), where the
three arc types of a face are indexed by the face corner they cut off.
The arc cutting off corner v of face f receives contributions from
triangle v, from the quad whose pair contains edge {f,v}, and from the
two octagon types whose pairs separate f from v.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import mul

from .cones import RationalCone, extreme_rays, hilbert_basis
from .errors import Inadmissible, IncompatibleQuads, check_work
from .triangulation import EDGES, EDGE_INDEX, edge_index

COORDS_PER_TET = 10

# The subset tests fundamental_solutions' orthant walk may make: orthants
# times vertex solutions, about 70-135 ns each on a 2-core x86-64 VM.
ORTHANT_WALK_CAP = 200_000_000

QUAD_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

# Quad type whose separated pair contains a given edge.
QUAD_TYPE_OF_EDGE = [None] * 6
for _q, (_ea, _eb) in enumerate(QUAD_PAIRS):
    QUAD_TYPE_OF_EDGE[EDGE_INDEX[_ea]] = _q
    QUAD_TYPE_OF_EDGE[EDGE_INDEX[_eb]] = _q

# Edges met by each disk type (local index 0..9), with multiplicities.
DISK_EDGE_WEIGHTS = []
for _i in range(4):
    DISK_EDGE_WEIGHTS.append(
        tuple(1 if _i in EDGES[_e] else 0 for _e in range(6)))
for _q in range(3):
    DISK_EDGE_WEIGHTS.append(
        tuple(0 if QUAD_TYPE_OF_EDGE[_e] == _q else 1 for _e in range(6)))
for _q in range(3):
    DISK_EDGE_WEIGHTS.append(
        tuple(2 if QUAD_TYPE_OF_EDGE[_e] == _q else 1 for _e in range(6)))
DISK_EDGE_WEIGHTS = tuple(DISK_EDGE_WEIGHTS)
# The same table by edge: EDGE_DISK_WEIGHTS[e][k] = DISK_EDGE_WEIGHTS[k][e].
EDGE_DISK_WEIGHTS = tuple(zip(*DISK_EDGE_WEIGHTS))

# Boundary arc counts: ARC_DISKS[(f, v)] = local disk indices contributing
# one arc that cuts off corner v of face f.
ARC_DISKS = {}
for _f in range(4):
    for _v in range(4):
        if _v == _f:
            continue
        contributors = [_v]                      # triangle v
        contributors.append(4 + QUAD_TYPE_OF_EDGE[edge_index(_f, _v)])
        for _q in range(3):
            half0, half1 = QUAD_PAIRS[_q]
            if (_f in half0) != (_v in half0):   # f, v in different halves
                contributors.append(7 + _q)
        ARC_DISKS[(_f, _v)] = tuple(contributors)

ARC_COUNT_PER_DISK = (3, 3, 3, 3, 4, 4, 4, 8, 8, 8)


def tri_index(t, i):
    return COORDS_PER_TET * t + i


def quad_index(t, q):
    return COORDS_PER_TET * t + 4 + q


def oct_index(t, q):
    return COORDS_PER_TET * t + 7 + q


def vector_length(tri):
    return COORDS_PER_TET * tri.tet_count


def quad_oct_clashes(tri, v):
    """
    The quad/oct rule, MatchingSystem.exclusive, on a vector or a support's
    0/1 vector: the tetrahedra with two or more nonzero quad/oct
    coordinates, and the nonzero octagon coordinates.
    """
    octs, *tets = tri.matching_system.exclusive
    return ([t for t, group in enumerate(tets)
             if [v[j] for j in group].count(0) < 5],
            [j for j in octs if v[j]])


class MatchingSystem:
    """
    The integer matrix of normal-arc matching equations of a triangulation.

    rows[i] is the tuple of a row's nonzero (index, coefficient) pairs over
    the full coordinate space, indices increasing; labels[i] is
    (face_class_index, corner) where corner is the cut-off vertex on the
    class's first side.  Coefficients are +1 for side-1 contributions and
    -1 for side-2 contributions; a coordinate on both sides (both in one
    tetrahedron) cancels and is left out.
    """

    def __init__(self, tri):
        self.triangulation = tri
        rows = []
        labels = []
        for idx, (side1, side2, perm) in enumerate(tri.face_classes):
            (t1, f1), (t2, f2) = side1, side2
            for v in range(4):
                if v == f1:
                    continue
                plus = {COORDS_PER_TET * t1 + k for k in ARC_DISKS[(f1, v)]}
                minus = {COORDS_PER_TET * t2 + k
                         for k in ARC_DISKS[(f2, perm[v])]}
                rows.append(tuple(sorted([(j, 1) for j in plus - minus]
                                         + [(j, -1) for j in minus - plus])))
                labels.append((idx, v))
        self.rows = tuple(rows)
        self.labels = tuple(labels)

    @cached_property
    def q_rows(self):
        """
        Tollefson's Q-matching rows (Pacific J. Math. 183, 1998), with
        Burton's octagon terms (Exp. Math. 19, 2010), in the form of rows:
        rows of the matching row space that vanish on every triangle
        coordinate, spanning all of them.  Integer elimination of the
        triangle columns out of the rows, each pivot row dropped once used
        and each combination divided by its gcd; the rows left, zero rows
        dropped, are these.  Built on first use.
        """
        rows = [dict(row) for row in self.rows]
        for t in range(self.triangulation.tet_count):
            for col in range(COORDS_PER_TET * t, COORDS_PER_TET * t + 4):
                at = next((i for i, r in enumerate(rows) if col in r), None)
                if at is None:
                    continue
                pivot = rows.pop(at)
                p = pivot[col]
                for i, row in enumerate(rows):
                    a = row.get(col)
                    if a:
                        combo = {j: p * row.get(j, 0) - a * pivot.get(j, 0)
                                 for j in row.keys() | pivot.keys()}
                        g = gcd(*combo.values())
                        rows[i] = {j: x // g for j, x in combo.items() if x}
        return tuple(tuple(sorted(row.items())) for row in rows if row)

    @cached_property
    def chi(self):
        """
        Rational coefficients c with c . v = chi(surface of v) for every
        vector v satisfying the embedding constraints.  Built on first use.

        Per disk type: 1 (the disk) - arcs/2 (each boundary arc is shared
        by two disks) + sum over edge intersections of 1/deg (each point on
        an edge class of degree d is shared by d disk corners).  The terms
        are summed as integer numerators over lcm(2, degrees).
        """
        tri = self.triangulation
        degrees = tri.edge_degrees()
        denom = lcm(2, *degrees)
        coeffs = []
        for t in range(tri.tet_count):
            # denom / deg per edge of the tetrahedron.
            shares = [denom // degrees[tri.edge_class_of[(t, e)][0]]
                      for e in range(6)]
            for arcs, meets in zip(ARC_COUNT_PER_DISK, DISK_EDGE_WEIGHTS):
                coeffs.append(Fraction(
                    denom - arcs * denom // 2
                    + sum(map(mul, meets, shares)), denom))
        return tuple(coeffs)

    @cached_property
    def exclusive(self):
        """
        The quad/oct rule: the coordinate groups of which an admissible
        vector uses at most one coordinate each, all the octagons first,
        then each tetrahedron's quads and octagons.  Built on first use.
        """
        tets = [tuple(range(COORDS_PER_TET * t + 4, COORDS_PER_TET * t + 10))
                for t in range(self.triangulation.tet_count)]
        return (tuple(j for group in tets for j in group[3:]), *tets)

    def residual(self, v):
        # Plain loops: a comprehension per row costs a frame per row, and
        # every surface rebuild opens with this check.
        out = []
        for row in self.rows:
            total = 0
            for j, c in row:
                total += c * v[j]
            out.append(total)
        return tuple(out)

    def __len__(self):
        return len(self.rows)


def matching_system(tri):
    """The triangulation's one matching system, built on first use."""
    return tri.matching_system


class AdmissibilityReport:
    """Outcome of is_admissible with the failed constraints listed."""

    def __init__(self, matching_failures, quad_violations, almost_normal_errors):
        self.matching_failures = matching_failures
        self.quad_violations = quad_violations
        self.almost_normal_errors = almost_normal_errors

    @property
    def embeddable(self):
        """The matching equations and the quad/oct constraint hold: the
        precondition for rebuilding a surface, which unlike admissibility
        allows octagon coordinates above one (parallel octagon copies)."""
        return not (self.matching_failures or self.quad_violations)

    @property
    def admissible(self):
        return self.embeddable and not self.almost_normal_errors

    def __bool__(self):
        return self.admissible

    def messages(self):
        out = []
        for (cls, corner, value) in self.matching_failures:
            out.append("matching equation (face class %d, corner %d) has "
                       "residual %d" % (cls, corner, value))
        for t in self.quad_violations:
            out.append("tetrahedron %d uses more than one quad/oct "
                       "direction" % t)
        out.extend(self.almost_normal_errors)
        return out


def is_admissible(tri, v):
    """
    Check nonnegativity is assumed; returns an AdmissibilityReport that is
    truthy exactly when v satisfies the matching equations, the quad/oct
    constraint (at most one of the six quad/oct coordinates nonzero per
    tetrahedron) and the almost-normal constraint (at most one octagon
    coordinate nonzero in the whole vector, with value at most 1).
    """
    if len(v) != vector_length(tri):
        raise Inadmissible("vector has length %d, expected %d"
                           % (len(v), vector_length(tri)))
    if min(v) < 0:
        raise Inadmissible("vector has negative entries")
    system = matching_system(tri)
    matching_failures = []
    for label, value in zip(system.labels, system.residual(v)):
        if value != 0:
            matching_failures.append((label[0], label[1], value))
    quad_violations, octs = quad_oct_clashes(tri, v)
    almost = []
    if len(octs) > 1:
        almost.append("more than one octagon coordinate is nonzero")
    if any(v[j] > 1 for j in octs):
        almost.append("an octagon coordinate exceeds 1")
    return AdmissibilityReport(matching_failures, quad_violations, almost)


def edge_weights(tri, v):
    """
    Intersection count of v with each edge class, computed linearly from
    the disk types at the class's least incidence.  For vectors satisfying
    the matching equations every incidence gives the same count.
    """
    out = []
    for cls in tri.edge_classes:
        t, e, _ = cls[0]
        base = COORDS_PER_TET * t
        out.append(sum(map(mul, v[base:base + COORDS_PER_TET],
                           EDGE_DISK_WEIGHTS[e])))
    return out


def weight(tri, v):
    """Total weight |S intersect 1-skeleton| of the surface of v."""
    return sum(edge_weights(tri, v))


def haken_sum(tri, v, w):
    """
    The Haken sum of two coordinate vectors: componentwise addition,
    provided the sum still satisfies the quad/oct constraint.  Euler
    characteristic and weight are additive under this sum.
    """
    s = tuple(a + b for a, b in zip(v, w))
    for t in quad_oct_clashes(tri, s)[0]:
        raise IncompatibleQuads(
            "tetrahedron %d would receive two quad/oct directions" % t)
    return s


def vertex_link_vector(tri, vertex_class):
    """The linking sphere of a vertex class: one triangle per incidence."""
    v = [0] * vector_length(tri)
    for (t, i) in tri.vertex_classes[vertex_class]:
        v[tri_index(t, i)] = 1
    return tuple(v)


def is_vertex_linking(tri, v):
    """
    True when v is a nonnegative integer combination of vertex-linking
    vectors: all quad and octagon coordinates vanish and the triangle
    weight is constant on each vertex class.
    """
    if any(x for j, x in enumerate(v) if j % COORDS_PER_TET >= 4):
        return False
    for cls in tri.vertex_classes:
        values = {v[tri_index(t, i)] for (t, i) in cls}
        if len(values) > 1:
            return False
    return True


def matching_cone(tri, support=None):
    """The cone of nonnegative solutions of the matching equations."""
    return RationalCone(matching_system(tri).rows, vector_length(tri),
                        support)


def iter_orthant_supports(tri, include_octs=False):
    """
    The maximal supports allowed by MatchingSystem.exclusive: the
    triangles plus one quad of each tetrahedron, or, when requested, one
    octagon in one tetrahedron and a quad in each other: 3^n supports, or
    3^n (1 + n) with octagons.  Every other allowed support, with some
    tetrahedron carrying neither a quad nor an octagon, is a coordinate
    face of one of these, and a face's extreme rays and Hilbert basis are
    among those of the larger cone.  Deterministic order: one product of
    the choices per octagon placement, none first.
    """
    octs, *tets = tri.matching_system.exclusive
    triangles = frozenset(range(vector_length(tri))).difference(*tets)
    quads = [[j for j in group if j not in octs] for group in tets]
    for placement in (None, *octs) if include_octs else (None,):
        for combo in product(*[[placement] if placement in group else q
                               for group, q in zip(tets, quads)]):
            yield triangles.union(combo)


def vertex_solutions(tri, include_octs=False, max_coeff_bits=None):
    """
    Extreme rays of the admissible solution set, in canonical primitive
    form, sorted: the union of the extreme rays of the maximal quad/oct
    orthants' matching cones, found by one filtered double description
    over the triangle and quad coordinates, and the octagon coordinates
    when requested, whose exclusive groups are MatchingSystem.exclusive.
    Each orthant cone is a face of the run's cone, so the run's
    admissible extreme rays are exactly the union of the orthants'.

    The Q rows go in first, so the run first solves the quad(-oct)
    equations with every triangle coordinate free, and the matching rows
    then lift those solutions to standard coordinates (Burton, AGT 9,
    2009).  Each group goes in by its rows' last, then first, index inside
    the support (ties in order), so the tetrahedra join one at a time
    (Burton, Math. Comp. 79, 2010).
    """
    system = matching_system(tri)
    outside = () if include_octs else frozenset(system.exclusive[0])
    support = [j for j in range(vector_length(tri)) if j not in outside]

    def key(row):
        used = [j for j, _ in row if j not in outside]
        return (used[-1], used[0]) if used else (-1, -1)

    rows = sorted(system.q_rows, key=key) + sorted(system.rows, key=key)
    return extreme_rays(RationalCone(rows, vector_length(tri), support),
                        max_coeff_bits, system.exclusive)


def fundamental_solutions(tri, include_octs=False, max_coeff_bits=None):
    """
    Fundamental solutions of the admissible set: the union over the
    maximal quad/oct orthants of the Hilbert bases of the restricted
    matching cones.  Every admissible integer vector is a nonnegative
    integer combination of these (within its own orthant).

    Each orthant cone is the face of the nonnegative matching cone
    spanned by the vertex solutions it supports, which are its extreme
    rays.  A face inside another is a face of it, whose Hilbert basis is
    the larger one's cut to it, so one Hilbert basis is computed per
    distinct maximal face, on the coordinates its rays use.  A walk that
    would make more than ORTHANT_WALK_CAP subset tests (orthants times
    vertex solutions) is refused (WorkBudgetExceeded) before it starts.
    """
    rays = vertex_solutions(tri, include_octs, max_coeff_bits)
    n = tri.tet_count
    check_work(3 ** n * (1 + n if include_octs else 1) * len(rays),
               ORTHANT_WALK_CAP, "the orthant walk makes %d subset tests")
    supports = [frozenset(j for j, x in enumerate(r) if x) for r in rays]
    faces = list(dict.fromkeys(
        frozenset(i for i, s in enumerate(supports) if s <= orthant)
        for orthant in iter_orthant_supports(tri, include_octs)))
    out = set()
    for face in faces:
        if not any(face < other for other in faces):
            out.update(hilbert_basis([rays[i] for i in face],
                                     max_coeff_bits=max_coeff_bits))
    return sorted(out)


def chi_functional_coefficients(tri):
    """The triangulation's one chi row (MatchingSystem.chi)."""
    return matching_system(tri).chi
