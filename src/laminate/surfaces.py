"""
Rebuilding the embedded surface of a coordinate vector as a cell complex.

Every unit of every coordinate becomes one disk, numbered by tetrahedron,
then by local coordinate index, then by copy.  Parallel disks are ordered
by their position along the edges of their tetrahedron:

- the k-th triangle of type i is the k-th disk from vertex i;
- the k-th quad of type q is the k-th disk from the pair edge containing
  vertex 0 (QUAD_PAIRS[q][0]);
- the k-th octagon of type q is the k-th disk from the QUAD_PAIRS[q][0]
  side (octagon copies are nested; copy 0 has the smallest region on the
  side containing the QUAD_PAIRS[q][0] vertices).

Boundary arcs in a face are ranked by distance from the corner they cut
off, and a face gluing identifies equal-ranked arcs of equal arc type.
Each disk corner is resolved once, when its disk is made, to its point
(edge class, position along the class) and to whether the disk's
reference side points along the class's direction.  Orientability is
decided by propagating a transverse orientation across glued arcs with a
parity union-find.  The builder asserts, raising InternalCheckFailed:

- every tetrahedron edge sees as many points as its edge class;
- no two arcs claim the same (tetrahedron, face, corner, rank) slot;
- the arc counts on the two sides of every face gluing agree;
- glued arcs end on corresponding edges, at the same points, with the
  same orientation relation at both ends;
- every component has an even number of arc sides;
- the vertex count equals the weight and the disk count equals the
  coordinate sum.

The point check exercises the entire frozen disk-type table.

surface_topology answers only the number of components and whether they
are all orientable, from the same numbering and the same checks, made
once per range of parallel arcs instead of once per arc; the genus
filter calls it before it builds anything.  Both refuse a vector of more
than SURFACE_DISK_CAP disks (WorkBudgetExceeded) before any per-disk
state is allocated.
"""

from .errors import Inadmissible, InternalCheckFailed, WorkBudgetExceeded
from .normal import (COORDS_PER_TET, DISK_EDGE_WEIGHTS, QUAD_PAIRS,
                     arc_count, edge_weights, is_admissible, weight)
from .triangulation import EDGES, ParityUnionFind, edge_index


def _disk_template(kind):
    """
    The corners and boundary arcs of a disk of local coordinate index
    kind, as (corners, arcs).  For copy k of n parallel copies, a disk
    counts an offset (base, rev) as tris[base] + (n - 1 - k if rev else k),
    where tris are the tetrahedron's triangle counts and tris[4] = 0.

    - corner (4x + y, base, rev, toward_y): the point on edge xy at that
      offset from vertex x; the disk's reference side points toward y if
      toward_y, toward x otherwise;
    - arc (face, cutoff, base, rev, a, b): the arc in face that cuts off
      vertex cutoff, ranked by that offset, from corner a to corner b.
    """
    corners, index = [], {}

    def corner(x, y, base, rev=False, toward_y=False):
        index[(x, y)] = len(corners)
        corners.append((4 * x + y, base, rev, toward_y))

    if kind < 4:
        for y in range(4):
            if y != kind:
                corner(kind, y, 4)
        cuts = [(f, kind, 4, False) for f in range(4) if f != kind]
    else:
        half0, half1 = QUAD_PAIRS[(kind - 4) % 3]
        for x in half0:
            for y in half1:
                corner(x, y, x)
        if kind < 7:
            cuts = [(f, w, w, w in half1) for f in range(4)
                    for w in (half0 if f in half0 else half1) if w != f]
        else:
            # Axis corners on the half0 edge point toward their near
            # vertex; on the half1 edge the half0 side lies away from it.
            (a0, a1), (b0, b1) = half0, half1
            corner(a0, a1, a0)
            corner(a1, a0, a1)
            corner(b0, b1, b0, True, True)
            corner(b1, b0, b1, True, True)
            cuts = [(f, w, w, w in half1) for f in range(4)
                    for w in (half1 if f in half0 else half0)]
    # An arc cutting off w ends at the corners near w: the corner counted
    # from w where one is (triangle, octagon axis), else the edge's only one.
    arcs = []
    for f, w, base, rev in cuts:
        a, b = [index[(w, z)] if (w, z) in index else index[(z, w)]
                for z in range(4) if z not in (f, w)]
        arcs.append((f, w, base, rev, a, b))
    return tuple(corners), tuple(arcs)


_DISK_TEMPLATES = tuple(_disk_template(kind)
                        for kind in range(COORDS_PER_TET))


class SurfaceComponent:
    """One connected component of a rebuilt surface."""

    def __init__(self, disk_ids, chi, orientable):
        self.disk_ids = disk_ids
        self.chi = chi
        self.orientable = orientable

    @property
    def disk_count(self):
        return len(self.disk_ids)

    @property
    def genus_or_crosscap(self):
        if self.orientable:
            return (2 - self.chi) // 2
        return 2 - self.chi

    def to_json_dict(self):
        return {
            "chi": self.chi,
            "orientable": self.orientable,
            "genus_or_crosscap": self.genus_or_crosscap,
            "disk_count": self.disk_count,
        }


class NormalSurface:
    """
    The cell complex of an embeddable coordinate vector, with components,
    Euler characteristics, orientability, genus and admissibility data.
    """

    def __init__(self, tri, vector, components, vertex_count, arc_pair_count,
                 disk_count, admissibility):
        self.triangulation = tri
        self.vector = vector
        self.components = components
        self.vertex_count = vertex_count
        self.arc_pair_count = arc_pair_count
        self.disk_count = disk_count
        self.admissibility = admissibility

    @property
    def chi(self):
        return sum(c.chi for c in self.components)

    @property
    def connected(self):
        return len(self.components) == 1

    def to_json_dict(self):
        return {
            "components": [c.to_json_dict() for c in self.components],
            "chi": self.chi,
            "disk_count": self.disk_count,
            "vertex_count": self.vertex_count,
            "arc_count": self.arc_pair_count,
            "weight": weight(self.triangulation, self.vector),
        }


# The most disks a surface is rebuilt from; a vector with a larger
# coordinate sum is refused before any per-disk list is made.
SURFACE_DISK_CAP = 200_000


def _check_rebuildable(tri, v, system):
    """The admissibility report of an embeddable vector within the disk
    cap; raises Inadmissible or WorkBudgetExceeded otherwise."""
    report = is_admissible(tri, v, system=system)
    if not report.embeddable:
        raise Inadmissible("; ".join(report.messages()[:4]))
    if sum(v) > SURFACE_DISK_CAP:
        raise WorkBudgetExceeded("the surface has %d disks (budget %d)"
                                 % (sum(v), SURFACE_DISK_CAP))
    return report


def _edge_ends(tri, t, counts, class_weights):
    """
    Per ordered vertex pair 4x + y of tetrahedron t: edge xy, its class,
    its point count, and whether x is where the class's direction starts.
    Raises InternalCheckFailed when the count differs from the class's.
    """
    edge_ends = [None] * 16
    for e, (x, y) in enumerate(EDGES):
        cls, flipped = tri.edge_class_of[(t, e)]
        count = sum(c * w[e] for c, w in zip(counts, DISK_EDGE_WEIGHTS))
        if count != class_weights[cls]:
            raise InternalCheckFailed(
                "edge class %d sees %d points from tet %d but %d from "
                "its least incidence" % (cls, count, t, class_weights[cls]))
        edge_ends[4 * x + y] = (e, cls, count, not flipped)
        edge_ends[4 * y + x] = (e, cls, count, bool(flipped))
    return edge_ends


def build_surface(tri, v, system=None):
    """
    Rebuild the surface of a coordinate vector.

    The vector must satisfy the matching equations and the quad/oct
    constraint; octagon coordinates above 1 are allowed (parallel octagon
    copies), so that integer solutions of branch systems can be rebuilt
    even when they are not almost normal.  A vector of more than
    SURFACE_DISK_CAP disks is refused (WorkBudgetExceeded).
    """
    report = _check_rebuildable(tri, v, system)

    class_weights = edge_weights(tri, v)
    disk_points = []              # per disk: its corners' (class, position)
    disk_arcs = []                # per disk: its number of boundary arcs
    arc_table = {}                # (tet, face, cutoff, rank) -> disk, ends
    for t in range(tri.tet_count):
        counts = v[COORDS_PER_TET * t:COORDS_PER_TET * (t + 1)]
        shift = list(counts[:4]) + [0]
        edge_ends = _edge_ends(tri, t, counts, class_weights)
        for kind, copies in enumerate(counts):
            corner_plan, arc_plan = _DISK_TEMPLATES[kind]
            for k in range(copies):
                disk = len(disk_points)
                ks = (k, copies - 1 - k)
                points, ends = [], []
                for pair, base, rev, toward_y in corner_plan:
                    e, cls, count, start = edge_ends[pair]
                    offset = shift[base] + ks[rev]
                    point = (cls, offset if start else count - 1 - offset)
                    points.append(point)
                    # End: edge, point, reference side along the class.
                    ends.append((e, point, toward_y == start))
                for f, w, base, rev, a, b in arc_plan:
                    slot = (t, f, w, shift[base] + ks[rev])
                    if slot in arc_table:
                        raise InternalCheckFailed(
                            "duplicate arc slot %s" % (slot,))
                    arc_table[slot] = (disk, ends[a], ends[b])
                disk_points.append(points)
                disk_arcs.append(len(arc_plan))

    parity = ParityUnionFind(len(disk_points))
    conflicts = []                # disks glued against their parity
    arc_pair_count = 0
    for (side1, side2, perm) in tri.face_classes:
        (t1, f1), (t2, f2) = side1, side2
        edge_map = [edge_index(perm[x], perm[y]) for x, y in EDGES]
        for w in range(4):
            if w == f1:
                continue
            n1 = arc_count(v, t1, f1, w)
            n2 = arc_count(v, t2, f2, perm[w])
            if n1 != n2:
                raise InternalCheckFailed(
                    "arc counts differ across face gluing %s -> %s" %
                    (side1, side2))
            for rank in range(n1):
                d1, end1a, end1b = arc_table[(t1, f1, w, rank)]
                d2, end2a, end2b = arc_table[(t2, f2, perm[w], rank)]
                arc_pair_count += 1
                # Match the arc ends through the gluing permutation and
                # check they are the same points.
                rels = []
                for e1, p1, along1 in (end1a, end1b):
                    e2, p2, along2 = (end2a if end2a[0] == edge_map[e1]
                                      else end2b)
                    if e2 != edge_map[e1]:
                        raise InternalCheckFailed(
                            "glued arcs disagree on their edges")
                    if p1 != p2:
                        raise InternalCheckFailed(
                            "glued arc endpoints land on different points: "
                            "%s vs %s (tets %d,%d)" % (p1, p2, t1, t2))
                    rels.append(along1 != along2)
                if rels[0] != rels[1]:
                    raise InternalCheckFailed(
                        "orientation relation differs at the two ends of a "
                        "glued arc")
                if not parity.union(d1, d2, rels[0]):
                    conflicts.append(d1)

    # Components, Euler characteristics, orientability.  Groups are made
    # in disk order, so they come out sorted by their least disk.
    one_sided = {parity.find(d)[0] for d in conflicts}
    groups = {}
    for d in range(len(disk_points)):
        groups.setdefault(parity.find(d)[0], []).append(d)
    total_vertices = set()
    components = []
    for root, group in groups.items():
        points = set()
        arcs_in_component = 0
        for d in group:
            points.update(disk_points[d])
            arcs_in_component += disk_arcs[d]
        if arcs_in_component % 2:
            raise InternalCheckFailed("odd arc count in a component")
        chi = len(points) - arcs_in_component // 2 + len(group)
        components.append(SurfaceComponent(group, chi, root not in one_sided))
        total_vertices |= points

    surface = NormalSurface(tri, tuple(v), components,
                            vertex_count=len(total_vertices),
                            arc_pair_count=arc_pair_count,
                            disk_count=len(disk_points), admissibility=report)
    if surface.vertex_count != weight(tri, v):
        raise InternalCheckFailed("vertex count differs from weight")
    if surface.disk_count != sum(v):
        raise InternalCheckFailed("disk count differs from coordinate sum")
    return surface


def surface_topology(tri, v, system=None):
    """
    (components, orientable) of the surface of a coordinate vector: its
    number of connected components, and whether every one of them is
    orientable, found without building the cell complex.

    Disks are numbered as in build_surface.  The arcs of one face of a
    tetrahedron that cut off one corner come in at most two pieces,
    ranges of ranks filled by parallel copies of one disk kind: the
    triangles of the cutoff type, then the tetrahedron's quad or octagon.
    A face gluing matches equal ranks, so where a piece of each side
    overlap, one affine map takes a range of disks to a range of disks,
    with one orientation relation for the whole overlap.  The glued pairs
    of disks of each overlap are united in one run of a parity union-find.
    The checks of build_surface on edge point counts, arc counts, glued
    edges, glued points and orientation relations are made once per
    overlap (points at its first and last rank, which fix them in between)
    and raise InternalCheckFailed.  Inadmissible vectors and vectors over
    SURFACE_DISK_CAP disks are refused as by build_surface.
    """
    _check_rebuildable(tri, v, system)
    class_weights = edge_weights(tri, v)
    # (tet, face, cutoff) -> pieces in rank order, each (first rank, end
    # rank, disk at the first rank, disk step per rank, ends), an end
    # being (edge, reference side along the class, class, position at
    # the first rank, position step per rank).
    pieces = {}
    disk = 0
    for t in range(tri.tet_count):
        counts = v[COORDS_PER_TET * t:COORDS_PER_TET * (t + 1)]
        shift = list(counts[:4]) + [0]
        edge_ends = _edge_ends(tri, t, counts, class_weights)
        for kind, copies in enumerate(counts):
            if not copies:
                continue
            corner_plan, arc_plan = _DISK_TEMPLATES[kind]
            for f, w, base, rev, a, b in arc_plan:
                first = copies - 1 if rev else 0      # copy at the first rank
                ends = []
                for pair, cbase, crev, toward_y in (corner_plan[a],
                                                    corner_plan[b]):
                    e, cls, count, start = edge_ends[pair]
                    offset = shift[cbase] + (copies - 1 - first if crev
                                             else first)
                    step = -1 if rev != crev else 1
                    if not start:
                        offset, step = count - 1 - offset, -step
                    ends.append((e, toward_y == start, cls, offset, step))
                lo = shift[base]
                pieces.setdefault((t, f, w), []).append(
                    (lo, lo + copies, disk + first, -1 if rev else 1, ends))
            disk += copies

    parity = ParityUnionFind(disk)
    orientable = True
    for (side1, side2, perm) in tri.face_classes:
        (t1, f1), (t2, f2) = side1, side2
        edge_map = [edge_index(perm[x], perm[y]) for x, y in EDGES]
        for w in range(4):
            if w == f1:
                continue
            one = pieces.get((t1, f1, w), ())
            two = pieces.get((t2, f2, perm[w]), ())
            if (one[-1][1] if one else 0) != (two[-1][1] if two else 0):
                raise InternalCheckFailed(
                    "arc counts differ across face gluing %s -> %s" %
                    (side1, side2))
            i = j = lo = 0
            while i < len(one):
                lo1, hi1, d1, s1, ends1 = one[i]
                lo2, hi2, d2, s2, ends2 = two[j]
                hi = min(hi1, hi2)
                rels = []
                for e1, along1, cls1, p1, q1 in ends1:
                    match = [end for end in ends2 if end[0] == edge_map[e1]]
                    if not match:
                        raise InternalCheckFailed(
                            "glued arcs disagree on their edges")
                    _, along2, cls2, p2, q2 = match[0]
                    for r in (lo, hi - 1):
                        if (cls1, p1 + q1 * (r - lo1)) != \
                                (cls2, p2 + q2 * (r - lo2)):
                            raise InternalCheckFailed(
                                "glued arc endpoints land on different "
                                "points (tets %d,%d)" % (t1, t2))
                    rels.append(along1 != along2)
                if rels[0] != rels[1]:
                    raise InternalCheckFailed(
                        "orientation relation differs at the two ends of a "
                        "glued arc")
                if not parity.union_run(d1 + s1 * (lo - lo1), s1,
                                        d2 + s2 * (lo - lo2), s2, hi - lo,
                                        rels[0]):
                    orientable = False
                i += hi1 == hi
                j += hi2 == hi
                lo = hi
    return parity.classes, orientable


__all__ = ["build_surface", "surface_topology", "NormalSurface",
           "SurfaceComponent"]
