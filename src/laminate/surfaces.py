"""
Rebuilding the embedded surface of a coordinate vector as a cell complex.

Every unit of every coordinate becomes one disk, numbered by tetrahedron,
then by local coordinate index, then by copy.  Parallel disks are ordered
by their position along the edges of their tetrahedron: the k-th triangle
of type i is the k-th disk from vertex i, and the k-th quad or octagon of
type q the k-th disk from the QUAD_PAIRS[q][0] side (octagon copies are
nested; copy 0 has the smallest region on the side containing the
QUAD_PAIRS[q][0] vertices).

Boundary arcs in a face are ranked by distance from the corner they cut
off, and a face gluing identifies equal-ranked arcs of equal arc type.
The copies of a disk kind fill one range of ranks, a piece, in each slot
(tetrahedron, face, corner) they have arcs in.  Their corners are
resolved together, through the triangulation's gluing_table, to points,
the integers K * position + class for K edge classes, and to whether the
reference side points along the class.  A parity union-find, one union
per overlap of glued pieces, decides orientability.  build_surface
asserts, raising InternalCheckFailed, that every tetrahedron edge sees as
many points as its edge class; that the pieces of every slot tile its
ranks; that the arc counts on the two sides of every face gluing agree;
that glued arcs end at the same points (the glued slots' point lists are
compared whole) with the same orientation relation at both ends (and on
edges of one class, which gluing_table checks); that every component has
an even number of arc sides; and that the vertex count equals the weight
and the disk count the coordinate sum.  The point check exercises the
entire frozen disk-type table.

surface_topology answers only the number of components and whether they
are all orientable, with the same checks made once per range of parallel
arcs; the genus filter calls it before it builds anything.  Both refuse a
vector of more than SURFACE_DISK_CAP disks (WorkBudgetExceeded) before
any per-disk state is allocated.
"""

from itertools import chain
from operator import mul

from .errors import Inadmissible, InternalCheckFailed, WorkBudgetExceeded
from .normal import (COORDS_PER_TET, EDGE_DISK_WEIGHTS, QUAD_PAIRS,
                     edge_weights, is_admissible, weight)
from .triangulation import EDGES, ParityUnionFind


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


def _check_rebuildable(tri, v):
    """The admissibility report of an embeddable vector within the disk
    cap; raises Inadmissible or WorkBudgetExceeded otherwise."""
    report = is_admissible(tri, v)
    if not report.embeddable:
        raise Inadmissible("; ".join(report.messages()[:4]))
    if sum(v) > SURFACE_DISK_CAP:
        raise WorkBudgetExceeded("the surface has %d disks (budget %d)"
                                 % (sum(v), SURFACE_DISK_CAP))
    return report


def _disk_kinds(tri, v, ends):
    """
    (t, copies, shift, arc plan, corners) per disk kind of v, in disk order,
    shift being tetrahedron t's triangle counts and 0 and each corner (the
    reference side points along the class, class, position of copy 0, step
    per copy).  Raises InternalCheckFailed on an edge whose point count
    differs from its class's.
    """
    class_weights = edge_weights(tri, v)
    for t in range(tri.tet_count):
        counts = v[COORDS_PER_TET * t:COORDS_PER_TET * (t + 1)]
        edge_counts = [sum(map(mul, counts, column))
                       for column in EDGE_DISK_WEIGHTS]
        for (x, y), count in zip(EDGES, edge_counts):
            cls = ends[16 * t + 4 * x + y][1]
            if count != class_weights[cls]:
                raise InternalCheckFailed(
                    "edge class %d sees %d points from tet %d but %d from its"
                    " least incidence" % (cls, count, t, class_weights[cls]))
        shift = list(counts[:4]) + [0]
        for (corner_plan, arc_plan), copies in zip(_DISK_TEMPLATES, counts):
            if not copies:
                continue
            corners = []
            for pair, base, rev, toward_y in corner_plan:
                e, cls, start = ends[16 * t + pair]
                p, dp = shift[base] + (copies - 1 if rev else 0), 1 - 2 * rev
                if not start:
                    p, dp = edge_counts[e] - 1 - p, -dp
                corners.append((toward_y == start, cls, p, dp))
            yield t, copies, shift, arc_plan, corners


def build_surface(tri, v):
    """
    Rebuild the surface of a coordinate vector.

    The vector must satisfy the matching equations and the quad/oct
    constraint; octagon coordinates above 1 are allowed (parallel octagon
    copies), so that integer solutions of branch systems can be rebuilt
    even when they are not almost normal.  A vector of more than
    SURFACE_DISK_CAP disks is refused (WorkBudgetExceeded).
    """
    report = _check_rebuildable(tri, v)
    ends, glued = tri.gluing_table
    k, disk, slots = tri.edge_count, 0, [()] * len(ends)
    corner_points, corner_disks, disk_arcs = [], [], []
    for t, copies, shift, arc_plan, corners in _disk_kinds(tri, v, ends):
        points = []
        for _, cls, p, dp in corners:
            points.append(range(k * p + cls, k * (p + dp * copies) + cls,
                                k * dp))
        corner_points += points
        corner_disks += [range(disk, disk + copies)] * len(points)
        disk_arcs += [len(arc_plan)] * copies
        # A slot's pieces by rank: (end rank, d0, step, whether the reference
        # side points along the class at the first and at the second ends,
        # the point ids there by rank); the disk at rank r is d0 + step * r.
        for f, w, base, rev, a, b in arc_plan:
            slot, lo = 16 * t + 4 * f + w, shift[base]
            pieces = slots[slot]
            if lo != (pieces[-1][0] if pieces else 0):
                raise InternalCheckFailed("slot pieces overlap or leave gaps")
            slots[slot] = pieces + ((lo + copies, disk + copies - 1 + lo, -1,
                             corners[a][0], corners[b][0], points[a][::-1],
                             points[b][::-1]) if rev else
                            (lo + copies, disk - lo, 1, corners[a][0],
                             corners[b][0], points[a], points[b]),)
        disk += copies

    parity, conflicts, arc_pair_count = ParityUnionFind(disk), [], 0
    for slot1, slot2, crossed in glued:
        one, two = slots[slot1], slots[slot2]
        count = one[-1][0] if one else 0
        if count != (two[-1][0] if two else 0):
            raise InternalCheckFailed(
                "arc counts differ across face gluing %s -> %s"
                % (divmod(slot1 >> 2, 4), divmod(slot2 >> 2, 4)))
        ends1, ends2 = [], []     # the first ends by rank, then the second
        for piece in one:
            ends1 += piece[5]
        for piece in one:
            ends1 += piece[6]
        for piece in two:
            ends2 += piece[6 if crossed else 5]
        for piece in two:
            ends2 += piece[5 if crossed else 6]
        if ends1 != ends2:
            raise InternalCheckFailed("glued arc endpoints land on different "
                                      "points (tets %d,%d)"
                                      % (slot1 >> 4, slot2 >> 4))
        arc_pair_count += count
        i = j = lo = 0            # one union per overlap of two pieces
        while lo < count:
            hi1, d1, s1, along1a, along1b, _, _ = one[i]
            hi2, d2, s2, along2a, along2b, _, _ = two[j]
            if crossed:
                along2a, along2b = along2b, along2a
            rel = along1a != along2a
            if rel != (along1b != along2b):
                raise InternalCheckFailed("orientation relation differs at "
                                          "the two ends of a glued arc")
            hi = hi1 if hi1 < hi2 else hi2
            d1, d2 = d1 + s1 * lo, d2 + s2 * lo
            if not parity.union(d1, d2, rel, hi - lo, s1, s2):
                conflicts.append((d1, d2, rel, hi - lo, s1, s2))
            i, j, lo = i + (hi1 == hi), j + (hi2 == hi), hi

    # Re-uniting a pair once all are united changes nothing and reports
    # whether it is glued against its parity, as it was at its union.
    one_sided = set()
    for x, y, rel, count, dx, dy in conflicts:
        for i in range(count):
            if not parity.union(x + i * dx, y + i * dy, rel):
                one_sided.add(parity.find(x + i * dx)[0])
    # The point check chains the corners at a point around its edge, so
    # the point lies on the component of any disk with a corner there.
    point_disk = dict(zip(chain.from_iterable(corner_points),
                          chain.from_iterable(corner_disks)))
    groups = parity.groups()
    roots = [0] * disk
    for root, group in groups.items():
        for d in group:
            roots[d] = root
    vertices = dict.fromkeys(groups, 0)
    for d in point_disk.values():
        vertices[roots[d]] += 1
    components = []
    for root, group in groups.items():
        arcs = sum(map(disk_arcs.__getitem__, group))
        if arcs % 2:
            raise InternalCheckFailed("odd arc count in a component")
        components.append(SurfaceComponent(
            group, vertices[root] - arcs // 2 + len(group),
            root not in one_sided))
    if len(point_disk) != weight(tri, v):
        raise InternalCheckFailed("vertex count differs from weight")
    if disk != sum(v):
        raise InternalCheckFailed("disk count differs from coordinate sum")
    return NormalSurface(tri, tuple(v), components, len(point_disk),
                         arc_pair_count, disk, report)


def surface_topology(tri, v):
    """
    (components, orientable) of the surface of a coordinate vector: its
    number of connected components, and whether every one of them is
    orientable, found without building the cell complex.

    Disks are numbered as in build_surface.  The arcs of a slot come in at
    most two pieces, ranges of ranks filled by the copies of one disk
    kind: the triangles of the cutoff type, then the tetrahedron's quad or
    octagon.  Where pieces of two glued slots overlap, one affine map
    takes disks to disks with one orientation relation, so the overlap is
    united by one union call of a parity union-find, and the checks of
    build_surface (points at its first and last rank, which fix them in
    between) are made once per overlap.  Refusals are as by build_surface.
    """
    _check_rebuildable(tri, v)
    ends, glued = tri.gluing_table
    # slot -> pieces in rank order: (first rank, end rank, disk of copy 0,
    # copy at the first rank, copy step per rank, corners of its two ends).
    pieces = {}
    disk = 0
    for t, copies, shift, arc_plan, corners in _disk_kinds(tri, v, ends):
        for f, w, base, rev, a, b in arc_plan:
            lo = shift[base]
            pieces.setdefault(16 * t + 4 * f + w, []).append(
                (lo, lo + copies, disk, copies - 1 if rev else 0,
                 1 - 2 * rev, corners[a], corners[b]))
        disk += copies

    parity = ParityUnionFind(disk)
    orientable = True
    for slot1, slot2, crossed in glued:
        one, two = pieces.get(slot1, ()), pieces.get(slot2, ())
        if (one[-1][1] if one else 0) != (two[-1][1] if two else 0):
            raise InternalCheckFailed(
                "arc counts differ across face gluing %s -> %s"
                % (divmod(slot1 >> 2, 4), divmod(slot2 >> 2, 4)))
        i = j = lo = 0
        while i < len(one):
            lo1, hi1, d1, c1, s1, end1a, end1b = one[i]
            lo2, hi2, d2, c2, s2, end2a, end2b = two[j]
            if crossed:
                end2a, end2b = end2b, end2a
            hi = hi1 if hi1 < hi2 else hi2
            c1 += s1 * (lo - lo1)                 # the copies at rank lo
            c2 += s2 * (lo - lo2)
            for (_, cls1, p1, q1), (_, cls2, p2, q2) in ((end1a, end2a),
                                                         (end1b, end2b)):
                # Equal points at rank lo, and equal steps unless the
                # overlap is one rank, give equal points at rank hi - 1.
                if cls1 != cls2 or p1 + q1 * c1 != p2 + q2 * c2 or \
                        q1 * s1 != q2 * s2 and hi - lo > 1:
                    raise InternalCheckFailed(
                        "glued arc endpoints land on different "
                        "points (tets %d,%d)" % (slot1 >> 4, slot2 >> 4))
            rel = end1a[0] != end2a[0]
            if rel != (end1b[0] != end2b[0]):
                raise InternalCheckFailed(
                    "orientation relation differs at the two ends of a "
                    "glued arc")
            if not parity.union(d1 + c1, d2 + c2, rel, hi - lo, s1, s2):
                orientable = False
            i += hi1 == hi
            j += hi2 == hi
            lo = hi
    return parity.classes, orientable


__all__ = ["build_surface", "surface_topology", "NormalSurface",
           "SurfaceComponent"]
