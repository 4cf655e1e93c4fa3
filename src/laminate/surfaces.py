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
resolved together, through the triangulation's gluing_table, to points
(edge class, position along it) and to whether the reference side points
along the class.  build_surface makes one gluing pass: it walks each
face gluing overlap by overlap of its two sides' pieces and makes one
union of a parity union-find per overlap, which decides components and
orientability.  It asserts, raising InternalCheckFailed, that every
tetrahedron edge sees as many points as its edge class; that the pieces
of every slot tile its ranks; that the arc counts on the two sides of
every face gluing agree; and that glued arcs end at the same points
(checked at the first rank of an overlap and by the steps across it) with
the same orientation relation at both ends (and on edges of one class,
which gluing_table checks).  The point check exercises the entire frozen
disk-type table.  A vector of more than SURFACE_DISK_CAP disks is refused
(WorkBudgetExceeded) before any per-disk state is allocated.

The surface it returns answers connected and orientable from that pass
alone, so a rejected candidate has no cells counted.  The first read of
a cell count completes the pass per disk: it finds the one-sided
components, maps points to disks for the vertex counts, and asserts
that every component has an even number of arc sides, that the vertex
count equals the weight and the disk count the coordinate sum; the pass
is then dropped.
"""

from operator import mul

from .errors import Inadmissible, InternalCheckFailed, check_work
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


# The cell counts, in the order _count_cells returns them.
_CELLS = ("components", "vertex_count", "arc_pair_count", "disk_count")


class NormalSurface:
    """
    The cell complex of an embeddable coordinate vector, with components,
    Euler characteristics, orientability, genus and admissibility data.
    connected and orientable (every component is) come from the gluing
    pass; the fields of _CELLS are counted on the first read of any.
    """

    def __init__(self, tri, vector, admissibility, kinds, parity, conflicts):
        self.triangulation = tri
        self.vector = vector
        self.admissibility = admissibility
        self.connected = parity.classes == 1
        self.orientable = not conflicts
        self._pass = kinds, parity, conflicts

    def __getattr__(self, name):
        # Reached only while the cells are not counted yet.
        if name not in _CELLS:
            raise AttributeError(name)
        self.__dict__.update(zip(_CELLS, _count_cells(
            self.triangulation, self.vector, *self._pass)))
        del self._pass
        return self.__dict__[name]

    @property
    def chi(self):
        return sum(c.chi for c in self.components)

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
    check_work(sum(v), SURFACE_DISK_CAP, "the surface has %d disks")
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


def _glue(tri, v):
    """
    The gluing pass of build_surface: (admissibility report, disk kinds
    as listed by _disk_kinds, parity union-find over the disks,
    conflicts), conflicts being the overlaps whose union met a pair of
    disks already united against its parity, as union arguments.

    The copies of a disk kind fill one range of ranks, a piece, in each
    slot they have arcs in: the triangles of the cutoff type, then the
    tetrahedron's quad or octagon.  Where pieces of two glued slots
    overlap, one affine map takes disks to disks with one orientation
    relation, so the overlap is checked and united once.  At each end of
    an arc the position along the edge is affine in the copy, and the
    copy in the rank, on either side: equal classes and positions at the
    overlap's first rank and, unless it is one rank, equal steps per rank
    give equal points at every rank, and unequal ones differ at its
    second.
    """
    report = _check_rebuildable(tri, v)
    ends, glued = tri.gluing_table
    kinds = list(_disk_kinds(tri, v, ends))
    disk, slots = 0, [()] * len(ends)
    # A slot's pieces by rank: (end rank, disk of copy 0, copy step per
    # rank, copy at rank 0, corners of the arc's two ends).
    for t, copies, shift, arc_plan, corners in kinds:
        for f, w, base, rev, a, b in arc_plan:
            slot, lo = 16 * t + 4 * f + w, shift[base]
            pieces = slots[slot]
            if lo != (pieces[-1][0] if pieces else 0):
                raise InternalCheckFailed("slot pieces overlap or leave gaps")
            s, c0 = (-1, copies - 1 + lo) if rev else (1, -lo)
            slots[slot] = pieces + ((lo + copies, disk, s, c0, corners[a],
                                     corners[b]),)
        disk += copies

    parity, conflicts = ParityUnionFind(disk), []
    for slot1, slot2, crossed in glued:
        one, two = slots[slot1], slots[slot2]
        count = one[-1][0] if one else 0
        if count != (two[-1][0] if two else 0):
            raise InternalCheckFailed(
                "arc counts differ across face gluing %s -> %s"
                % (divmod(slot1 >> 2, 4), divmod(slot2 >> 2, 4)))
        i = j = lo = 0
        while lo < count:
            hi1, d1, s1, c1, end1a, end1b = one[i]
            hi2, d2, s2, c2, end2a, end2b = two[j]
            if crossed:
                end2a, end2b = end2b, end2a
            hi = hi1 if hi1 < hi2 else hi2
            c1 += s1 * lo                         # the copies at rank lo
            c2 += s2 * lo
            for (_, cls1, p1, q1), (_, cls2, p2, q2) in ((end1a, end2a),
                                                         (end1b, end2b)):
                if cls1 != cls2 or p1 + q1 * c1 != p2 + q2 * c2 or \
                        q1 * s1 != q2 * s2 and hi - lo > 1:
                    raise InternalCheckFailed(
                        "glued arc endpoints land on different "
                        "points (tets %d,%d)" % (slot1 >> 4, slot2 >> 4))
            rel = end1a[0] != end2a[0]
            if rel != (end1b[0] != end2b[0]):
                raise InternalCheckFailed("orientation relation differs at "
                                          "the two ends of a glued arc")
            d1, d2 = d1 + c1, d2 + c2
            if not parity.union(d1, d2, rel, hi - lo, s1, s2):
                conflicts.append((d1, d2, rel, hi - lo, s1, s2))
            i, j, lo = i + (hi1 == hi), j + (hi2 == hi), hi
    return report, kinds, parity, conflicts


def build_surface(tri, v):
    """
    Rebuild the surface of a coordinate vector.

    The vector must satisfy the matching equations and the quad/oct
    constraint; octagon coordinates above 1 are allowed (parallel octagon
    copies), so that integer solutions of branch systems can be rebuilt
    even when they are not almost normal.  A vector of more than
    SURFACE_DISK_CAP disks is refused (WorkBudgetExceeded).
    """
    return NormalSurface(tri, tuple(v), *_glue(tri, v))


def _count_cells(tri, v, kinds, parity, conflicts):
    """The values of _CELLS for the surface of v from its gluing pass."""
    # Re-uniting a pair once all are united changes nothing and reports
    # whether it is glued against its parity, as it was at its union.
    one_sided = set()
    for x, y, rel, count, dx, dy in conflicts:
        for i in range(count):
            if not parity.union(x + i * dx, y + i * dy, rel):
                one_sided.add(parity.find(x + i * dx)[0])
    # The point check chains the corners at a point around its edge, so
    # the point lies on the component of any disk with a corner there.
    k, disk, point_disk, disk_arcs = tri.edge_count, 0, {}, []
    for _, copies, _, arc_plan, corners in kinds:
        for _, cls, p, dp in corners:
            point_disk.update(zip(range(k * p + cls,
                                        k * (p + dp * copies) + cls, k * dp),
                                  range(disk, disk + copies)))
        disk_arcs += [len(arc_plan)] * copies
        disk += copies
    groups = parity.groups()
    roots = [0] * disk
    for root, group in groups.items():
        for d in group:
            roots[d] = root
    vertices = dict.fromkeys(groups, 0)
    for d in point_disk.values():
        vertices[roots[d]] += 1
    # Every arc side is glued to exactly one other: arc pairs are half
    # the arc sides.
    components, arc_count = [], 0
    for root, group in groups.items():
        arcs = sum(map(disk_arcs.__getitem__, group))
        if arcs % 2:
            raise InternalCheckFailed("odd arc count in a component")
        arc_count += arcs
        components.append(SurfaceComponent(
            group, vertices[root] - arcs // 2 + len(group),
            root not in one_sided))
    if len(point_disk) != weight(tri, v):
        raise InternalCheckFailed("vertex count differs from weight")
    if disk != sum(v):
        raise InternalCheckFailed("disk count differs from coordinate sum")
    return components, len(point_disk), arc_count // 2, disk


__all__ = ["build_surface", "NormalSurface", "SurfaceComponent"]
