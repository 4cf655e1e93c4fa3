"""
Rebuilding the embedded surface of a coordinate vector as a cell complex.

Every unit of every coordinate becomes one disk.  Parallel disks are
ordered by their position along the edges of their tetrahedron:

- the k-th triangle of type i is the k-th disk from vertex i;
- the k-th quad of type q is the k-th disk from the pair edge containing
  vertex 0 (QUAD_PAIRS[q][0]);
- the k-th octagon of type q is the k-th disk from the QUAD_PAIRS[q][0]
  side (octagon copies are nested; copy 0 has the smallest region on the
  side containing the QUAD_PAIRS[q][0] vertices).

Boundary arcs in a face are ranked by distance from the corner they cut
off, and a face gluing identifies equal-ranked arcs of equal arc type.
Corner points on an edge are positioned along the edge; the builder
asserts that the two ends of every glued arc land on the same points of
the same edge classes, which exercises the entire frozen disk-type
table.  Orientability is decided by propagating a transverse orientation
across glued arcs with a parity union-find.
"""

from .errors import Inadmissible, InternalCheckFailed
from .normal import (COORDS_PER_TET, QUAD_PAIRS, QUAD_TYPE_OF_EDGE,
                     arc_count, edge_weights, haken_sum, is_admissible,
                     is_vertex_linking, weight)
from .triangulation import EDGES, ParityUnionFind, edge_index


class _Disk:
    __slots__ = ("id", "tet", "kind", "copy", "corners", "arcs")

    def __init__(self, disk_id, tet, kind, copy):
        self.id = disk_id
        self.tet = tet
        self.kind = kind          # local coordinate index 0..9
        self.copy = copy
        self.corners = {}         # (edge, near) -> (pos_from_low_end, side_a)
        self.arcs = []            # (face, cutoff, rank, corner_key_a, corner_key_b)


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
    Euler characteristics, orientability and genus data.
    """

    def __init__(self, tri, vector, components, vertex_count, arc_pair_count,
                 disk_count):
        self.triangulation = tri
        self.vector = vector
        self.components = components
        self.vertex_count = vertex_count
        self.arc_pair_count = arc_pair_count
        self.disk_count = disk_count

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


def _tet_profile(v, t):
    """(tri counts, quad type or None, quad count, oct type or None, count)."""
    base = COORDS_PER_TET * t
    tris = tuple(v[base + i] for i in range(4))
    quad_type = quad_count = oct_type = oct_count = None
    for q in range(3):
        if v[base + 4 + q]:
            quad_type, quad_count = q, v[base + 4 + q]
        if v[base + 7 + q]:
            oct_type, oct_count = q, v[base + 7 + q]
    return tris, quad_type, quad_count, oct_type, oct_count


def _build_tet_disks(tri, v, t, next_id):
    """Construct the disks of tetrahedron t with corners and arcs."""
    tris, quad_type, quad_count, oct_type, oct_count = _tet_profile(v, t)
    disks = []

    def edge_points(e):
        # Total surface points on edge e of this tetrahedron.
        u, w = EDGES[e]
        total = tris[u] + tris[w]
        if quad_type is not None and QUAD_TYPE_OF_EDGE[e] != quad_type:
            total += quad_count
        if oct_type is not None:
            total += 2 * oct_count if QUAD_TYPE_OF_EDGE[e] == oct_type else oct_count
        return total

    def pos_from(e, x, offset):
        # Position along edge e counted from endpoint x, re-expressed from
        # the canonical low endpoint of e.
        u, w = EDGES[e]
        if x == u:
            return offset
        return edge_points(e) - 1 - offset

    # Triangles: copy k is the k-th disk from vertex i.
    for i in range(4):
        for k in range(tris[i]):
            d = _Disk(next_id, t, i, k)
            for j in range(4):
                if j == i:
                    continue
                e = edge_index(i, j)
                d.corners[(e, None)] = (pos_from(e, i, k), i)
            for f in range(4):
                if f == i:
                    continue
                x, y = [z for z in range(4) if z not in (i, f)]
                d.arcs.append((f, i, k,
                               (edge_index(i, x), None),
                               (edge_index(i, y), None)))
            disks.append(d)
            next_id += 1

    # Quads: copy k is the k-th disk from the QUAD_PAIRS[q][0] edge.
    if quad_type is not None:
        half0, half1 = QUAD_PAIRS[quad_type]
        for k in range(quad_count):
            d = _Disk(next_id, t, 4 + quad_type, k)
            for x in half0:
                for y in half1:
                    e = edge_index(x, y)
                    offset = tris[x] + k
                    d.corners[(e, None)] = (pos_from(e, x, offset), x)
            for f in range(4):
                w = [z for z in (half0 if f in half0 else half1) if z != f][0]
                rank = tris[w] + (k if w in half0 else quad_count - 1 - k)
                x, y = half1 if w in half0 else half0
                d.arcs.append((f, w, rank,
                               (edge_index(w, x), None),
                               (edge_index(w, y), None)))
            disks.append(d)
            next_id += 1

    # Octagons: copy k has the k-th smallest region on the half0 side.
    if oct_type is not None:
        half0, half1 = QUAD_PAIRS[oct_type]
        for k in range(oct_count):
            d = _Disk(next_id, t, 7 + oct_type, k)
            a0, a1 = half0
            b0, b1 = half1
            ea, eb = edge_index(a0, a1), edge_index(b0, b1)
            # Axis corners on the half0 edge point toward their near vertex;
            # on the half1 edge the half0 side lies away from the near vertex.
            d.corners[(ea, a0)] = (pos_from(ea, a0, tris[a0] + k), a0)
            d.corners[(ea, a1)] = (pos_from(ea, a1, tris[a1] + k), a1)
            d.corners[(eb, b0)] = (pos_from(eb, b0,
                                            tris[b0] + oct_count - 1 - k), b1)
            d.corners[(eb, b1)] = (pos_from(eb, b1,
                                            tris[b1] + oct_count - 1 - k), b0)
            for x in half0:
                for y in half1:
                    e = edge_index(x, y)
                    d.corners[(e, None)] = (pos_from(e, x, tris[x] + k), x)
            for f in range(4):
                far = half1 if f in half0 else half0
                for w in far:
                    rank = tris[w] + (k if w in half0 else oct_count - 1 - k)
                    ends = []
                    for z in range(4):
                        if z == f or z == w:
                            continue
                        e = edge_index(w, z)
                        near = w if QUAD_TYPE_OF_EDGE[e] == oct_type else None
                        ends.append((e, near))
                    d.arcs.append((f, w, rank, ends[0], ends[1]))
            disks.append(d)
            next_id += 1

    return disks, next_id, edge_points


def build_surface(tri, v, system=None):
    """
    Rebuild the surface of a coordinate vector.

    The vector must satisfy the matching equations and the quad/oct
    constraint; octagon coordinates above 1 are allowed (parallel octagon
    copies), so that integer solutions of branch systems can be rebuilt
    even when they are not almost normal.
    """
    report = is_admissible(tri, v, system=system)
    if not report.embeddable:
        raise Inadmissible("; ".join(report.messages()[:4]))

    disks = []
    next_id = 0
    edge_points_of_tet = {}
    for t in range(tri.tet_count):
        tet_disks, next_id, edge_points = _build_tet_disks(tri, v, t, next_id)
        disks.extend(tet_disks)
        edge_points_of_tet[t] = edge_points

    # Geometric point of a disk corner: (edge class, position along class).
    class_weights = edge_weights(tri, v)

    def corner_point(tet, corner_key, corner_value):
        e = corner_key[0]
        pos = corner_value[0]
        cls, flipped = tri.edge_class_of[(tet, e)]
        count = edge_points_of_tet[tet](e)
        if count != class_weights[cls]:
            raise InternalCheckFailed(
                "edge class %d sees %d points from tet %d but %d from its "
                "least incidence" % (cls, count, tet, class_weights[cls]))
        return (cls, pos if not flipped else count - 1 - pos)

    def corner_class_direction(tet, corner_key, corner_value):
        # +1 when the disk's reference side points toward the class's
        # reference direction, -1 otherwise.
        e = corner_key[0]
        toward = corner_value[1]
        _, flipped = tri.edge_class_of[(tet, e)]
        local = 1 if toward == EDGES[e][1] else -1
        return -local if flipped else local

    # Index arcs by (tet, face, cutoff corner, rank).
    arc_table = {}
    for d in disks:
        for (f, w, rank, key_a, key_b) in d.arcs:
            slot = (d.tet, f, w, rank)
            if slot in arc_table:
                raise InternalCheckFailed("duplicate arc slot %s" % (slot,))
            arc_table[slot] = (d, key_a, key_b)

    parity = ParityUnionFind(len(disks))
    conflicts = []                # disks glued against their parity
    arc_pair_count = 0
    for (side1, side2, perm) in tri.face_classes:
        (t1, f1), (t2, f2) = side1, side2
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
                d1, key1a, key1b = arc_table[(t1, f1, w, rank)]
                d2, key2a, key2b = arc_table[(t2, f2, perm[w], rank)]
                arc_pair_count += 1
                # Match the arc endpoints through the gluing permutation and
                # check they are the same geometric points.
                rels = []
                for key1 in (key1a, key1b):
                    e1 = key1[0]
                    u1, v1 = EDGES[e1]
                    e2 = edge_index(perm[u1], perm[v1])
                    key2 = key2a if key2a[0] == e2 else key2b
                    if key2[0] != e2:
                        raise InternalCheckFailed(
                            "glued arcs disagree on their edges")
                    c1 = d1.corners[key1]
                    c2 = d2.corners[key2]
                    p1 = corner_point(t1, key1, c1)
                    p2 = corner_point(t2, key2, c2)
                    if p1 != p2:
                        raise InternalCheckFailed(
                            "glued arc endpoints land on different points: "
                            "%s vs %s (tets %d,%d)" % (p1, p2, t1, t2))
                    dir1 = corner_class_direction(t1, key1, c1)
                    dir2 = corner_class_direction(t2, key2, c2)
                    rels.append(0 if dir1 == dir2 else 1)
                if rels[0] != rels[1]:
                    raise InternalCheckFailed(
                        "orientation relation differs at the two ends of a "
                        "glued arc")
                if not parity.union(d1.id, d2.id, rels[0]):
                    conflicts.append(d1.id)

    # Components, Euler characteristics, orientability.
    one_sided = {parity.find(d)[0] for d in conflicts}
    groups = {}
    for d in disks:
        root, _ = parity.find(d.id)
        groups.setdefault(root, []).append(d)
    total_vertices = set()
    components = []
    for root, group in groups.items():
        group.sort(key=lambda d: d.id)
        points = set()
        arcs_in_component = 0
        for d in group:
            arcs_in_component += len(d.arcs)
            for key, value in d.corners.items():
                points.add(corner_point(d.tet, key, value))
        if arcs_in_component % 2:
            raise InternalCheckFailed("odd arc count in a component")
        chi = len(points) - arcs_in_component // 2 + len(group)
        orientable = root not in one_sided
        components.append(SurfaceComponent([d.id for d in group], chi,
                                           orientable))
        total_vertices |= points
    components.sort(key=lambda c: c.disk_ids[0])

    surface = NormalSurface(tri, tuple(v), components,
                            vertex_count=len(total_vertices),
                            arc_pair_count=arc_pair_count,
                            disk_count=len(disks))
    if surface.vertex_count != weight(tri, v):
        raise InternalCheckFailed("vertex count differs from weight")
    if surface.disk_count != sum(v):
        raise InternalCheckFailed("disk count differs from coordinate sum")
    return surface


__all__ = ["build_surface", "NormalSurface", "SurfaceComponent",
           "haken_sum", "is_vertex_linking"]
