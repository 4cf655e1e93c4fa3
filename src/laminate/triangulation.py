"""
Closed orientable triangulations given by tetrahedron face gluings.

Conventions
-----------
Tetrahedra are indexed 0..n-1 and their vertices are labelled 0,1,2,3.
Face f of a tetrahedron is the face opposite vertex f.  A gluing of face
f1 of tetrahedron t1 to face f2 of tetrahedron t2 is recorded as a
permutation p of {0,1,2,3} mapping vertex labels of t1 to vertex labels
of t2, with p[f1] = f2.  The gluing map is stored in both directions (the
reverse direction carries the inverse permutation).

The text format accepted by parse_triangulation() has one line per glued
face pair::

    t1:f1 -> t2:f2 perm=abcd

where abcd is p[0]p[1]p[2]p[3].  Each unordered pair of faces appears on
exactly one line; '#' starts a comment.

Edges of a tetrahedron are indexed 0..5 in the order
(0,1),(0,2),(0,3),(1,2),(1,3),(2,3); vertices 0..3.  Edge and vertex
classes are the equivalence classes of tetrahedron edges/vertices under
the gluing maps, computed by union-find.  Edge classes track relative
orientation so that points along an edge class can be ordered
consistently; an edge identified with itself in reverse is rejected.
"""

from functools import cached_property
from itertools import combinations

from .errors import (UnglueedFace, DoubleGluing, BadPermutation,
                     NonOrientable, InvalidEdge, NotClosedManifold,
                     InternalCheckFailed)

# The six edges of a tetrahedron as sorted vertex pairs.
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {pair: i for i, pair in enumerate(EDGES)}


def perm_sign(p):
    """Sign of a permutation of {0,1,2,3} given as a 4-tuple: -1 to the
    number of its inversions."""
    return -1 if sum(a > b for a, b in combinations(p, 2)) % 2 else 1


def perm_inverse(p):
    inv = [0, 0, 0, 0]
    for i in range(4):
        inv[p[i]] = i
    return tuple(inv)


def edge_index(a, b):
    """Index 0..5 of the tetrahedron edge with endpoints a and b."""
    return EDGE_INDEX[(a, b) if a < b else (b, a)]


class ParityUnionFind:
    """
    Union-find over 0..n-1 with a parity bit relative to the root, kept
    list-indexed.  Each union links the smaller class under the larger, so
    no find walks more than log2(n) links (Tarjan-van Leeuwen, J. ACM 31,
    1984).  Tetrahedra, tetrahedron edges and tetrahedron vertices are
    indexed t, 6t+e and 4t+v; surface disks by id.  ``classes`` counts the
    classes and ``size`` holds each root's class size.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.size = [1] * n
        self.classes = n

    def find(self, x):
        """(root of x, parity of x relative to that root)."""
        parent, parity = self.parent, self.parity
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    def union(self, x, y, rel=0, count=1, dx=0, dy=0):
        """Unite x + i*dx and y + i*dy with parity(x + i*dx) ^
        parity(y + i*dy) == rel for every i < count.

        Returns False if any of the pairs was already united with the
        opposite relative parity.
        """
        parent, parity, size = self.parent, self.parity, self.size
        ok, merged = True, 0
        for _ in range(count):
            rx, px = x, 0
            while parent[rx] != rx:
                px ^= parity[rx]
                rx = parent[rx]
            ry, py = y, 0
            while parent[ry] != ry:
                py ^= parity[ry]
                ry = parent[ry]
            if rx == ry:
                if px ^ py != rel:
                    ok = False
            else:
                if size[rx] < size[ry]:
                    rx, ry = ry, rx
                parent[ry] = rx
                parity[ry] = px ^ py ^ rel
                size[rx] += size[ry]
                merged += 1
            x += dx
            y += dy
        self.classes -= merged
        return ok

    def groups(self):
        """{root: the elements of its class in increasing order}, the
        classes in order of their least element."""
        parent = self.parent
        groups = {}
        for x in range(len(parent)):
            root = x
            while parent[root] != root:
                root = parent[root]
            groups.setdefault(root, []).append(x)
        return groups


class Triangulation:
    """
    A closed orientable 3-manifold triangulation.

    Immutable after construction.  Attributes:

    - tet_count
    - gluings: dict (t, f) -> (t', f', perm) with perm a 4-tuple, stored
      in both directions
    - face_classes: list of (side1, side2, perm) with side = (t, f),
      side1 lexicographically least, perm mapping side1 labels to side2
      labels; sorted by side1
    - edge_classes: list of edge classes; each class is a list of
      (t, e, flipped) incidences, where flipped says whether the edge's
      canonical direction (low vertex to high vertex) disagrees with the
      class's reference direction
    - vertex_classes: list of lists of (t, v)
    - orientation: list of +1/-1 per tetrahedron, a consistent orientation
    """

    def __init__(self, tet_count, gluing_list):
        """
        gluing_list: iterable of (t1, f1, t2, f2, perm) describing each
        glued face pair exactly once.
        """
        if tet_count <= 0:
            raise BadPermutation("triangulation needs at least one tetrahedron")
        self.tet_count = tet_count
        self.gluings = {}
        for (t1, f1, t2, f2, perm) in gluing_list:
            perm = tuple(perm)
            for t, f in ((t1, f1), (t2, f2)):
                if not (0 <= t < tet_count and 0 <= f <= 3):
                    raise BadPermutation(
                        "face %d:%d out of range" % (t, f))
            if sorted(perm) != [0, 1, 2, 3]:
                raise BadPermutation("perm=%s is not a permutation" % (perm,))
            if perm[f1] != f2:
                raise BadPermutation(
                    "perm %s does not map face %d to face %d" % (perm, f1, f2))
            if (t1, f1) == (t2, f2):
                raise BadPermutation(
                    "face %d:%d glued to itself" % (t1, f1))
            if (t1, f1) in self.gluings or (t2, f2) in self.gluings:
                raise DoubleGluing(
                    "face %d:%d or %d:%d glued twice" % (t1, f1, t2, f2))
            self.gluings[(t1, f1)] = (t2, f2, perm)
            self.gluings[(t2, f2)] = (t1, f1, perm_inverse(perm))
        for t in range(tet_count):
            for f in range(4):
                if (t, f) not in self.gluings:
                    raise UnglueedFace("face %d:%d is not glued" % (t, f))

        self.face_classes = []
        for (t, f), (t2, f2, perm) in sorted(self.gluings.items()):
            if (t, f) <= (t2, f2):
                self.face_classes.append(((t, f), (t2, f2), perm))

        self._build_orientation()
        self._build_edge_classes()
        self._build_vertex_classes()

        euler = (len(self.vertex_classes) - len(self.edge_classes)
                 + len(self.face_classes) - self.tet_count)
        if euler != 0:
            raise NotClosedManifold(
                "V - E + F - T = %d != 0; not a closed 3-manifold" % euler)

    # -- skeleton construction -------------------------------------------

    def _build_orientation(self):
        # A gluing permutation must be orientation-reversing on the face,
        # i.e. odd, whenever the two tetrahedra carry the same orientation.
        uf = ParityUnionFind(self.tet_count)
        for (side1, side2, perm) in self.face_classes:
            rel = 0 if perm_sign(perm) == -1 else 1
            if not uf.union(side1[0], side2[0], rel):
                raise NonOrientable("gluing %s -> %s is orientation-reversing"
                                    % (side1, side2))
        self.orientation = []
        for t in range(self.tet_count):
            _, p = uf.find(t)
            self.orientation.append(1 if p == 0 else -1)

    def _build_edge_classes(self):
        uf = ParityUnionFind(6 * self.tet_count)
        for (side1, side2, perm) in self.face_classes:
            (t1, f1), (t2, f2) = side1, side2
            verts = [v for v in range(4) if v != f1]
            for i in range(3):
                for j in range(i + 1, 3):
                    a, b = verts[i], verts[j]          # a < b
                    ia, ib = perm[a], perm[b]
                    e1 = edge_index(a, b)
                    e2 = edge_index(ia, ib)
                    flip = 1 if ia > ib else 0
                    # Only the orientation check shadows this guard (an
                    # edge reversed onto itself makes a nonorientable
                    # gluing); it stays so that the edge classes refuse
                    # such a gluing on their own, which
                    # test_edge_identified_with_itself_in_reverse_rejected
                    # checks with the orientation check skipped.
                    if not uf.union(6 * t1 + e1, 6 * t2 + e2, flip):
                        raise InvalidEdge(
                            "edge %s of tet %d is identified with itself "
                            "in reverse" % (EDGES[e1], t1))
        # Deterministic indexing: classes ordered by least (t, e); within a
        # class, parity is re-expressed relative to that least incidence.
        self.edge_classes = []
        self.edge_class_of = {}
        for idx, group in enumerate(uf.groups().values()):
            base_parity = uf.find(group[0])[1]
            cls = [divmod(x, 6) + (uf.find(x)[1] ^ base_parity,)
                   for x in group]
            self.edge_classes.append(cls)
            for (t, e, flipped) in cls:
                self.edge_class_of[(t, e)] = (idx, flipped)

    def _build_vertex_classes(self):
        uf = ParityUnionFind(4 * self.tet_count)
        for (side1, side2, perm) in self.face_classes:
            (t1, f1), (t2, f2) = side1, side2
            for v in range(4):
                if v != f1:
                    uf.union(4 * t1 + v, 4 * t2 + perm[v])
        self.vertex_classes = [[divmod(x, 4) for x in group]
                               for group in uf.groups().values()]

    # -- queries ----------------------------------------------------------

    @cached_property
    def matching_system(self):
        """The normal-arc matching equations (normal.MatchingSystem),
        built on first use."""
        from .normal import MatchingSystem
        return MatchingSystem(self)

    @cached_property
    def gluing_table(self):
        """
        (ends, glued), built on first use.  ends[16t + 4x + y] is (edge xy
        of tetrahedron t, its class, whether the class runs from x).  glued
        has (slot1, slot2, crossed) per face class and corner w of its first
        side, slot 16t + 4f + w naming the arcs of face f of tet t cutting
        off w.  An arc lists its ends by its face's third vertex in order,
        so its first end on side 1 meets the second on side 2 exactly when
        crossed.  Raises InternalCheckFailed if glued arc ends lie on edges
        of different classes.
        """
        ends = [None] * (16 * self.tet_count)
        for (t, e), (cls, flipped) in self.edge_class_of.items():
            x, y = EDGES[e]
            ends[16 * t + 4 * x + y] = (e, cls, not flipped)
            ends[16 * t + 4 * y + x] = (e, cls, bool(flipped))
        glued = []
        for (t1, f1), (t2, f2), perm in self.face_classes:
            for w in (w for w in range(4) if w != f1):
                z1, z2 = (z for z in range(4) if z not in (f1, w))
                if any(ends[16 * t1 + 4 * w + z][1]
                       != ends[16 * t2 + 4 * perm[w] + perm[z]][1]
                       for z in (z1, z2)):
                    raise InternalCheckFailed(
                        "glued arcs disagree on their edges")
                glued.append((16 * t1 + 4 * f1 + w,
                              16 * t2 + 4 * f2 + perm[w],
                              perm[z1] > perm[z2]))
        return tuple(ends), tuple(glued)

    def edge_degrees(self):
        """Degree (number of tetrahedron-edge incidences) per edge class."""
        return [len(cls) for cls in self.edge_classes]

    @property
    def edge_count(self):
        return len(self.edge_classes)

    @property
    def vertex_count(self):
        return len(self.vertex_classes)

    @property
    def face_count(self):
        return len(self.face_classes)

    # -- serialization ----------------------------------------------------

    def gluing_lines(self):
        lines = []
        for (side1, side2, perm) in self.face_classes:
            lines.append("%d:%d -> %d:%d perm=%s" % (
                side1[0], side1[1], side2[0], side2[1],
                "".join(str(x) for x in perm)))
        return lines

    def to_text(self):
        return "\n".join(self.gluing_lines()) + "\n"

    def to_json_dict(self):
        return {
            "tet_count": self.tet_count,
            "gluings": [
                {"from": list(side1), "to": list(side2), "perm": list(perm)}
                for (side1, side2, perm) in self.face_classes
            ],
        }


def parse_triangulation(text):
    """
    Parse the gluing file format into a Triangulation.

    Raises UnglueedFace, DoubleGluing, BadPermutation, NonOrientable,
    InvalidEdge or NotClosedManifold if the input fails validation.
    """
    gluing_list = []
    tet_count = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            lhs, rest = line.split("->")
            rhs, permpart = rest.split("perm=")
            t1, f1 = (int(x) for x in lhs.strip().split(":"))
            t2, f2 = (int(x) for x in rhs.strip().split(":"))
            perm = tuple(int(c) for c in permpart.strip())
            if len(perm) != 4:
                raise ValueError
        except ValueError:
            raise BadPermutation("line %d: cannot parse %r" % (lineno, raw))
        gluing_list.append((t1, f1, t2, f2, perm))
        tet_count = max(tet_count, t1 + 1, t2 + 1)
    if not gluing_list:
        raise UnglueedFace("no gluings found in input")
    return Triangulation(tet_count, gluing_list)
