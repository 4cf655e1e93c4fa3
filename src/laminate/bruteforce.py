"""
Brute-force lattice enumeration oracles.

These enumerate every integer solution of the matching equations within a
coordinate bound, by listing per-tetrahedron coordinate patterns and
joining them across face gluings.  One lister, _patterns, streams the
patterns anew on each iteration, a pattern's arc signature is the sum of
its disks' arc columns, and the join keeps only the patterns that pass
their tetrahedron's self-gluing checks and can meet a pattern of each
neighbouring tetrahedron.  They are deliberately independent of the
double description engine in cones.py: extremality is decided by an
exact rank computation on the active coordinate set and irreducibility
by pairwise domination, so they can serve as oracles for it.
"""

from itertools import product
from operator import itemgetter

from .errors import check_work
from .linalg import rank
from .normal import ARC_DISKS, COORDS_PER_TET
from .cones import primitive

# Fixed order of the 12 arc types of a tetrahedron.
ARC_TYPES = tuple((f, w) for f in range(4) for w in range(4) if w != f)
ARC_SLOT = {fw: i for i, fw in enumerate(ARC_TYPES)}

# The arc-type slots of each local disk index: 3 for a triangle, 4 for a
# quad, 8 for an octagon.
DISK_ARC_SLOTS = tuple(
    tuple(ARC_SLOT[fw] for fw in ARC_TYPES if k in ARC_DISKS[fw])
    for k in range(COORDS_PER_TET))

# Longer per-tetrahedron pattern lists are refused before they are built.
_PATTERN_CAP = 2_000_000


class _Patterns:
    """
    The (pattern, arc signature) pairs of a box, streamed anew on each
    iteration.  The local coordinates in box range over 0..bound and the
    rest are zero; each such pattern is listed alone, then once with each
    (coordinate, value) of choices added.
    """

    def __init__(self, box, bound, choices):
        self.box, self.bound, self.choices = box, bound, choices

    def __iter__(self):
        box, choices = self.box, self.choices
        for values in product(range(self.bound + 1), repeat=len(box)):
            pattern = [0] * COORDS_PER_TET
            sig = [0] * len(ARC_TYPES)
            for k, x in zip(box, values):
                pattern[k] = x
                for slot in DISK_ARC_SLOTS[k]:
                    sig[slot] += x
            yield tuple(pattern), tuple(sig)
            for k, x in choices:
                extra, added = pattern[:], sig[:]
                extra[k] = x
                for slot in DISK_ARC_SLOTS[k]:
                    added[slot] += x
                yield tuple(extra), tuple(added)


def _patterns(box, bound, choices=()):
    """The _Patterns of a box, refused here, before any pattern is made,
    when they would be more than _PATTERN_CAP."""
    box = sorted(box)
    check_work((bound + 1) ** len(box) * (1 + len(choices)), _PATTERN_CAP,
               "brute force would list %d per-tetrahedron patterns")
    return _Patterns(box, bound, choices)


def _quad_oct_patterns(bound, oct_cap):
    """
    Every per-tetrahedron pattern with at most one quad/oct direction,
    entries <= bound and octagon entries additionally <= oct_cap.
    """
    octs = min(bound, oct_cap)
    return _patterns(range(4), bound,
                     [(k, x) for k in range(4, 10)
                      for x in range(1, (bound if k < 7 else octs) + 1)])


def _values_at(slots):
    """The function taking a signature to its values at slots, a tuple;
    slots come three per face, so itemgetter gives a tuple."""
    return itemgetter(*slots) if slots else lambda sig: ()


def _join(tri, pattern_lists, max_octs=None):
    """
    Assemble per-tetrahedron lists of (pattern, signature) pairs into
    global vectors satisfying every matching equation.  A tetrahedron
    keeps only the patterns that pass its self-gluing checks and whose arc
    counts on the faces it shares with each other tetrahedron are counts
    that tetrahedron makes there: a semi-join both ways across every pair
    of glued tetrahedra, on hashes of the counts (a collision keeps a
    pattern that the join then drops).  Each distinct list is streamed
    once to collect the hashes, if any face joins two tetrahedra, and once
    to keep its patterns, each time for all the tetrahedra given it.  When
    max_octs is given, at most that many chosen patterns may carry an
    octagon.
    """
    n = tri.tet_count
    self_checks = [[] for _ in range(n)]
    links = {}                    # (t1, t2) -> their slots, glued in order
    for (t1, f1), (t2, f2), perm in tri.face_classes:
        for w in range(4):
            if w != f1:
                a, b = ARC_SLOT[(f1, w)], ARC_SLOT[(f2, perm[w])]
                if t1 == t2:
                    self_checks[t1].append((a, b))
                else:
                    slots1, slots2 = links.setdefault((t1, t2), ([], []))
                    slots1.append(a)
                    slots2.append(b)
    # Per tetrahedron and neighbour: its counts on their common faces, the
    # hashes of those it makes, and of those the neighbour makes.  A later
    # tetrahedron's patterns are grouped by their counts on the faces of
    # earlier ones, and looked up by the earlier ones' counts.
    sides = [[] for _ in range(n)]
    own_slots = [[] for _ in range(n)]
    partner_slots = [[] for _ in range(n)]
    for (t1, t2), (slots1, slots2) in links.items():
        made1, made2 = set(), set()
        sides[t1].append((_values_at(slots1), made1, made2))
        sides[t2].append((_values_at(slots2), made2, made1))
        own_slots[t2] += slots2
        partner_slots[t2] += [(t1, s) for s in slots1]

    grouped = [{} for _ in range(n)]
    readers = {}                  # list id -> (list, its filters)
    for t in range(n):
        patterns = pattern_lists[t]
        same = [_values_at(slots) for slots in zip(*self_checks[t])]
        readers.setdefault(id(patterns), (patterns, []))[1].append(
            (grouped[t], _values_at(own_slots[t]), same, sides[t]))
    for collect in (True, False) if links else (False,):
        for patterns, filters in readers.values():
            for entry in patterns:
                sig = entry[1]
                for groups, key, same, tet_sides in filters:
                    if same and same[0](sig) != same[1](sig):
                        continue
                    if collect:
                        for counts, made, _ in tet_sides:
                            made.add(hash(counts(sig)))
                        continue
                    for counts, _, theirs in tet_sides:
                        if hash(counts(sig)) not in theirs:
                            break
                    else:
                        groups.setdefault(key(sig), []).append(entry)

    results = []
    _assign(0, 0, grouped, partner_slots, max_octs, [None] * n, results)
    return results


def _assign(t, octs, grouped, partner_slots, max_octs, assignment, results):
    """Append to results every vector completing the (pattern, signature)
    entries chosen for the tetrahedra before t, of which octs carry an
    octagon, in the order of the grouped lists."""
    if t == len(grouped):
        vec = []
        for (pattern, _sig) in assignment:
            vec.extend(pattern)
        results.append(tuple(vec))
        return
    key = tuple(assignment[t1][1][slot] for (t1, slot) in partner_slots[t])
    for entry in grouped[t].get(key, ()):
        has_oct = max_octs is not None and any(entry[0][7:])
        if has_oct and octs >= max_octs:
            continue
        assignment[t] = entry
        _assign(t + 1, octs + has_oct, grouped, partner_slots, max_octs,
                assignment, results)
    assignment[t] = None


def enumerate_solutions(tri, bound, support):
    """
    Every integer vector with coordinates <= bound, supported on the given
    coordinate set, satisfying all matching equations.  Includes the zero
    vector.  Deterministic order.
    """
    boxes = [frozenset(j % COORDS_PER_TET for j in support
                       if j // COORDS_PER_TET == t)
             for t in range(tri.tet_count)]
    lists = {box: _patterns(box, bound) for box in dict.fromkeys(boxes)}
    return _join(tri, [lists[box] for box in boxes])


def enumerate_quad_oct_solutions(tri, bound, max_octs=None):
    """
    Every integer matching solution with coordinates <= bound respecting
    the per-tetrahedron quad/oct constraint (octagon values unrestricted
    beyond the bound), with at most max_octs octagon coordinates when
    given; at 0 no octagon pattern is listed.  This is the union of the
    solution sets of the quad/oct orthants; filter by support to recover a
    single orthant.
    """
    oct_cap = 0 if max_octs == 0 else bound
    return _join(tri, [_quad_oct_patterns(bound, oct_cap)] * tri.tet_count,
                 max_octs)


def enumerate_admissible(tri, bound):
    """
    Every admissible integer vector with coordinates <= bound: matching
    equations, at most one quad/oct direction per tetrahedron, at most one
    octagon in the whole vector with value at most 1.  Includes zero.
    """
    return _join(tri, [_quad_oct_patterns(bound, 1)] * tri.tet_count,
                 max_octs=1)


def in_support(vector, support):
    return all(vector[j] == 0 for j in range(len(vector))
               if j not in support)


def extreme_ray_oracle(points, matrix, support):
    """
    The primitive extreme rays among a set of enumerated cone points: p
    spans an extreme ray exactly when the face of the cone it lies in the
    relative interior of (equations plus the vanishing of its zero
    coordinates) has dimension 1, read off the rank of the columns of
    its positive coordinates.  The rows are a cone's (index, coefficient)
    pairs, each support coordinate's column made dense once.
    """
    rays = set()
    support = sorted(support)
    rows = [dict(row) for row in matrix]
    columns = {j: [row.get(j, 0) for row in rows] for j in support}
    checked = set()
    for p in points:
        if not any(p):
            continue
        positive = tuple(j for j in support if p[j] > 0)
        prim = primitive(p)
        if prim in rays or (positive, prim) in checked:
            continue
        checked.add((positive, prim))
        if len(positive) - rank([columns[j] for j in positive]) == 1:
            rays.add(prim)
    return sorted(rays)


def hilbert_oracle(points):
    """
    The irreducible elements among all enumerated cone points: p is
    reducible exactly when some other nonzero enumerated point is
    componentwise <= p.
    """
    nonzero = sorted({p for p in points if any(p)})
    basis = []
    for p in nonzero:
        reducible = False
        for q in nonzero:
            if q != p and all(a <= b for a, b in zip(q, p)):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return basis
