"""
Brute-force lattice enumeration oracles.

These enumerate every integer solution of the matching equations within a
coordinate bound, by listing per-tetrahedron coordinate patterns and
joining them across face gluings.  One lister, _patterns, streams the
patterns anew on each call, a pattern's arc signature is the sum of its
disks' arc columns, and the join keeps only the patterns that pass their
tetrahedron's self-gluing checks.  They are deliberately independent of the
double description engine in cones.py: extremality is decided by an
exact rank computation on the active coordinate set and irreducibility
by pairwise domination, so they can serve as oracles for it.
"""

from itertools import product

from .errors import WorkBudgetExceeded
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


def _refuse_over_cap(count):
    if count > _PATTERN_CAP:
        raise WorkBudgetExceeded(
            "brute force would list %d per-tetrahedron patterns (budget %d)"
            % (count, _PATTERN_CAP))


def _patterns(box, bound, choices=()):
    """
    A stream of (pattern, arc signature) pairs.  The local coordinates in
    box range over 0..bound and the rest are zero; each such pattern is
    listed alone, then once with each (coordinate, value) of choices
    added.  Over _PATTERN_CAP patterns are refused here, before the
    stream starts.
    """
    box = sorted(box)
    _refuse_over_cap((bound + 1) ** len(box) * (1 + len(choices)))
    return _pattern_stream(box, bound, choices)


def _pattern_stream(box, bound, choices):
    for values in product(range(bound + 1), repeat=len(box)):
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


def _quad_oct_patterns(bound, oct_cap):
    """
    Every per-tetrahedron pattern with at most one quad/oct direction,
    entries <= bound and octagon entries additionally <= oct_cap.
    """
    octs = min(bound, oct_cap)
    return _patterns(range(4), bound,
                     [(k, x) for k in range(4, 10)
                      for x in range(1, (bound if k < 7 else octs) + 1)])


def _join(tri, pattern_streams, max_octs=None):
    """
    Assemble per-tetrahedron streams of (pattern, signature) pairs into
    global vectors satisfying every matching equation, keeping of each
    stream only the patterns that pass its tetrahedron's self-gluing
    checks.  Each distinct stream object is read once, in one pass for
    all the tetrahedra given it.  When max_octs is given, at most that
    many chosen patterns may carry an octagon.
    """
    n = tri.tet_count
    self_classes = [[] for _ in range(n)]
    cross_classes = [[] for _ in range(n)]
    for (side1, side2, perm) in tri.face_classes:
        (t1, f1), (t2, f2) = side1, side2
        if t1 == t2:
            self_classes[t1].append((f1, f2, perm))
        else:
            cross_classes[t2].append((t1, f1, f2, perm))

    grouped = [{} for _ in range(n)]
    readers = {}                  # stream id -> (stream, its filters)
    for t in range(n):
        own_slots = [ARC_SLOT[(f2, perm[w])]
                     for (t1, f1, f2, perm) in cross_classes[t]
                     for w in range(4) if w != f1]
        self_checks = [(ARC_SLOT[(f1, w)], ARC_SLOT[(f2, perm[w])])
                       for (f1, f2, perm) in self_classes[t]
                       for w in range(4) if w != f1]
        stream = pattern_streams[t]
        readers.setdefault(id(stream), (stream, []))[1].append(
            (grouped[t], own_slots, self_checks))
    for stream, filters in readers.values():
        for entry in stream:
            sig = entry[1]
            for groups, own_slots, self_checks in filters:
                if any(sig[a] != sig[b] for a, b in self_checks):
                    continue
                key = tuple(sig[s] for s in own_slots)
                groups.setdefault(key, []).append(entry)

    partner_slots = []
    for t in range(n):
        partner_slots.append([(t1, ARC_SLOT[(f1, w)])
                              for (t1, f1, f2, perm) in cross_classes[t]
                              for w in range(4) if w != f1])

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
    streams = {box: _patterns(box, bound) for box in dict.fromkeys(boxes)}
    return _join(tri, [streams[box] for box in boxes])


def enumerate_quad_oct_solutions(tri, bound):
    """
    Every integer matching solution with coordinates <= bound respecting
    the per-tetrahedron quad/oct constraint (octagon values unrestricted
    beyond the bound).  This is the union of the solution sets of all
    quad/oct orthants; filter by support to recover a single orthant.
    """
    return _join(tri, [_quad_oct_patterns(bound, bound)] * tri.tet_count)


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
    coordinates) has dimension 1.
    """
    rays = set()
    support = sorted(support)
    checked = set()
    for p in points:
        if not any(p):
            continue
        positive = tuple(j for j in support if p[j] > 0)
        prim = primitive(p)
        if prim in rays or (positive, prim) in checked:
            continue
        checked.add((positive, prim))
        cols = [[row[j] for j in positive] for row in matrix]
        if len(positive) - rank(cols) == 1:
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
