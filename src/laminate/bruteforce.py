"""
Brute-force lattice enumeration oracles.

These enumerate every integer solution of the matching equations within a
coordinate bound, by listing per-tetrahedron coordinate patterns and
joining them across face gluings.  They are deliberately independent of
the double description engine in cones.py: extremality is decided by an
exact rank computation on the active coordinate set and irreducibility by
pairwise domination, so they can serve as oracles for it.
"""

from functools import lru_cache
from itertools import product

from .errors import WorkBudgetExceeded
from .linalg import rank
from .normal import ARC_DISKS, COORDS_PER_TET
from .cones import primitive

# Fixed order of the 12 arc types of a tetrahedron.
ARC_TYPES = tuple((f, w) for f in range(4) for w in range(4) if w != f)
ARC_SLOT = {fw: i for i, fw in enumerate(ARC_TYPES)}

# Longer per-tetrahedron pattern lists are refused before they are built.
_PATTERN_CAP = 2_000_000


def _refuse_over_cap(count):
    if count > _PATTERN_CAP:
        raise WorkBudgetExceeded(
            "brute force would list %d per-tetrahedron patterns (budget %d)"
            % (count, _PATTERN_CAP))


def _signature(pattern):
    return tuple(sum(pattern[k] for k in ARC_DISKS[fw]) for fw in ARC_TYPES)


@lru_cache(maxsize=None)
def _support_patterns(local_support, bound):
    """(pattern, arc signature) pairs for entries <= bound on a local support."""
    coords = sorted(local_support)
    _refuse_over_cap((bound + 1) ** len(coords))
    out = []
    for values in product(range(bound + 1), repeat=len(coords)):
        pattern = [0] * COORDS_PER_TET
        for c, x in zip(coords, values):
            pattern[c] = x
        pattern = tuple(pattern)
        out.append((pattern, _signature(pattern)))
    return out


@lru_cache(maxsize=None)
def _quad_oct_patterns(bound, oct_cap):
    """
    (pattern, signature, has_oct) triples over all per-tetrahedron choices
    of at most one quad/oct direction, with entries <= bound and octagon
    entries additionally <= oct_cap.
    """
    octs = min(bound, oct_cap)
    _refuse_over_cap((bound + 1) ** 4 * (1 + 3 * bound + 3 * octs))
    out = []
    for tris in product(range(bound + 1), repeat=4):
        base = tuple(tris) + (0,) * 6
        out.append((base, _signature(base), False))
        for k in range(4, 10):
            cap = bound if k < 7 else octs
            for val in range(1, cap + 1):
                pattern = list(base)
                pattern[k] = val
                pattern = tuple(pattern)
                out.append((pattern, _signature(pattern), k >= 7))
    return out


def _join(tri, pattern_lists, max_octs=None):
    """
    Assemble per-tetrahedron (pattern, signature, has_oct) lists into
    global vectors satisfying every matching equation.  When max_octs is
    given, at most that many chosen patterns may carry an octagon.
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

    grouped = []
    for t in range(n):
        own_slots = [ARC_SLOT[(f2, perm[w])]
                     for (t1, f1, f2, perm) in cross_classes[t]
                     for w in range(4) if w != f1]
        self_checks = [(ARC_SLOT[(f1, w)], ARC_SLOT[(f2, perm[w])])
                       for (f1, f2, perm) in self_classes[t]
                       for w in range(4) if w != f1]
        groups = {}
        for (pattern, sig, has_oct) in pattern_lists[t]:
            if any(sig[a] != sig[b] for a, b in self_checks):
                continue
            key = tuple(sig[s] for s in own_slots)
            groups.setdefault(key, []).append((pattern, sig, has_oct))
        grouped.append(groups)

    partner_slots = []
    for t in range(n):
        partner_slots.append([(t1, ARC_SLOT[(f1, w)])
                              for (t1, f1, f2, perm) in cross_classes[t]
                              for w in range(4) if w != f1])

    results = []
    assignment = [None] * n

    def rec(t, octs):
        if t == n:
            vec = []
            for (pattern, _sig, _has) in assignment:
                vec.extend(pattern)
            results.append(tuple(vec))
            return
        key = tuple(assignment[t1][1][slot] for (t1, slot) in partner_slots[t])
        for entry in grouped[t].get(key, ()):
            if entry[2] and max_octs is not None and octs >= max_octs:
                continue
            assignment[t] = entry
            rec(t + 1, octs + (1 if entry[2] else 0))
        assignment[t] = None

    rec(0, 0)
    return results


def enumerate_solutions(tri, bound, support):
    """
    Every integer vector with coordinates <= bound, supported on the given
    coordinate set, satisfying all matching equations.  Includes the zero
    vector.  Deterministic order.
    """
    locals_ = [set() for _ in range(tri.tet_count)]
    for j in support:
        locals_[j // COORDS_PER_TET].add(j % COORDS_PER_TET)
    pattern_lists = []
    for t in range(tri.tet_count):
        entries = _support_patterns(frozenset(locals_[t]), bound)
        pattern_lists.append([(p, s, False) for (p, s) in entries])
    return _join(tri, pattern_lists)


def enumerate_quad_oct_solutions(tri, bound):
    """
    Every integer matching solution with coordinates <= bound respecting
    the per-tetrahedron quad/oct constraint (octagon values unrestricted
    beyond the bound).  This is the union of the solution sets of all
    quad/oct orthants; filter by support to recover a single orthant.
    """
    entries = _quad_oct_patterns(bound, bound)
    return _join(tri, [entries] * tri.tet_count)


def enumerate_admissible(tri, bound):
    """
    Every admissible integer vector with coordinates <= bound: matching
    equations, at most one quad/oct direction per tetrahedron, at most one
    octagon in the whole vector with value at most 1.  Includes zero.
    """
    entries = _quad_oct_patterns(bound, 1)
    return _join(tri, [entries] * tri.tet_count, max_octs=1)


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
