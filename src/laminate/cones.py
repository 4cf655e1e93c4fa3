"""
Exact rational cones: extreme rays, Hilbert bases, strictly positive
integer points.

All arithmetic is in exact integers, and floating point is never used.
A cone is {x : Ax = 0, x >= 0} in N coordinates, optionally with a
support restriction forcing the remaining coordinates to zero.  Each row
of A is the tuple of its nonzero (index, coefficient) pairs, indices
increasing, kept as given.  Such cones are pointed, so the double
description method starting from the coordinate orthant applies.  Rows
are inserted in the order the cone gives them, skipping those that hold
on every ray kept so far, and outputs are sorted, so equal inputs give
identical outputs.
"""

from math import gcd
from operator import mul

from .errors import CoefficientBudgetExceeded, check_work
from .linalg import adjugate, det, pivot_columns, rank

# The square of the most group elements (delta per simplex) the
# parallelepiped walk of one Hilbert basis may cover.
PARALLELEPIPED_POINT_CAP = 5_000_000

# The most (plus, minus) ray pairs one double description row may combine.
DD_PAIR_CAP = 10_000_000

# The most rays one double description may keep at once.
DD_RAY_CAP = 1_000_000


def primitive(vec):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


class RationalCone:
    """
    {x in R^dim : matrix . x = 0, x >= 0, x_i = 0 for i outside support}.

    A row is its nonzero (index, coefficient) pairs, indices increasing,
    kept as given: cones over one triangulation share its matching rows.
    """

    def __init__(self, matrix, dim, support=None):
        self.matrix = tuple(matrix)
        for row in self.matrix:
            for j, _ in row:
                if not (0 <= j < dim):
                    raise ValueError("row index %d out of range" % j)
        self.dim = dim
        self.support = (frozenset(range(dim)) if support is None
                        else frozenset(support))
        for i in self.support:
            if not (0 <= i < dim):
                raise ValueError("support index %d out of range" % i)

    def contains(self, v):
        if len(v) != self.dim:
            return False
        if any(x < 0 for x in v):
            return False
        if any(v[i] != 0 for i in range(self.dim) if i not in self.support):
            return False
        return all(sum(c * v[j] for j, c in row) == 0 for row in self.matrix)


def _check_budget(vectors, max_coeff_bits):
    if max_coeff_bits is None:
        return
    for vec in vectors:
        for x in vec:
            if abs(x).bit_length() > max_coeff_bits:
                raise CoefficientBudgetExceeded(
                    "intermediate integer needs %d bits (budget %d)"
                    % (abs(x).bit_length(), max_coeff_bits))


def extreme_rays(cone, max_coeff_bits=None, exclusive=()):
    """
    The primitive extreme rays of a pointed cone, by double description,
    kept to the rays nonzero on at most one coordinate of each group in
    ``exclusive`` (a tuple of coordinate groups).

    Starts from the unit rays of the supported orthant and intersects with
    each equation in turn, in the order the cone gives them: the caller
    owns the order, which decides the intermediate rays, and so the
    coefficient budget and the work, but not the output.  Rays are held
    over the sorted support positions and expanded to cone.dim coordinates
    once, at the end, with 0 elsewhere, so neither their order nor the
    budget's first excess changes.  Each row's (index, coefficient) pairs
    are read as given, each index mapped to its support position; a row
    with none inside the support holds on every ray and is skipped.  A
    ray's zero set is an int bitmask over the positions; the zero set of a
    combination of two rays is the meet of theirs, since both are
    nonnegative.  A ray whose zero set holds the row's support is valued 0
    without summing, and a row that is 0 on every kept ray (one in the
    span of the rows before it) is skipped before the rays are split, in
    one pass, into zero, plus and minus.
    Two rays are adjacent by the standard combinatorial test: no third
    ray's zero set contains the meet of theirs.  A pair whose combined
    support uses two coordinates of one group is skipped before that test
    (Burton's filtered double description), and the test stays exact: a
    ray whose zero set contains the meet has its support inside the
    pair's, so it is kept too.  A row that would combine more than
    DD_PAIR_CAP pairs is refused (WorkBudgetExceeded) before its pairs are
    formed, and so is a new ray that would make more than DD_RAY_CAP kept
    rays, before it is stored.  Output is sorted lexicographically.
    """
    support = sorted(cone.support)
    position = {j: p for p, j in enumerate(support)}
    rows = []
    for row in cone.matrix:
        entries, held = [], 0
        for j, c in row:
            p = position.get(j)
            if p is not None:
                entries.append((p, c))
                held |= 1 << p
        if entries:
            rows.append((entries, held))
    groups = []
    for group in exclusive:
        bits = [1 << position[j] for j in group if j in position]
        if len(bits) > 1:
            groups.append(sum(bits))
    # Each ray over the positions, in insertion order, with its zero set.
    zero_sets = {}
    full = (1 << len(support)) - 1
    for p in range(len(support)):
        unit = [0] * len(support)
        unit[p] = 1
        zero_sets[tuple(unit)] = full ^ (1 << p)

    for entries, held in rows:
        values = [0 if m & held == held
                  else sum([c * r[p] for p, c in entries])
                  for r, m in zero_sets.items()]
        if not any(values):
            continue
        kept, zero_sets, plus, minus = zero_sets, {}, [], []
        for (r, m), x in zip(kept.items(), values):
            if x > 0:
                plus.append((r, m, x))
            elif x:
                minus.append((r, m, x))
            else:
                zero_sets[r] = m
        if not plus or not minus:
            # Rays violating the equation on either side are cut off.
            continue
        check_work(len(plus) * len(minus), DD_PAIR_CAP,
                   "a double description row combines %d ray pairs")
        # The coordinates a minus ray rules out: the others of each group
        # it uses.
        clashes = []
        for _, m, _ in minus:
            used = full ^ m
            clash = 0
            for g in groups:
                if used & g:
                    clash |= g & ~used
            clashes.append(clash)

        masks = list(kept.values())
        for rp, zp, vp in plus:
            used = full ^ zp
            for (rm, zm, vm), clash in zip(minus, clashes):
                if used & clash:
                    continue
                meet = zp & zm
                # rp and rm contain the meet; a third ray makes them
                # non-adjacent.
                holders = 0
                for m in masks:
                    if m & meet == meet:
                        holders += 1
                        if holders > 2:
                            break
                if holders == 2:
                    check_work(len(zero_sets) + 1, DD_RAY_CAP,
                               "a double description keeps %d rays")
                    combo = [vp * b - vm * a for a, b in zip(rp, rm)]
                    zero_sets[primitive(combo)] = meet
        _check_budget(zero_sets, max_coeff_bits)

    if len(support) == cone.dim:
        return sorted(zero_sets)
    out = []
    for r in sorted(zero_sets):
        ray = [0] * cone.dim
        for j, x in zip(support, r):
            ray[j] = x
        out.append(tuple(ray))
    return out


def _triangulation(rays, d, memo):
    """
    The pulling triangulation of the cone of sorted rays of rank d, as
    d-tuples: the first ray coned over the facets that do not hold it.  A
    facet of an orthant cut by a subspace is the set of rays vanishing on
    one coordinate, when it has rank d - 1.  The cut is a function of the
    sorted rays alone, so a shared face is cut the same way from both
    sides; the memo only spares recutting it (at r9, 1,482 of 3,242 rank
    runs with octagons and 477 of 959 on quads).
    """
    if len(rays) == d:
        return [rays]
    if rays not in memo:
        facets = {tuple(r for r in rays if not r[i])
                  for i, x in enumerate(rays[0]) if x}
        memo[rays] = [(rays[0],) + simplex for facet in sorted(facets)
                      if len(facet) >= d - 1 and rank(facet) == d - 1
                      for simplex in _triangulation(facet, d - 1, memo)]
    return memo[rays]


def _parallelepiped_points(rays, minor, delta):
    """
    The nonzero integer points (sum_j k_j r_j) / delta, k in
    {0..delta-1}^d, of the half-open parallelepiped of independent rays
    whose minor M on their pivots has |det M| = delta.  The k with an
    integral sum on the pivots form the group generated mod delta by the
    rows of delta M^-1 = sign(det M) adj(M), or equally of adj(M); its
    delta elements are walked breadth first, and the k with an integral
    sum everywhere kept.
    """
    steps = [tuple(x % delta for x in row) for row in adjugate(minor)]
    group = [(0,) * len(rays)]
    seen = set(group)
    for k in group:
        for step in steps:
            nxt = tuple((a + b) % delta for a, b in zip(k, step))
            if nxt not in seen:
                seen.add(nxt)
                group.append(nxt)
    columns = list(zip(*rays))
    totals = ([sum(map(mul, k, c)) for c in columns] for k in group[1:])
    return [tuple(x // delta for x in total) for total in totals
            if all(x % delta == 0 for x in total)]


def hilbert_basis(rays, max_coeff_bits=None):
    """
    The minimal generating set of the monoid of integer points of the cone
    spanned by the given primitive extreme rays.

    The candidates are the extreme rays and the nonzero integer points of
    the half-open parallelepipeds of one triangulation's simplices
    (Bruns-Ichim, J. Algebra 324, 2010): an irreducible point that is not a
    ray has every multiplier below 1 in a simplex that holds it.  Each
    simplex spans the rays' row space, so its minor is taken on their pivot
    columns.  A simplex of minor delta walks delta group elements, and
    candidates are reduced in pairs, so the walk is refused
    (WorkBudgetExceeded) before any point is listed once the squared sum of
    the minors exceeds PARALLELEPIPED_POINT_CAP.  Candidates are reduced in
    order of coordinate sum to the irreducible elements, sorted.
    """
    if len(rays) <= 1:
        return rays
    rays = tuple(sorted(rays))
    simplices = []
    walk = 0
    pivots = pivot_columns(rays)
    for simplex in _triangulation(rays, rank(rays), {}):
        minor = [[r[i] for i in pivots] for r in simplex]
        delta = abs(det(minor))
        simplices.append((simplex, minor, delta))
        walk += delta
        check_work(walk ** 2, PARALLELEPIPED_POINT_CAP,
                   "the parallelepiped walk of a Hilbert basis covers %d"
                   " squared group elements")
    candidates = set(rays)
    for simplex in simplices:
        candidates.update(_parallelepiped_points(*simplex))
    _check_budget(candidates, max_coeff_bits)
    reduced = []
    for g in sorted(candidates, key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in reduced):
            reduced.append(g)
    return sorted(reduced)


def positive_integer_point(rays, support):
    """
    An integer point of the cone spanned by the extreme rays that is
    strictly positive on every coordinate of support, or None when it has
    no such rational point.  The sum of the rays is strictly positive
    exactly when such a point exists; it is returned in primitive form.
    """
    if not rays:
        return None
    total = [sum(column) for column in zip(*rays)]
    if any(total[i] == 0 for i in support):
        return None
    return primitive(total)


def _least_picks(residual, start, basis, memo):
    """The lexicographically least nondecreasing index tuple of basis
    elements from start onward summing to residual, or None."""
    if not any(residual):
        return ()
    key = (residual, start)
    if key in memo:
        return memo[key]
    result = None
    for i in range(start, len(basis)):
        h = basis[i]
        if all(a <= b for a, b in zip(h, residual)):
            rest = _least_picks(tuple(b - a for a, b in zip(h, residual)), i,
                                basis, memo)
            if rest is not None:
                result = (i,) + rest
                break
    memo[key] = result
    return result


def decompose_over(point, basis):
    """
    Express an integer cone point as a nonnegative integer combination of
    the given basis, by depth-first search with memoization.  Returns the
    lexicographically least multiplicity tuple, or None.
    """
    picks = _least_picks(tuple(point), 0, basis, {})
    if picks is None:
        return None
    return tuple(map(picks.count, range(len(basis))))
