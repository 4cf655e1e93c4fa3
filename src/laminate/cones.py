"""
Exact rational cones: extreme rays, Hilbert bases, linear optimization
over the projective slice, strictly positive integer points.

All arithmetic is exact (arbitrary-precision integers and Fractions);
floating point is never used here.  A cone is {x : Ax = 0, x >= 0} in N
coordinates, optionally with a support restriction forcing the remaining
coordinates to zero.  Such cones are pointed, so the double description
method starting from the coordinate orthant applies.  Determinism: rows
are inserted in input order and outputs are sorted, so equal inputs give
identical outputs.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .errors import CoefficientBudgetExceeded, EmptyCone, WorkBudgetExceeded
from .linalg import det, dot, pivot_columns, rank

# The most multiplier tuples (delta^d per parallelepiped) the walk of one
# Hilbert basis may cover.
PARALLELEPIPED_POINT_CAP = 5_000_000

# The most (plus, minus) ray pairs one double description row may combine.
DD_PAIR_CAP = 10_000_000


def primitive(vec):
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


class RationalCone:
    """
    {x in R^dim : matrix . x = 0, x >= 0, x_i = 0 for i outside support}.

    Rows may hold ints or Fractions; each row is scaled by the least common
    multiple of its denominators to an integer row.
    """

    def __init__(self, matrix, dim, support=None):
        rows = []
        for row in matrix:
            if len(row) != dim:
                raise ValueError("row length %d != dim %d" % (len(row), dim))
            scale = lcm(*(x.denominator for x in row))
            rows.append(tuple(x.numerator * (scale // x.denominator)
                              for x in row))
        self.matrix = tuple(rows)
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
        return all(dot(row, v) == 0 for row in self.matrix)


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
    each equation in input row order.  Each row is read only at its nonzero
    entries inside the support; a row with none there holds on every ray
    and is skipped.  A ray's zero set is an int bitmask over the support
    positions; the zero set of a combination of two rays is the meet of
    theirs, since both are nonnegative.  Two rays are adjacent by the
    standard combinatorial test: no third ray's zero set contains the meet
    of theirs.  A pair whose combined support uses two coordinates of one
    group is skipped before that test (Burton's filtered double
    description), and the test stays exact: a ray whose zero set contains
    the meet has its support inside the pair's, so it is kept too.  A row
    that would combine more than DD_PAIR_CAP pairs is refused
    (WorkBudgetExceeded) before its pairs are formed.  Output is sorted
    lexicographically.
    """
    support = sorted(cone.support)
    rows = []
    for row in cone.matrix:
        entries = [(j, row[j]) for j in support if row[j]]
        if entries:
            rows.append(entries)
    position = {j: p for p, j in enumerate(support)}
    groups = []
    for group in exclusive:
        bits = [1 << position[j] for j in group if j in position]
        if len(bits) > 1:
            groups.append(sum(bits))
    # Each ray, in insertion order, with its zero set.
    zero_sets = {}
    full = (1 << len(support)) - 1
    for p, j in enumerate(support):
        unit = [0] * cone.dim
        unit[j] = 1
        zero_sets[tuple(unit)] = full ^ (1 << p)

    for entries in rows:
        rays = list(zero_sets)
        masks = list(zero_sets.values())
        values = [sum([c * r[j] for j, c in entries]) for r in rays]
        zero = [i for i, x in enumerate(values) if x == 0]
        plus = [i for i, x in enumerate(values) if x > 0]
        minus = [i for i, x in enumerate(values) if x < 0]
        zero_sets = {rays[i]: masks[i] for i in zero}
        if not plus or not minus:
            # Rays violating the equation on either side are cut off.
            continue
        if len(plus) * len(minus) > DD_PAIR_CAP:
            raise WorkBudgetExceeded(
                "a double description row combines %d ray pairs (budget %d)"
                % (len(plus) * len(minus), DD_PAIR_CAP))
        # The coordinates a minus ray rules out: the others of each group
        # it uses.
        clashes = []
        for im in minus:
            used = full ^ masks[im]
            clash = 0
            for g in groups:
                if used & g:
                    clash |= g & ~used
            clashes.append(clash)

        for ip in plus:
            rp, vp, zp = rays[ip], values[ip], masks[ip]
            used = full ^ zp
            for im, clash in zip(minus, clashes):
                if used & clash:
                    continue
                meet = zp & masks[im]
                # rp and rm contain the meet; a third ray makes them
                # non-adjacent.
                holders = 0
                for m in masks:
                    if m & meet == meet:
                        holders += 1
                        if holders > 2:
                            break
                if holders == 2:
                    vm = values[im]
                    combo = [vp * b - vm * a for a, b in zip(rp, rays[im])]
                    zero_sets[primitive(combo)] = meet
        _check_budget(zero_sets, max_coeff_bits)

    return sorted(zero_sets)


def _parallelepiped_points(rays, pivots, delta):
    """
    The nonzero integer points of the half-open parallelepiped
    {sum_j lam_j r_j : 0 <= lam_j < 1} of linearly independent integer
    rays whose minor on the pivot coordinates has absolute value delta.
    Every such point has each lam_j in (1/delta)Z, so it is
    (sum_j k_j r_j) / delta for some k in {0..delta-1}^d.  The walk keeps
    the k whose sum is 0 mod delta on the pivot coordinates, looking up the
    last multiplier by the residue it cancels, and of those the k whose sum
    is divisible by delta on every coordinate.
    """
    *head, last = rays
    on_pivots = [tuple(r[i] for r in head) for i in pivots]
    columns = list(zip(*rays))
    cancels = {}
    for k in range(delta):
        key = tuple(k * last[i] % delta for i in pivots)
        cancels.setdefault(key, []).append(k)
    points = []
    for ks in product(range(delta), repeat=len(head)):
        key = tuple(-sum(map(mul, ks, c)) % delta for c in on_pivots)
        for k in cancels.get(key, ()):
            full = ks + (k,)
            total = [sum(map(mul, full, c)) for c in columns]
            if any(full) and all(x % delta == 0 for x in total):
                points.append(tuple(x // delta for x in total))
    return points


def hilbert_basis(cone, max_coeff_bits=None):
    """
    The minimal generating set of the monoid of integer points of the cone.

    The candidates are the extreme rays together with the nonzero integer
    points of the half-open parallelepipeds of every linearly independent
    d-subset of rays, d the rank of the cone: these subsets cover the cone,
    and an irreducible point that is not a ray has every multiplier below 1
    in a subset whose cone holds it.  The walk is refused
    (WorkBudgetExceeded) before it starts when it would cover more than
    PARALLELEPIPED_POINT_CAP grid points.  Candidates are reduced in order
    of coordinate sum to the irreducible elements.  Output sorted
    lexicographically.
    """
    rays = extreme_rays(cone, max_coeff_bits=max_coeff_bits)
    if len(rays) <= 1:
        return rays
    d = rank(rays)
    simplices = []
    for sub in combinations(rays, d):
        pivots = pivot_columns(sub)
        if len(pivots) == d:
            delta = abs(det([[r[i] for i in pivots] for r in sub]))
            simplices.append((sub, pivots, delta))
    walk = sum(delta ** d for _, _, delta in simplices)
    if walk > PARALLELEPIPED_POINT_CAP:
        raise WorkBudgetExceeded(
            "the parallelepiped walk of a Hilbert basis covers %d grid "
            "points (budget %d)" % (walk, PARALLELEPIPED_POINT_CAP))
    candidates = set(rays)
    for sub, pivots, delta in simplices:
        candidates.update(_parallelepiped_points(sub, pivots, delta))
    _check_budget(candidates, max_coeff_bits)
    reduced = []
    for g in sorted(candidates, key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in reduced):
            reduced.append(g)
    return sorted(reduced)


def maximize_linear(cone, functional, max_coeff_bits=None):
    """
    Maximize a rational linear functional over the slice
    cone intersect {sum of supported coordinates = 1}.

    Returns (optimum, witness) where the witness is the optimal vertex of
    the slice polytope as a tuple of Fractions.  Raises EmptyCone when the
    cone is {0}.
    """
    rays = extreme_rays(cone, max_coeff_bits=max_coeff_bits)
    if not rays:
        raise EmptyCone("the cone contains no nonzero point")
    best_value = None
    best_witness = None
    for r in rays:
        s = sum(r)
        value = Fraction(dot(functional, r), s)
        if best_value is None or value > best_value:
            best_value = value
            best_witness = tuple(Fraction(x, s) for x in r)
    return best_value, best_witness


def positive_integer_point(cone, max_coeff_bits=None):
    """
    An integer point strictly positive on every supported coordinate, or
    None when the cone has no strictly positive rational point.  The sum
    of the extreme rays is strictly positive exactly when such a point
    exists; it is returned in primitive form.
    """
    rays = extreme_rays(cone, max_coeff_bits=max_coeff_bits)
    if not rays:
        return None
    total = [0] * cone.dim
    for r in rays:
        total = [a + b for a, b in zip(total, r)]
    if any(total[i] == 0 for i in cone.support):
        return None
    return primitive(total)


def decompose_over(point, basis):
    """
    Express an integer cone point as a nonnegative integer combination of
    the given basis, by depth-first search with memoization.  Returns the
    lexicographically least multiplicity tuple, or None.
    """
    memo = {}
    zero = tuple(0 for _ in point)

    def rec(residual, start):
        if residual == zero:
            return ()
        key = (residual, start)
        if key in memo:
            return memo[key]
        result = None
        for i in range(start, len(basis)):
            h = basis[i]
            if all(a <= b for a, b in zip(h, residual)):
                rest = rec(tuple(b - a for a, b in zip(h, residual)), i)
                if rest is not None:
                    result = (i,) + rest
                    break
        memo[key] = result
        return result

    picks = rec(tuple(point), 0)
    if picks is None:
        return None
    counts = [0] * len(basis)
    for i in picks:
        counts[i] += 1
    return tuple(counts)
