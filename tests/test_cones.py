from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from laminate.bruteforce import extreme_ray_oracle, hilbert_oracle
from laminate.cones import (RationalCone, decompose_over, extreme_rays,
                            hilbert_basis, maximize_linear,
                            positive_integer_point, primitive)
from laminate.errors import (CoefficientBudgetExceeded, EmptyCone,
                             WorkBudgetExceeded)
from laminate.linalg import dot


def test_extreme_rays_of_plane_cone():
    cone = RationalCone([(1, 1, -1)], 3)
    assert extreme_rays(cone) == [(0, 1, 1), (1, 0, 1)]


def test_extreme_rays_of_orthant():
    cone = RationalCone([], 2)
    assert extreme_rays(cone) == [(0, 1), (1, 0)]


def test_rays_are_primitive_and_satisfy_equations():
    cone = RationalCone([(2, 2, -2), (0, 3, -3)], 3)
    for r in extreme_rays(cone):
        assert primitive(r) == r
        assert 2 * r[0] + 2 * r[1] - 2 * r[2] == 0
        assert 3 * r[1] - 3 * r[2] == 0
        assert all(x >= 0 for x in r)


def test_hilbert_basis_with_interior_generator():
    cone = RationalCone([(1, 1, -2)], 3)
    assert hilbert_basis(cone) == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_hilbert_basis_of_orthant_is_unit_vectors():
    cone = RationalCone([], 3)
    assert hilbert_basis(cone) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_hilbert_basis_elements_irreducible_by_enumeration():
    # Exhaustively check irreducibility below a small box.
    cone = RationalCone([(1, 1, -2)], 3)
    basis = hilbert_basis(cone)
    points = [(a, b, c) for a in range(5) for b in range(5) for c in range(5)
              if a + b == 2 * c and any((a, b, c))]
    for h in basis:
        splits = [(p, tuple(x - y for x, y in zip(h, p))) for p in points
                  if all(x <= y for x, y in zip(p, h)) and p != h]
        assert not any(q in points for (p, q) in splits if any(q))
    # and every point decomposes
    for p in points:
        assert decompose_over(p, basis) is not None


def test_maximize_normalization():
    cone = RationalCone([(1, 1, -1)], 3)
    value, witness = maximize_linear(cone, (1, 1, 1))
    assert value == 1
    assert sum(witness) == 1


def test_maximize_x1_on_plane_cone():
    cone = RationalCone([(1, 1, -1)], 3)
    value, witness = maximize_linear(cone, (1, 0, 0))
    assert value == Fraction(1, 2)
    assert witness == (Fraction(1, 2), 0, Fraction(1, 2))


def test_maximize_negative_functional():
    cone = RationalCone([], 2)
    value, witness = maximize_linear(cone, (-2, -3))
    assert value == -2
    assert witness == (1, 0)


def test_maximize_empty_cone():
    cone = RationalCone([(1, 1, 1)], 3)
    with pytest.raises(EmptyCone):
        maximize_linear(cone, (1, 0, 0))


def test_positive_integer_point_plane():
    cone = RationalCone([(1, 1, -1)], 3)
    assert positive_integer_point(cone) == (1, 1, 2)


def test_positive_integer_point_missing_coordinate():
    # x2 is identically zero on the cone.
    cone = RationalCone([(0, 1, 0)], 3)
    assert positive_integer_point(cone) is None


def test_positive_integer_point_empty():
    cone = RationalCone([(1, 1, 1)], 3)
    assert positive_integer_point(cone) is None


def test_support_restriction():
    cone = RationalCone([], 3, support=[0, 2])
    assert extreme_rays(cone) == [(0, 0, 1), (1, 0, 0)]
    assert not cone.contains((0, 1, 0))
    assert cone.contains((3, 0, 5))


def test_determinism():
    rows = [(1, 2, -1, 0), (0, 1, 1, -2)]
    a = extreme_rays(RationalCone(rows, 4))
    b = extreme_rays(RationalCone(rows, 4))
    assert a == b
    assert hilbert_basis(RationalCone(rows, 4)) == \
        hilbert_basis(RationalCone(rows, 4))


def test_fractional_rows_are_cleared():
    cone = RationalCone([(Fraction(1, 2), Fraction(1, 2), -1)], 3)
    assert extreme_rays(cone) == [(0, 2, 1), (2, 0, 1)]


def test_coefficient_budget():
    cone = RationalCone([(1000000, -1, 0)], 3)
    with pytest.raises(CoefficientBudgetExceeded):
        extreme_rays(cone, max_coeff_bits=8)


def test_parallelepiped_walk_over_budget_is_refused():
    # Rays (1, 3000, 0) and (1, 0, 3000): a 3000^2 walk.
    with pytest.raises(WorkBudgetExceeded):
        hilbert_basis(RationalCone([(3000, -1, -1)], 3))


@st.composite
def small_cones(draw):
    ncols = draw(st.integers(3, 4))
    nrows = draw(st.integers(1, 2))
    return [tuple(draw(st.lists(st.integers(-3, 3), min_size=ncols,
                                max_size=ncols)))
            for _ in range(nrows)]


@settings(derandomize=True, deadline=None)
@given(small_cones())
def test_cone_engine_matches_oracles(rows):
    n = len(rows[0])
    cone = RationalCone(rows, n)
    rays = extreme_rays(cone)
    # Every Hilbert basis element is a ray or lies in a half-open
    # parallelepiped of rays, so each coordinate is at most that of the
    # sum of the rays.
    bound = max((sum(col) for col in zip(*rays)), default=0)
    assume((bound + 1) ** n <= 20_000)
    points = [p for p in product(range(bound + 1), repeat=n)
              if all(dot(row, p) == 0 for row in rows)]
    assert rays == extreme_ray_oracle(points, rows, range(n))
    assert hilbert_basis(cone) == hilbert_oracle(points)


@st.composite
def supported_cones(draw):
    """Rows, a random support, and one extra row that vanishes on it."""
    # Sparse rows in {-1, 0, 1}, like matching equations, give cones with
    # enough rays for non-adjacent pairs to occur.
    n = draw(st.integers(4, 6))
    rows = [tuple(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
            for _ in range(draw(st.integers(1, 3)))]
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=3)))
    outside = tuple(0 if j in support else draw(st.integers(-3, 3))
                    for j in range(n))
    rows.insert(draw(st.integers(0, len(rows))), outside)
    return rows, support


@settings(derandomize=True, deadline=None, max_examples=200)
@given(supported_cones())
def test_cone_engine_matches_oracle_on_a_support(case):
    rows, support = case
    n = len(rows[0])
    rays = extreme_rays(RationalCone(rows, n, support))
    bound = max((sum(col) for col in zip(*rays)), default=0)
    assume((bound + 1) ** len(support) <= 20_000)
    points = []
    for values in product(range(bound + 1), repeat=len(support)):
        p = [0] * n
        for j, x in zip(support, values):
            p[j] = x
        if all(dot(row, p) == 0 for row in rows):
            points.append(tuple(p))
    assert rays == extreme_ray_oracle(points, rows, support)


@st.composite
def grouped_cones(draw):
    """Sparse rows and disjoint coordinate groups of two to four."""
    n = draw(st.integers(6, 9))
    rows = [tuple(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
            for _ in range(draw(st.integers(2, 5)))]
    order = draw(st.permutations(range(n)))
    groups = []
    start = draw(st.integers(0, 2))
    while start + 2 <= n:
        size = draw(st.integers(2, 4))
        groups.append(tuple(order[start:start + size]))
        start += size + draw(st.integers(0, 1))
    return rows, tuple(groups)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(grouped_cones())
def test_exclusive_groups_keep_the_admissible_extreme_rays(case):
    rows, groups = case
    cone = RationalCone(rows, len(rows[0]))
    admissible = [r for r in extreme_rays(cone)
                  if all(sum(1 for j in g if r[j]) <= 1 for g in groups)]
    assert extreme_rays(cone, exclusive=groups) == admissible


def test_decompose_over_reports_least_tuple():
    basis = [(0, 2, 1), (1, 1, 1), (2, 0, 1)]
    counts = decompose_over((2, 2, 2), basis)
    assert counts == (1, 0, 1)
    assert decompose_over((1, 0, 0), basis) is None


def test_brute_force_completeness_small_systems():
    # Desk-scale completeness: compare against direct lattice reasoning on
    # a nontrivial system in 4 variables.
    rows = [(1, 1, -1, -1), (2, 0, -1, -1)]
    cone = RationalCone(rows, 4)
    rays = extreme_rays(cone)
    box = [(a, b, c, d)
           for a in range(7) for b in range(7)
           for c in range(7) for d in range(7)
           if a + b == c + d and 2 * a == c + d and any((a, b, c, d))]
    # every enumerated point is a nonnegative rational combination of rays:
    # at desk scale verify each primitive point lies in the cone and each
    # ray appears among the points.
    prims = {primitive(p) for p in box}
    for r in rays:
        assert r in prims
    basis = hilbert_basis(cone)
    for p in box:
        assert decompose_over(p, basis) is not None
