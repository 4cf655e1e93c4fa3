from itertools import product
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from laminate import cones, normal
from laminate.bruteforce import extreme_ray_oracle, hilbert_oracle
from laminate.cones import (RationalCone, decompose_over, extreme_rays,
                            hilbert_basis, positive_integer_point, primitive)
from laminate.errors import CoefficientBudgetExceeded, WorkBudgetExceeded
from laminate.linalg import det, dot
from laminate.normal import (fundamental_solutions, matching_cone,
                             matching_system)
from laminate.triangulation import parse_triangulation
from tests.test_normal import CENSUS


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
    assert hilbert_basis(extreme_rays(cone)) == [
        (0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_hilbert_basis_of_orthant_is_unit_vectors():
    cone = RationalCone([], 3)
    assert hilbert_basis(extreme_rays(cone)) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_hilbert_basis_elements_irreducible_by_enumeration():
    # Exhaustively check irreducibility below a small box.
    cone = RationalCone([(1, 1, -2)], 3)
    basis = hilbert_basis(extreme_rays(cone))
    points = [(a, b, c) for a in range(5) for b in range(5) for c in range(5)
              if a + b == 2 * c and any((a, b, c))]
    for h in basis:
        splits = [(p, tuple(x - y for x, y in zip(h, p))) for p in points
                  if all(x <= y for x, y in zip(p, h)) and p != h]
        assert not any(q in points for (p, q) in splits if any(q))
    # and every point decomposes
    for p in points:
        assert decompose_over(p, basis) is not None


def test_positive_integer_point_plane():
    cone = RationalCone([(1, 1, -1)], 3)
    assert positive_integer_point(extreme_rays(cone),
                                  cone.support) == (1, 1, 2)


def test_positive_integer_point_missing_coordinate():
    # x2 is identically zero on the cone.
    cone = RationalCone([(0, 1, 0)], 3)
    assert positive_integer_point(extreme_rays(cone), cone.support) is None


def test_positive_integer_point_empty():
    cone = RationalCone([(1, 1, 1)], 3)
    assert positive_integer_point(extreme_rays(cone), cone.support) is None


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
    assert hilbert_basis(a) == hilbert_basis(b)


def test_chi_row_is_cleared_to_integers(models):
    for model in models.values():
        scale = lcm(*(c.denominator for c in model.chi))
        row = model.chi_augmented_cone().matrix[-1]
        assert all(type(x) is int for x in row)
        assert row == tuple(c * scale for c in model.chi)
    assert any(c.denominator > 1 for model in models.values()
               for c in model.chi)


def test_cones_share_the_matching_rows(models):
    for model in models.values():
        tri = model.triangulation
        rows = matching_system(tri).rows
        for cone in (model.cone, model.chi_augmented_cone(),
                     matching_cone(tri, model.support)):
            assert len(cone.matrix) >= len(rows)
            assert all(a is b for a, b in zip(cone.matrix, rows))


def test_coefficient_budget():
    cone = RationalCone([(1000000, -1, 0)], 3)
    with pytest.raises(CoefficientBudgetExceeded):
        extreme_rays(cone, max_coeff_bits=8)


def test_kept_ray_cap_is_refused(two_tet, monkeypatch):
    # two_tet's quad run keeps at most 12 rays at once, so a cap of 11
    # refuses the twelfth before it is stored, and 12 answers.
    rays = normal.vertex_solutions(two_tet)
    monkeypatch.setattr(cones, "DD_RAY_CAP", 11)
    with pytest.raises(WorkBudgetExceeded,
                       match=r"^a double description keeps 12 rays"
                             r" \(budget 11\)$"):
        normal.vertex_solutions(two_tet)
    monkeypatch.setattr(cones, "DD_RAY_CAP", 12)
    assert normal.vertex_solutions(two_tet) == rays


def test_parallelepiped_walk_over_budget_is_refused():
    # Rays (1, 3000, 0) and (1, 0, 3000): a 3000^2 walk.
    with pytest.raises(WorkBudgetExceeded):
        hilbert_basis(extreme_rays(RationalCone([(3000, -1, -1)], 3)))


def test_parallelepiped_walk_is_refused_before_any_point_is_listed(
        monkeypatch):
    # Rays (0, 1, 0, 2000), (0, 1, 2000, 0), (1, 0, 0, 2000) and
    # (1, 0, 2000, 0): two simplices of minor 2000 each.  The first alone
    # is within budget (2000^2 <= 5,000,000), both are not, and the walk
    # is refused before the first simplex's points are listed.
    calls = []
    listed = cones._parallelepiped_points

    def counting_points(*args):
        calls.append(args)
        return listed(*args)

    monkeypatch.setattr(cones, "_parallelepiped_points", counting_points)
    with pytest.raises(WorkBudgetExceeded,
                       match=r" covers 16000000 squared group elements"
                             r" \(budget 5000000\)$"):
        hilbert_basis(extreme_rays(RationalCone([(2000, 2000, -1, -1)], 4)))
    assert calls == []
    # Within budget, both simplices' points are listed.
    hilbert_basis(extreme_rays(RationalCone([(20, 20, -1, -1)], 4)))
    assert len(calls) == 2


# The heaviest quad orthants of the 4-tetrahedron census picks: 8
# extreme rays of rank 4 each.
HEAVY_QUAD_ORTHANTS = {
    "t4_0.tri": [0, 1, 2, 3, 6, 10, 11, 12, 13, 15, 20, 21, 22, 23, 26, 30,
                 31, 32, 33, 35],
    "t4_1.tri": [0, 1, 2, 3, 5, 10, 11, 12, 13, 14, 20, 21, 22, 23, 26, 30,
                 31, 32, 33, 36],
}


def _census_cones(name, include_octs):
    """The heavy quad orthant of a 4-tetrahedron pick, or every maximal
    face whose Hilbert basis fundamental_solutions computes."""
    tri = parse_triangulation((CENSUS / name).read_text())
    if name in HEAVY_QUAD_ORTHANTS:
        return [matching_cone(tri, HEAVY_QUAD_ORTHANTS[name])]
    faces = []

    def record(rays, max_coeff_bits=None):
        # The face is given by its rays; its cone is the matching cone on
        # the coordinates they use.
        used = frozenset(j for r in rays for j, x in enumerate(r) if x)
        faces.append(matching_cone(tri, used))
        return hilbert_basis(rays, max_coeff_bits=max_coeff_bits)

    with mock.patch.object(normal, "hilbert_basis", record):
        fundamental_solutions(tri, include_octs)
    return faces


@pytest.mark.parametrize("name, include_octs", [
    ("t4_0.tri", False), ("t4_1.tri", False),
    ("t5_1.tri", False), ("t5_1.tri", True)])
def test_hilbert_basis_does_not_depend_on_the_triangulation(name,
                                                            include_octs):
    # The pulling triangulation cones the least ray over the facets that
    # do not hold it, so renaming the coordinates pulls other rays first
    # and cuts the cone into other simplices; the basis must follow the
    # renaming.
    for cone in _census_cones(name, include_octs):
        basis = hilbert_basis(extreme_rays(cone))

        @settings(derandomize=True, deadline=None, max_examples=10)
        @given(st.permutations(range(cone.dim)))
        def check(rename):
            def moved(vec):
                out = [0] * cone.dim
                for j, x in enumerate(vec):
                    out[rename[j]] = x
                return tuple(out)

            renamed = RationalCone([moved(row) for row in cone.matrix],
                                   cone.dim, [rename[j] for j in cone.support])
            assert (hilbert_basis(extreme_rays(renamed))
                    == sorted(map(moved, basis)))

        check()


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
    assert hilbert_basis(rays) == hilbert_oracle(points)


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


@st.composite
def supported_grouped_cones(draw):
    """Sparse rows, a support, and coordinate groups of two or three that
    may overlap and reach outside the support."""
    n = draw(st.integers(5, 8))
    rows = [tuple(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
            for _ in range(draw(st.integers(1, 4)))]
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2,
                                  max_size=n - 1)))
    groups = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=3, unique=True).map(tuple),
                           min_size=1, max_size=4))
    return rows, support, tuple(groups)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(supported_grouped_cones())
def test_exclusive_groups_on_a_support_keep_the_admissible_extreme_rays(
        case):
    # The double description holds its rays over the support positions
    # only, so each group is cut to the support before it filters pairs.
    rows, support, groups = case
    n = len(rows[0])
    cone = RationalCone(rows, n, support)
    rays = extreme_rays(cone)
    kept = extreme_rays(cone, exclusive=groups)
    assert kept == [r for r in rays
                    if all(sum(1 for j in g if r[j]) <= 1 for g in groups)]
    for r in rays:
        assert len(r) == n
        assert not any(r[j] for j in range(n) if j not in support)


def test_rational_cone_checks_its_input():
    with pytest.raises(ValueError, match=r"^row length 2 != dim 3$"):
        RationalCone([(1, 1, 0), (1, 2)], 3)
    for j in (3, -1):
        with pytest.raises(ValueError,
                           match=r"^support index %d out of range$" % j):
            RationalCone([], 3, support=[0, j])
    cone = RationalCone([(1, -1, 0)], 3)
    assert cone.contains((1, 1, 0))
    assert not cone.contains((1, 1))
    assert not cone.contains((1, 1, 0, 0))


def test_decompose_over_reads_a_failed_search_from_its_memo(monkeypatch):
    # h0 = h1 + h2, so picking h0 then h3 and picking h1, h2 then h3 leave
    # the same residual (0, 0, 0, 1, 1) from index 3 on, and likewise with
    # h4 for (0, 0, 1, 0, 1) from index 4.  The first search from each
    # fails, and the second is read from the memo without searching below
    # it again.
    basis = [(1, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
             (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 2)]
    searched, hits = [], []
    least_picks = cones._least_picks

    def recording(residual, start, basis, memo):
        (hits if (residual, start) in memo else searched).append(
            (residual, start))
        return least_picks(residual, start, basis, memo)

    monkeypatch.setattr(cones, "_least_picks", recording)
    assert decompose_over((1, 1, 1, 1, 1), basis) is None
    assert hits == [((0, 0, 0, 1, 1), 3), ((0, 0, 1, 0, 1), 4)]
    assert len(searched) == len(set(searched))
    assert decompose_over((1, 1, 1, 1, 2), basis) == (1, 0, 0, 1, 1, 1)


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
    basis = hilbert_basis(rays)
    for p in box:
        assert decompose_over(p, basis) is not None
