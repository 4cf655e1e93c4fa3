from itertools import product

import pytest

from laminate.bruteforce import (enumerate_admissible,
                                 enumerate_quad_oct_solutions,
                                 enumerate_solutions, extreme_ray_oracle,
                                 hilbert_oracle, in_support)
from laminate.errors import WorkBudgetExceeded
from laminate.normal import (is_admissible, matching_system, quad_oct_profile,
                             vector_length)


def test_join_matches_naive_enumeration(one_tet):
    # Independent check of the join machinery on the smallest fixture:
    # filter the full coordinate box through the matching system directly.
    system = matching_system(one_tet)
    bound = 2
    naive = []
    for v in product(range(bound + 1), repeat=vector_length(one_tet)):
        if any(system.residual(v)):
            continue
        if any(len(quad_oct_profile(v, t)) > 1 for t in range(1)):
            continue
        naive.append(v)
    joined = sorted(enumerate_quad_oct_solutions(one_tet, bound))
    assert sorted(naive) == joined


def test_admissible_enumeration_respects_constraints(two_tet):
    system = matching_system(two_tet)
    for v in enumerate_admissible(two_tet, 2):
        assert is_admissible(two_tet, v, system).admissible


def test_admissible_is_filtered_quad_oct(two_tet):
    every = enumerate_quad_oct_solutions(two_tet, 2)
    admissible = set(enumerate_admissible(two_tet, 2))
    octs = [10 * t + 7 + q for t in range(2) for q in range(3)]
    refiltered = {v for v in every
                  if sum(v[j] for j in octs) <= 1
                  and all(v[j] <= 1 for j in octs)}
    assert refiltered == admissible


def test_support_enumeration(two_tet):
    support = frozenset([6, 16])   # the Klein bottle quad orbit
    points = enumerate_solutions(two_tet, 3, support)
    assert points == [tuple(k if j in support else 0 for j in range(20))
                      for k in range(4)]
    assert all(in_support(p, support) for p in points)


def test_oracles_on_synthetic_cone():
    # {x1 + x2 = 2 x3}: rays (2,0,1),(0,2,1); Hilbert basis adds (1,1,1).
    rows = [(1, 1, -2)]
    points = [(a, b, c) for a in range(9) for b in range(9) for c in range(9)
              if a + b == 2 * c]
    assert extreme_ray_oracle(points, rows, range(3)) == [(0, 2, 1), (2, 0, 1)]
    assert hilbert_oracle(points) == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_pattern_lists_over_the_cap_are_refused(one_tet):
    # 5^10 patterns on the full support, (1001^4)(6001) with quads/octs:
    # both over the cap, refused before any pattern is built.
    with pytest.raises(WorkBudgetExceeded):
        enumerate_solutions(one_tet, 4, range(vector_length(one_tet)))
    with pytest.raises(WorkBudgetExceeded):
        enumerate_quad_oct_solutions(one_tet, 1000)
