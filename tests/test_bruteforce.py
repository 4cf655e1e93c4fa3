import hashlib
from itertools import product

import pytest

from laminate.bruteforce import (ARC_TYPES, _patterns, _quad_oct_patterns,
                                 enumerate_admissible,
                                 enumerate_quad_oct_solutions,
                                 enumerate_solutions, extreme_ray_oracle,
                                 hilbert_oracle, in_support)
from laminate.errors import WorkBudgetExceeded
from laminate.normal import (ARC_DISKS, COORDS_PER_TET, is_admissible,
                             matching_system, quad_oct_profile, vector_length)


def arc_count(v, t, f, w):
    """Number of arcs of v's disks in face f of tet t cutting off corner w."""
    base = COORDS_PER_TET * t
    return sum(v[base + k] for k in ARC_DISKS[(f, w)])


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


def test_additive_signatures_equal_arc_counts():
    # Each signature is summed from disk columns; arc_count recomputes it
    # from the pattern alone.  The two local supports mix triangles with a
    # quad and with an octagon.
    lists = [_quad_oct_patterns(3, 3), _quad_oct_patterns(3, 1),
             _patterns({0, 1, 2, 3, 5}, 3), _patterns({0, 2, 3, 8}, 3)]
    for entries in lists:
        for pattern, sig in entries:
            assert sig == tuple(arc_count(pattern, 0, f, w)
                                for f, w in ARC_TYPES)


def _digest(vectors):
    return hashlib.sha256(repr(vectors).encode()).hexdigest()


def test_enumeration_lists_are_pinned(two_tet, three_tet):
    # sha256 of repr() of each list, in order, as recorded before the
    # pattern listers were merged into one.
    support = {6, 16} | {10 * t + i for t in range(2) for i in range(4)}
    assert _digest(enumerate_quad_oct_solutions(two_tet, 3)) == (
        "e366841210744faf6f62268c9019ca9e561f102e211eea7c99a0a4b0dec2f1b2")
    assert _digest(enumerate_admissible(three_tet, 3)) == (
        "b101383e0aadcd766651796ea29dcbe3afc09bace5d2f5420ccb33c2a435d857")
    assert _digest(enumerate_solutions(two_tet, 3, support)) == (
        "57fa5dd22a5288fd5c772d5f7774814258bfd8b29e7e24f1debc2537bdd8491e")
