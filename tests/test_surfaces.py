import random

import pytest

from laminate.errors import Inadmissible
from laminate.linalg import dot
from laminate.normal import (chi_functional_coefficients, matching_system,
                             quad_oct_profile, quad_index, tri_index,
                             vector_length, weight)
from laminate.surfaces import build_surface, haken_sum
from tests.test_normal import all_triangles_one


def test_vertex_link_builds_sphere(triangulations):
    for tri in triangulations.values():
        if tri.vertex_count != 1:
            continue
        surface = build_surface(tri, all_triangles_one(tri))
        assert surface.connected
        comp = surface.components[0]
        assert comp.chi == 2
        assert comp.orientable
        assert comp.genus_or_crosscap == 0


def test_double_link_gives_two_spheres(two_tet):
    v = tuple(2 * x for x in all_triangles_one(two_tet))
    surface = build_surface(two_tet, v)
    assert len(surface.components) == 2
    assert all(c.chi == 2 for c in surface.components)


def test_chi_functional_agrees_on_fundamentals(triangulations, fundamentals):
    for name, tri in triangulations.items():
        system = matching_system(tri)
        coeffs = chi_functional_coefficients(tri)
        for f in fundamentals[name]:
            assert build_surface(tri, f, system).chi == dot(coeffs, f)


def test_cell_complex_counting_invariants(triangulations, fundamentals):
    for name, tri in triangulations.items():
        system = matching_system(tri)
        for f in fundamentals[name]:
            surface = build_surface(tri, f, system)
            assert surface.vertex_count == weight(tri, f)
            assert surface.disk_count == sum(f)
            arcs = sum(3 * f[tri_index(t, i)] for t in range(tri.tet_count)
                       for i in range(4))
            arcs += sum(4 * f[quad_index(t, q)] for t in range(tri.tet_count)
                        for q in range(3))
            arcs += sum(8 * f[10 * t + 7 + q] for t in range(tri.tet_count)
                        for q in range(3))
            assert surface.arc_pair_count == arcs // 2


def test_octagon_vector_builds(three_tet):
    # The almost normal genus-2 fundamental exercises the full octagon
    # table: two arcs per face, double axis intersections, closed boundary.
    v = (0, 0, 2, 0, 2, 0, 0, 0, 0, 0,
         0, 2, 0, 0, 0, 2, 0, 0, 0, 0,
         1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    surface = build_surface(three_tet, v)
    assert surface.connected
    assert surface.chi == -2
    assert surface.components[0].orientable
    assert surface.components[0].genus_or_crosscap == 2
    coeffs = chi_functional_coefficients(three_tet)
    assert dot(coeffs, v) == -2


def test_parallel_octagons_build(three_tet):
    # Octagon coordinate 2 is not almost normal but still embeddable.
    v = (0, 0, 4, 0, 4, 0, 0, 0, 0, 0,
         0, 4, 0, 0, 0, 4, 0, 0, 0, 0,
         2, 0, 0, 2, 0, 0, 0, 0, 0, 2)
    surface = build_surface(three_tet, v)
    assert surface.chi == -4
    assert len(surface.components) == 2


def test_doubling_structure(triangulations, fundamentals):
    for name, tri in triangulations.items():
        system = matching_system(tri)
        for f in fundamentals[name]:
            single = build_surface(tri, f, system)
            double = build_surface(tri, tuple(2 * x for x in f), system)
            assert double.chi == 2 * single.chi
            one_sided = sum(1 for c in single.components if not c.orientable)
            two_sided = len(single.components) - one_sided
            # Each 2-sided component doubles into two parallel copies; a
            # 1-sided component lifts to its connected orientation double.
            assert len(double.components) == 2 * two_sided + one_sided
            assert all(c.orientable for c in double.components)


def test_haken_sum_chi_additive_on_compatible_fundamentals(triangulations,
                                                            plain_fundamentals):
    random.seed(11)
    for name, tri in triangulations.items():
        system = matching_system(tri)
        funds = plain_fundamentals[name]
        pairs = 0
        for v in funds:
            for w in funds:
                s = tuple(a + b for a, b in zip(v, w))
                if any(len(quad_oct_profile(s, t)) > 1
                       for t in range(tri.tet_count)):
                    continue
                pairs += 1
                total = haken_sum(tri, v, w)
                assert total == s
                chi_v = build_surface(tri, v, system).chi
                chi_w = build_surface(tri, w, system).chi
                assert build_surface(tri, total, system).chi == chi_v + chi_w
                assert weight(tri, total) == weight(tri, v) + weight(tri, w)
        assert pairs > 0


def test_link_plus_link_has_chi_four(two_tet):
    link = all_triangles_one(two_tet)
    total = haken_sum(two_tet, link, link)
    assert build_surface(two_tet, total).chi == 4


def test_chi_functional_on_large_random_combinations(triangulations,
                                                     fundamentals):
    # Deep parallel stacks (multiplicities up to 5) stress the disk
    # ordering rules well beyond the exhaustive small boxes.
    rng = random.Random(3)
    for name, tri in triangulations.items():
        system = matching_system(tri)
        coeffs = chi_functional_coefficients(tri)
        funds = fundamentals[name]
        for _ in range(25):
            v = [0] * vector_length(tri)
            for f in rng.sample(funds, k=min(3, len(funds))):
                c = rng.randrange(6)
                v = [a + c * b for a, b in zip(v, f)]
            v = tuple(v)
            if not any(v):
                continue
            if any(len(quad_oct_profile(v, t)) > 1
                   for t in range(tri.tet_count)):
                continue
            assert build_surface(tri, v, system).chi == dot(coeffs, v)


def test_octagon_stacks_match_functional(three_tet):
    coeffs = chi_functional_coefficients(three_tet)
    base = (0, 0, 2, 0, 2, 0, 0, 0, 0, 0,
            0, 2, 0, 0, 0, 2, 0, 0, 0, 0,
            1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    for k in range(1, 5):
        v = tuple(k * x for x in base)
        assert build_surface(three_tet, v).chi == dot(coeffs, v) == -2 * k


def test_inadmissible_vector_rejected(two_tet):
    v = [0] * vector_length(two_tet)
    v[quad_index(0, 0)] = 1
    with pytest.raises(Inadmissible, match="matching equation"):
        build_surface(two_tet, tuple(v))
    w = [0] * vector_length(two_tet)
    w[quad_index(0, 0)] = 1
    w[quad_index(0, 1)] = 1
    with pytest.raises(Inadmissible):
        build_surface(two_tet, tuple(w))
    # The matching equations hold but tetrahedron 0 gets two quad types:
    # the sum of the vertex solutions e6 + e16 and e5 + e14.
    u = [0] * vector_length(two_tet)
    for j in (5, 6, 14, 16):
        u[j] = 1
    assert not any(matching_system(two_tet).residual(u))
    with pytest.raises(Inadmissible,
                       match="more than one quad/oct direction"):
        build_surface(two_tet, tuple(u))


def test_orientation_verdict_stable_under_relabelling(two_tet):
    # The Klein bottle fundamentals are 1-sided however the propagation
    # is seeded; doubling them is orientable.
    kb = [0] * vector_length(two_tet)
    kb[quad_index(0, 2)] = 1
    kb[quad_index(1, 2)] = 1
    kb = tuple(kb)
    surface = build_surface(two_tet, kb)
    assert surface.connected
    assert not surface.components[0].orientable
    assert surface.components[0].genus_or_crosscap == 2
    double = build_surface(two_tet, tuple(2 * x for x in kb))
    assert double.connected
    assert double.components[0].orientable
    assert double.components[0].genus_or_crosscap == 1
