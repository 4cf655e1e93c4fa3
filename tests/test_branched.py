import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import laminate.branched
import laminate.cones
from laminate.branched import (carries_nonneg_chi, from_support,
                               sub_branched_surface, zero_chi_locus)
from laminate.cones import extreme_rays, positive_integer_point
from laminate.errors import InternalCheckFailed, InvalidSupport, NotCarried
from laminate.linalg import dot
from laminate.normal import (chi_functional_coefficients, is_admissible,
                             matching_system, quad_index, tri_index,
                             vector_length)
from laminate.surfaces import build_surface
from laminate.triangulation import parse_triangulation
from tests.conftest import (dense, every_orthant_support, fixture_path,
                            load_model)
from tests.test_normal import CENSUS, all_triangles_one


def triangle_support(tri):
    return frozenset(tri_index(t, i) for t in range(tri.tet_count)
                     for i in range(4))


def test_triangle_support_fully_carries_vertex_link(two_tet):
    model = from_support(two_tet, triangle_support(two_tet))
    assert model.fully_carrying
    link = all_triangles_one(two_tet)
    assert model.carries(link)
    point = positive_integer_point(extreme_rays(model.cone), model.support)
    assert point is not None
    assert all(point[j] > 0 for j in model.support)


def test_invalid_support_two_quads(two_tet):
    bad = triangle_support(two_tet) | {quad_index(0, 0), quad_index(0, 1)}
    with pytest.raises(InvalidSupport):
        from_support(two_tet, bad)


def test_invalid_support_two_oct_sectors(two_tet):
    bad = {10 * 0 + 7, 10 * 1 + 7}
    with pytest.raises(InvalidSupport):
        from_support(two_tet, bad)


@pytest.mark.parametrize("path", [fixture_path("one_tet.tri"),
                                  fixture_path("two_tet.tri"),
                                  fixture_path("three_tet.tri"),
                                  CENSUS / "t4_0.tri"])
def test_from_support_accepts_exactly_the_allowed_supports(path):
    # Seeded random supports: every triangle coordinate with probability
    # 1/2, every quad/oct coordinate with a drawn, mostly small one.
    tri = parse_triangulation(path.read_text())
    allowed = list(every_orthant_support(tri, include_octs=True))
    rng = random.Random(26)
    outcomes = set()
    for _ in range(200):
        rate = rng.choice((0.05, 0.1, 0.2, 0.4))
        support = frozenset(
            j for j in range(vector_length(tri))
            if rng.random() < (0.5 if j % 10 < 4 else rate))
        if any(support <= s for s in allowed):
            octs = [j for j in support if j % 10 >= 7]
            assert from_support(tri, support).oct_sector == (
                octs[0] if octs else None)
            outcomes.add(bool(octs))
        else:
            with pytest.raises(InvalidSupport):
                from_support(tri, support)
            outcomes.add(None)
    assert outcomes == {None, False, True}


def test_fundamental_support_fully_carries_it(three_tet, fundamentals):
    for f in fundamentals["three_tet.tri"]:
        support = frozenset(j for j, x in enumerate(f) if x)
        model = from_support(three_tet, support)
        assert model.carries(f)
        assert model.fully_carrying


def test_sub_branched_surface(two_tet, models):
    full = from_support(
        two_tet, triangle_support(two_tet) | {quad_index(0, 2),
                                              quad_index(1, 2)})
    link = all_triangles_one(two_tet)
    sub = sub_branched_surface(full, link)
    assert sub.support == triangle_support(two_tet)
    # strictly positive vector reproduces the full support
    kb = [0] * vector_length(two_tet)
    kb[quad_index(0, 2)] = 1
    kb[quad_index(1, 2)] = 1
    positive = tuple(a + b for a, b in zip(link, kb))
    assert sub_branched_surface(full, positive).support == full.support
    # idempotence
    again = sub_branched_surface(sub, link)
    assert again.support == sub.support
    with pytest.raises(NotCarried):
        sub_branched_surface(models["two_tet_klein.json"], link)


def test_chi_functional_on_vertex_links(triangulations):
    for tri in triangulations.values():
        coeffs = chi_functional_coefficients(tri)
        link = all_triangles_one(tri)
        assert dot(coeffs, link) == 2 * tri.vertex_count
        assert dot(coeffs, tuple(2 * x for x in link)) == \
            2 * dot(coeffs, link)


def test_chi_functional_equals_cell_complex(triangulations, fundamentals):
    for name, tri in triangulations.items():
        coeffs = chi_functional_coefficients(tri)
        for f in fundamentals[name]:
            assert dot(coeffs, f) == build_surface(tri, f).chi


def test_verdict_positive_with_vertex_link_witness(models, two_tet):
    model = from_support(two_tet, triangle_support(two_tet))
    verdict = carries_nonneg_chi(model)
    assert verdict.verdict == "carries_positive_chi"
    assert dot(model.chi, verdict.witness) == 2


def test_verdict_all_negative(models):
    for name in ("three_tet_almost_normal.json", "three_tet_normal_genus2.json"):
        verdict = carries_nonneg_chi(models[name])
        assert verdict.all_negative
        assert all(c < 0 for c in verdict.fundamental_chis)


def test_verdict_zero_with_torus_witness(models):
    model = models["two_tet_klein.json"]
    verdict = carries_nonneg_chi(model)
    assert verdict.verdict == "carries_zero_chi"
    assert verdict.klein_witness is not None
    assert verdict.torus_witness is not None
    surface = build_surface(model.triangulation, verdict.torus_witness)
    assert surface.connected
    assert surface.chi == 0
    assert surface.components[0].orientable
    assert surface.components[0].genus_or_crosscap == 1
    # The one chi = 0 fundamental is a Klein bottle, and its double the
    # torus; no further double is built or reported.
    assert verdict.torus_witness == tuple(2 * x
                                          for x in verdict.klein_witness)
    assert verdict.to_json_dict()["klein_double_is_torus"] is None


def test_verdict_without_a_torus_is_a_bug(monkeypatch):
    # The chi = 0 search builds the zero-chi fundamental and its double
    # and nothing more; were both one-sided, that would be a bug, not a
    # Klein bottle verdict.
    model = load_model("two_tet_klein.json")
    builds = []

    def one_sided(tri, v):
        builds.append(v)
        return SimpleNamespace(connected=True, chi=0, components=[
            SimpleNamespace(orientable=False)])

    monkeypatch.setattr(laminate.branched, "build_surface", one_sided)
    with pytest.raises(InternalCheckFailed, match="no torus"):
        carries_nonneg_chi(model)
    (f,) = model.fundamentals()
    assert builds == [f, tuple(2 * x for x in f)]


def test_zero_chi_locus_empty_for_all_negative(models):
    assert zero_chi_locus(models["three_tet_normal_genus2.json"]) == []
    assert zero_chi_locus(models["three_tet_almost_normal.json"]) == []


def test_zero_chi_locus_single_vertex_for_klein_model(models):
    model = models["two_tet_klein.json"]
    locus = zero_chi_locus(model)
    expected = [0] * vector_length(model.triangulation)
    expected[quad_index(0, 2)] = Fraction(1, 2)
    expected[quad_index(1, 2)] = Fraction(1, 2)
    assert locus == [tuple(expected)]
    # chi = 0 already holds on the whole cone here, so the added equation
    # is redundant and the locus is the entire (single-vertex) slice.
    from laminate.cones import extreme_rays
    slice_rays = extreme_rays(model.cone)
    assert len(slice_rays) == len(locus)


def test_zero_chi_locus_of_mixed_sign_model(three_tet):
    # Support carrying both the vertex link (chi 2) and a genus-2 surface
    # (chi -2): the chi = 0 slice is a nontrivial polytope whose vertices
    # mix the two.
    support = (triangle_support(three_tet)
               | {quad_index(0, 0), quad_index(1, 1)})
    model = from_support(three_tet, support)
    chis = [dot(model.chi, f) for f in model.fundamentals()]
    assert any(c > 0 for c in chis) and any(c < 0 for c in chis)
    locus = zero_chi_locus(model)
    assert locus
    for vertex in locus:
        assert dot(model.chi, vertex) == 0
        assert sum(vertex) == 1
        assert all(x >= 0 for x in vertex)
        assert not any(dot(dense(row, len(vertex)), vertex) for row in
                       matching_system(model.triangulation).rows)


def test_positive_integer_point_on_chi_augmented_system(models):
    model = models["two_tet_klein.json"]
    cone = model.chi_augmented_cone()
    point = positive_integer_point(extreme_rays(cone), cone.support)
    assert point is not None
    assert all(point[j] >= 1 for j in model.support)
    assert is_admissible(model.triangulation, point).quad_violations == []
    assert build_surface(model.triangulation, point).chi == 0


def test_model_json_shape(models):
    payload = models["three_tet_almost_normal.json"].to_json_dict()
    assert set(payload) == {"support", "oct_sector", "fully_carrying",
                            "fundamentals", "chi", "verdict"}
    assert payload["oct_sector"] == 29
    assert payload["fully_carrying"] is True
    assert payload["chi"] == ["-2", "-2"]
    assert payload["verdict"] == "all_negative_chi"


def test_all_negative_verdict_bounds_every_carried_point(models):
    # Bounded exhaustive check of the Haken-sum argument: with an
    # all-negative verdict, every nonzero integer point of the cone with
    # coordinates <= 10 has chi < 0.
    from laminate.bruteforce import enumerate_solutions
    for name in ("three_tet_almost_normal.json",
                 "three_tet_normal_genus2.json"):
        model = models[name]
        assert carries_nonneg_chi(model).all_negative
        for v in enumerate_solutions(model.triangulation, 10, model.support):
            if any(v):
                assert dot(model.chi, v) < 0


def test_model_runs_one_double_description(three_tet, monkeypatch):
    # Fundamentals and full carrying share the model cone's extreme rays.
    calls = []
    original = laminate.cones.extreme_rays

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(laminate.cones, "extreme_rays", counting)
    monkeypatch.setattr(laminate.branched, "extreme_rays", counting)
    model = from_support(three_tet, [2, 4, 11, 13, 15, 20, 21, 22, 23, 29])
    payload = model.to_json_dict()
    assert payload["fully_carrying"] and payload["fundamentals"]
    assert calls == [model.cone]


def test_verdict_is_decided_once_per_model(monkeypatch):
    # The zero-chi verdict builds its witness surfaces; a second call on
    # the same model returns the same verdict and builds nothing.
    model = load_model("two_tet_klein.json")
    builds = []
    original = laminate.branched.build_surface

    def counting(*args, **kwargs):
        builds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(laminate.branched, "build_surface", counting)
    first = carries_nonneg_chi(model)
    assert builds
    builds.clear()
    assert carries_nonneg_chi(model) is first
    assert builds == []
