import copy
import json
import random
from math import lcm
from operator import attrgetter, methodcaller
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laminate import surfaces
from laminate.branched import zero_chi_locus
from laminate.errors import Inadmissible, InternalCheckFailed
from laminate.finiteness import enumerate_genus
from laminate.linalg import dot
from laminate.normal import (chi_functional_coefficients, haken_sum,
                             iter_orthant_supports, matching_system,
                             quad_oct_clashes, quad_index, tri_index,
                             vector_length, vertex_solutions, weight)
from laminate.surfaces import build_surface
from laminate.triangulation import parse_triangulation
from tests.conftest import (MODEL_NAMES, elementwise_surface, load_model,
                            surface_fields)
from tests.test_normal import (CENSUS, CENSUS_NAMES, DATA, SOLUTIONS_GOLDEN,
                               all_triangles_one)

GOLDEN = Path(__file__).resolve().parent / "data" / "surfaces_golden.json"


def _klein_bottle(two_tet):
    kb = [0] * vector_length(two_tet)
    kb[quad_index(0, 2)] = 1
    kb[quad_index(1, 2)] = 1
    return tuple(kb)


def golden_cases(triangulations, fundamentals, plain_fundamentals, models):
    """
    The (fixture name, vector) list of the golden file, in order: every
    fixture's fundamentals with and without octagons, their 2x-5x
    multiples, the Haken sums of fundamental pairs within one orthant,
    seeded random stacks of up to three fundamentals, the two_tet Klein
    bottle and its double, and the genus-2 and genus-3 lists of the
    three_tet models.
    """
    cases = []
    rng = random.Random(2004)
    for name, tri in triangulations.items():
        funds = sorted(set(fundamentals[name]) | set(plain_fundamentals[name]))
        cases += [(name, f) for f in funds]
        cases += [(name, tuple(m * x for x in f))
                  for m in range(2, 6) for f in funds]
        for i, f in enumerate(funds):
            for g in funds[i:]:
                s = tuple(a + b for a, b in zip(f, g))
                if not quad_oct_clashes(tri, s)[0]:
                    cases.append((name, s))
        for _ in range(10):
            v = [0] * vector_length(tri)
            for f in rng.sample(funds, k=min(3, len(funds))):
                c = rng.randrange(6)
                v = [a + c * b for a, b in zip(v, f)]
            if any(v) and not quad_oct_clashes(tri, v)[0]:
                cases.append((name, tuple(v)))
    kb = _klein_bottle(triangulations["two_tet.tri"])
    cases += [("two_tet.tri", kb), ("two_tet.tri", tuple(2 * x for x in kb))]
    for name in ("three_tet_almost_normal.json",
                 "three_tet_normal_genus2.json"):
        for genus in (2, 3):
            cases += [("three_tet.tri", v)
                      for v in enumerate_genus(models[name], genus).vectors]
    return cases


def golden_record(tri, name, v):
    surface = build_surface(tri, v)
    return {"triangulation": name, "vector": list(v),
            "surface": surface.to_json_dict(),
            "disk_ids": [c.disk_ids for c in surface.components]}


def test_builder_reproduces_golden_surfaces(triangulations, fundamentals,
                                            plain_fundamentals, models):
    golden = json.loads(GOLDEN.read_text())
    cases = golden_cases(triangulations, fundamentals, plain_fundamentals,
                         models)
    assert [(g["triangulation"], tuple(g["vector"])) for g in golden] == cases
    for g in golden:
        name = g["triangulation"]
        assert golden_record(triangulations[name], name,
                             tuple(g["vector"])) == g


def _topology(surface):
    """(connected, orientable) of a built surface, both read off its
    gluing pass."""
    return surface.connected, surface.orientable


def test_topology_agrees_with_golden_surfaces(triangulations):
    for g in json.loads(GOLDEN.read_text()):
        tri = triangulations[g["triangulation"]]
        surface = g["surface"]
        assert _topology(build_surface(tri, tuple(g["vector"]))) == (
            len(surface["components"]) == 1,
            all(c["orientable"] for c in surface["components"]))


def _vertex_solution_census():
    """(triangulation, vertex solutions with octagons) of every entry of
    the solutions golden file: the three fixtures and six census picks
    of 3 and 4 tetrahedra."""
    out = []
    for entry in json.loads(SOLUTIONS_GOLDEN.read_text()):
        (case,) = [c for c in entry["cases"]
                   if c["function"] == "vertex_solutions"
                   and c["include_octs"] and c["max_coeff_bits"] is None]
        out.append((parse_triangulation(entry["triangulation"]),
                    [tuple(r) for r in case["solutions"]]))
    return out


VERTEX_SOLUTION_CENSUS = _vertex_solution_census()


def _walk_sources():
    """(triangulation, rays) whose sums the genus filter meets: the
    fundamentals of every model under fixtures/models, and the vertex
    solutions with octagons of the five-tetrahedron census pick t5_1."""
    out = []
    for name in MODEL_NAMES:
        model = load_model(name)
        out.append((model.triangulation, list(model.fundamentals())))
    tri = parse_triangulation((CENSUS / "t5_1.tri").read_text())
    out.append((tri, vertex_solutions(tri, include_octs=True)))
    return out


WALK_SOURCES = _walk_sources()


def _draw_sum(data, sources):
    # A nonnegative combination of rays; a term that would give some
    # tetrahedron a second quad/oct direction is skipped.
    tri, rays = data.draw(st.sampled_from(sources))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(rays),
                                         st.integers(1, 3)),
                               min_size=1, max_size=4))
    v = (0,) * vector_length(tri)
    for ray, n in terms:
        w = tuple(a + n * b for a, b in zip(v, ray))
        if not quad_oct_clashes(tri, w)[0]:
            v = w
    return tri, v


def _check_random_sum(data, sources):
    # The per-arc oracle, not the cell counts: those complete the same
    # gluing pass, so agreeing with them would prove little.
    tri, v = _draw_sum(data, sources)
    oracle = elementwise_surface(tri, v)
    assert _topology(build_surface(tri, v)) == (
        len(oracle.components) == 1,
        all(c.orientable for c in oracle.components))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_topology_agrees_with_builder_on_random_sums(data):
    _check_random_sum(data, VERTEX_SOLUTION_CENSUS)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_topology_agrees_with_builder_on_walk_sums(data):
    _check_random_sum(data, WALK_SOURCES)


def _klein_source():
    """(two_tet, [the Klein bottle]): the one vertex of the zero_chi_locus
    of the two_tet_klein model, scaled to the least integer vector."""
    model = load_model("two_tet_klein.json")
    (vertex,) = zero_chi_locus(model)
    scale = lcm(*(x.denominator for x in vertex))
    return model.triangulation, [tuple(int(scale * x) for x in vertex)]


KLEIN_SOURCE = _klein_source()


def _check_multiples(tri, w):
    # S(m*w) is m parallel copies of each two-sided component of S(w), and
    # floor(m/2) orientable doubles plus m mod 2 copies of each one-sided
    # one, so it is orientable unless m is odd and S(w) is not.
    components = build_surface(tri, w).components
    one_sided = sum(not c.orientable for c in components)
    for m in range(2, 5):
        count = ((len(components) - one_sided) * m
                 + one_sided * (m // 2 + m % 2))
        surface = build_surface(tri, tuple(m * x for x in w))
        assert _topology(surface) == (count == 1,
                                      m % 2 == 0 or not one_sided)
        assert len(surface.components) == count


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_multiples_are_predicted_from_the_single_surface(data):
    # The rule the genus filter decides a multiple by, over sums with and
    # without octagons and over the Klein bottle's multiples.
    _check_multiples(*_draw_sum(data, VERTEX_SOLUTION_CENSUS + WALK_SOURCES
                                + [KLEIN_SOURCE]))


def test_klein_bottle_double_is_one_orientable_surface():
    tri, (kb,) = KLEIN_SOURCE
    assert _topology(build_surface(tri, kb)) == (True, False)
    assert _topology(build_surface(tri, tuple(2 * x for x in kb))) == \
        (True, True)
    _check_multiples(tri, kb)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data(), st.integers(1, 4))
def test_builder_agrees_with_the_elementwise_oracle(data, m):
    # Every field, disk ids and component order included, on sums with and
    # without octagons, the Klein bottle, and their multiples.
    tri, v = _draw_sum(data, VERTEX_SOLUTION_CENSUS + WALK_SOURCES
                       + [KLEIN_SOURCE])
    v = tuple(m * x for x in v)
    assert surface_fields(build_surface(tri, v)) == \
        surface_fields(elementwise_surface(tri, v))


def test_one_sided_rescan_marks_only_the_klein_bottle():
    # Three Klein bottles are a torus (copies 0 and 2) and a Klein bottle
    # (copy 1).  One union run covers all three copies of a slot and
    # records the middle pair as twisted; only its component is one-sided.
    tri, (kb,) = KLEIN_SOURCE
    v = tuple(3 * x for x in kb)
    surface = build_surface(tri, v)
    assert [(c.disk_ids, c.chi, c.orientable) for c in surface.components] \
        == [([0, 2, 3, 5], 0, True), ([1, 4], 0, False)]
    assert surface_fields(surface) == \
        surface_fields(elementwise_surface(tri, v))


def test_cells_are_counted_and_checked_on_first_read(monkeypatch, two_tet):
    # The gluing pass answers connectivity and orientability; every cell
    # field waits for the completion checks, which fail here on a weight
    # one too large, and fail again on the next read.  With the weight
    # mended the same surface counts its cells and drops the pass.
    monkeypatch.setattr(surfaces, "weight", lambda tri, v: weight(tri, v) + 1)
    link = all_triangles_one(two_tet)
    surface = build_surface(two_tet, link)
    assert _topology(surface) == (True, True)
    reads = [attrgetter(name) for name in ("components", "chi", "vertex_count",
                                           "arc_pair_count", "disk_count")]
    for read in reads + [methodcaller("to_json_dict")]:
        with pytest.raises(InternalCheckFailed,
                           match="vertex count differs from weight"):
            read(surface)
    monkeypatch.undo()
    assert (surface.chi, surface.vertex_count, surface.disk_count) == \
        (2, weight(two_tet, link), sum(link))
    assert "_pass" not in vars(surface)


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
        coeffs = chi_functional_coefficients(tri)
        for f in fundamentals[name]:
            assert build_surface(tri, f).chi == dot(coeffs, f)


def test_cell_complex_counting_invariants(triangulations, fundamentals):
    for name, tri in triangulations.items():
        for f in fundamentals[name]:
            surface = build_surface(tri, f)
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
        for f in fundamentals[name]:
            single = build_surface(tri, f)
            double = build_surface(tri, tuple(2 * x for x in f))
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
        funds = plain_fundamentals[name]
        pairs = 0
        for v in funds:
            for w in funds:
                s = tuple(a + b for a, b in zip(v, w))
                if quad_oct_clashes(tri, s)[0]:
                    continue
                pairs += 1
                total = haken_sum(tri, v, w)
                assert total == s
                chi_v = build_surface(tri, v).chi
                chi_w = build_surface(tri, w).chi
                assert build_surface(tri, total).chi == chi_v + chi_w
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
            if quad_oct_clashes(tri, v)[0]:
                continue
            assert build_surface(tri, v).chi == dot(coeffs, v)


def _census_faces():
    """(triangulation, chi coefficients, fundamentals of one maximal
    admissible face) for every maximal face of the seven census picks,
    octagons included.  A face's fundamentals are those inside one maximal
    quad/oct orthant, where no other orthant holds more."""
    picks = [(parse_triangulation(entry["triangulation"]), case["solutions"])
             for entry in json.loads(SOLUTIONS_GOLDEN.read_text())
             if entry["name"] + ".tri" in CENSUS_NAMES
             for case in entry["cases"]
             if case["function"] == "fundamental_solutions"
             and case["include_octs"]]
    pinned = json.loads((DATA / "fundamental_solutions_pinned.json")
                        .read_text())
    picks.append((parse_triangulation((CENSUS / "t5_1.tri").read_text()),
                  pinned["t5_1"]["octagons"]))
    out = []
    for tri, funds in picks:
        supports = [(tuple(f), frozenset(j for j, x in enumerate(f) if x))
                    for f in funds]
        faces = list(dict.fromkeys(
            frozenset(f for f, s in supports if s <= orthant)
            for orthant in iter_orthant_supports(tri, include_octs=True)))
        coeffs = chi_functional_coefficients(tri)
        out.extend((tri, coeffs, sorted(face)) for face in faces
                   if face and not any(face < other for other in faces))
    return out


CENSUS_FACES = _census_faces()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_chi_functional_agrees_on_census_face_combinations(data):
    # Every nonnegative combination of one maximal face's fundamentals is
    # embeddable: octagon coordinates above one are parallel copies.
    tri, coeffs, face = data.draw(st.sampled_from(CENSUS_FACES))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(face),
                                         st.integers(1, 3)),
                               min_size=1, max_size=4))
    v = (0,) * vector_length(tri)
    for f, n in terms:
        v = tuple(a + n * b for a, b in zip(v, f))
    assert build_surface(tri, v).chi == dot(coeffs, v)


def test_octagon_stacks_match_functional(three_tet):
    coeffs = chi_functional_coefficients(three_tet)
    base = (0, 0, 2, 0, 2, 0, 0, 0, 0, 0,
            0, 2, 0, 0, 0, 2, 0, 0, 0, 0,
            1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    for k in range(1, 5):
        v = tuple(k * x for x in base)
        assert build_surface(three_tet, v).chi == dot(coeffs, v) == -2 * k


def _flip_edge(tri, incidence):
    """A copy of tri with one edge incidence's orientation inverted, whose
    gluing table is built afresh from the inverted one."""
    tri = copy.copy(tri)
    tri.edge_class_of = dict(tri.edge_class_of)
    cls, flipped = tri.edge_class_of[incidence]
    tri.edge_class_of[incidence] = (cls, 1 - flipped)
    tri.__dict__.pop("gluing_table", None)
    return tri


@pytest.mark.parametrize("incidence", [(0, 0), (1, 2), (2, 5)])
def test_inverted_edge_flip_fails_the_per_arc_check(three_tet, incidence):
    # A builder that skips comparing the two ends of every glued arc would
    # accept this corrupted edge orientation.
    tri = _flip_edge(three_tet, incidence)
    with pytest.raises(InternalCheckFailed,
                       match="glued arc endpoints land on different points"):
        build_surface(tri, all_triangles_one(tri))


@pytest.mark.parametrize("incidence", [(0, 0), (1, 2), (2, 5)])
def test_inverted_edge_flip_fails_the_topology_point_check(three_tet,
                                                           incidence):
    # The same corruption on stacked links, whose slots are ranges of two
    # and three ranks: caught at the first rank of a range or by its steps.
    tri = _flip_edge(three_tet, incidence)
    for m in (2, 3):
        with pytest.raises(InternalCheckFailed,
                           match="glued arc endpoints land on different"):
            build_surface(tri, tuple(m * x for x in all_triangles_one(tri)))


@pytest.mark.parametrize("corner", range(12))
def test_crossed_glued_corner_fails_both_point_checks(two_tet, corner):
    # The vertex link has arcs at every glued face corner; matching their
    # ends the wrong way round lands them on different points.
    ends, glued = two_tet.gluing_table
    slot1, slot2, crossed = glued[corner]
    tri = copy.copy(two_tet)
    tri.gluing_table = (ends, glued[:corner] + ((slot1, slot2, not crossed),)
                        + glued[corner + 1:])
    with pytest.raises(InternalCheckFailed,
                       match="glued arc endpoints land on different"):
        build_surface(tri, all_triangles_one(tri))


def test_broken_edge_point_count_fails_both(monkeypatch, three_tet):
    # One more triangle at vertex 0 of tetrahedron 0 breaks the matching
    # equations; past the admissibility check, the edges of its class in
    # other tetrahedra see one point fewer.
    monkeypatch.setattr(surfaces, "_check_rebuildable",
                        lambda tri, v: None)
    v = list(all_triangles_one(three_tet))
    v[tri_index(0, 0)] += 1
    with pytest.raises(InternalCheckFailed,
                       match="edge class .* sees .* points"):
        build_surface(three_tet, tuple(v))


def test_flipped_reference_side_fails_both_orientation_checks(monkeypatch,
                                                              three_tet):
    # One corner of the type-0 triangle template with its reference side
    # turned over: the points still agree, the two ends of its arcs then
    # disagree on the orientation relation.
    corners, arcs = surfaces._DISK_TEMPLATES[0]
    pair, base, rev, toward_y = corners[0]
    flipped = ((pair, base, rev, not toward_y),) + corners[1:]
    monkeypatch.setattr(surfaces, "_DISK_TEMPLATES",
                        ((flipped, arcs),) + surfaces._DISK_TEMPLATES[1:])
    with pytest.raises(InternalCheckFailed,
                       match="orientation relation differs"):
        build_surface(three_tet, all_triangles_one(three_tet))


@pytest.mark.parametrize("kind, corner",
                         [(k, c) for k in range(4) for c in range(3)])
def test_flipped_corner_step_fails_the_topology_step_check(monkeypatch,
                                                           three_tet, kind,
                                                           corner):
    # One corner of a triangle kind of tetrahedron 0 steps the wrong way
    # along its edge, with copy 0 where it was: triangle arcs rank their
    # copies from 0, so every arc of that corner keeps its first-rank
    # point.  On the vertex link, one copy per kind, every check passes;
    # on its double, every slot is one range of two ranks, so the gluing
    # pass can only catch the flip by comparing the steps of the glued
    # ranges.
    # On an edge of degree one (tetrahedron 0's edge 23 here) the corner's
    # arcs are glued only to each other: the flip swaps the two points
    # consistently and build_surface may not object.
    real = surfaces._disk_kinds
    flipped_class = []

    def flipped(tri, v, ends):
        for i, (t, copies, shift, arc_plan, corners) in enumerate(
                real(tri, v, ends)):
            if i == kind:
                assert (t, arc_plan) == (0, surfaces._DISK_TEMPLATES[kind][1])
                along, cls, p, dp = corners[corner]
                corners = list(corners)
                corners[corner] = (along, cls, p, -dp)
                flipped_class.append(cls)
            yield t, copies, shift, arc_plan, corners

    def shape(v):
        surface = build_surface(three_tet, v)
        return _topology(surface) + (len(surface.components),)

    link = all_triangles_one(three_tet)
    double = tuple(2 * x for x in link)
    want = shape(link), shape(double)
    monkeypatch.setattr(surfaces, "_disk_kinds", flipped)
    assert shape(link) == want[0]
    if three_tet.edge_degrees()[flipped_class[0]] == 1:
        assert shape(double) == want[1]
        return
    with pytest.raises(InternalCheckFailed,
                       match="glued arc endpoints land on different"):
        build_surface(three_tet, double)


@pytest.mark.parametrize("rebuild", [build_surface], ids=["build_surface"])
def test_late_piece_fails_the_tiling_check(monkeypatch, two_tet, rebuild):
    # Every kind's copies start one rank late, leaving rank 0 of each slot
    # of the Klein bottle's quads empty; the gluing pass must refuse that
    # before it compares any points.
    real = surfaces._disk_kinds

    def late(tri, v, ends):
        for t, copies, shift, arc_plan, corners in real(tri, v, ends):
            yield t, copies, [x + 1 for x in shift], arc_plan, corners

    monkeypatch.setattr(surfaces, "_disk_kinds", late)
    with pytest.raises(InternalCheckFailed,
                       match="slot pieces overlap or leave gaps"):
        rebuild(two_tet, _klein_bottle(two_tet))


def test_gluing_table_checks_the_classes_of_glued_edges(three_tet):
    tri = copy.copy(three_tet)
    tri.__dict__.pop("gluing_table", None)
    tri.edge_class_of = dict(tri.edge_class_of)
    cls, flipped = tri.edge_class_of[(0, 0)]
    tri.edge_class_of[(0, 0)] = ((cls + 1) % tri.edge_count, flipped)
    with pytest.raises(InternalCheckFailed,
                       match="glued arcs disagree on their edges"):
        build_surface(tri, all_triangles_one(tri))


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
    kb = _klein_bottle(two_tet)
    surface = build_surface(two_tet, kb)
    assert surface.connected
    assert not surface.components[0].orientable
    assert surface.components[0].genus_or_crosscap == 2
    double = build_surface(two_tet, tuple(2 * x for x in kb))
    assert double.connected
    assert double.components[0].orientable
    assert double.components[0].genus_or_crosscap == 1


if __name__ == "__main__":
    # Rewrite the golden file from the builder on the path; run it as
    # ``PYTHONPATH=src python3 -m tests.test_surfaces`` from the checkout.
    from laminate.normal import fundamental_solutions
    from tests.conftest import MODEL_NAMES, TRI_NAMES, load_model, \
        load_triangulation
    tris = {name: load_triangulation(name) for name in TRI_NAMES}
    cases = golden_cases(
        tris,
        {n: fundamental_solutions(t, include_octs=True)
         for n, t in tris.items()},
        {n: fundamental_solutions(t) for n, t in tris.items()},
        {name: load_model(name) for name in MODEL_NAMES})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(
        json.dumps(golden_record(tris[n], n, v)) for n, v in cases) + "\n]\n")
