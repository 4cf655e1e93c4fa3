import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laminate import cones, normal
from laminate.cones import (RationalCone, decompose_over, extreme_rays,
                            hilbert_basis)
from laminate.errors import (Inadmissible, IncompatibleQuads, LaminateError,
                             WorkBudgetExceeded)
from laminate.linalg import dot, rank
from laminate.normal import (ARC_DISKS, COORDS_PER_TET, DISK_EDGE_WEIGHTS,
                             chi_functional_coefficients, edge_weights,
                             fundamental_solutions, haken_sum,
                             is_admissible, is_vertex_linking,
                             iter_orthant_supports,
                             matching_cone, matching_system, oct_index,
                             quad_index, quad_oct_clashes, tri_index,
                             vertex_link_vector, vertex_solutions,
                             vector_length, weight)
from laminate.surfaces import build_surface
from laminate.triangulation import parse_triangulation
from tests.conftest import (TRI_NAMES, dense, drawn_triangulation,
                            every_orthant_support, fixture_path, moved,
                            relabelled, relabellings, sparse)

DATA = Path(__file__).resolve().parent / "data"
SOLUTIONS_GOLDEN = DATA / "solutions_golden.json"
CENSUS = Path(__file__).resolve().parent.parent / "perfbench" / "census"
CENSUS_NAMES = ("t3_0.tri", "t3_1.tri", "t3_2.tri", "t4_0.tri", "t4_1.tri",
                "t4_2.tri", "t5_1.tri")


def all_triangles_one(tri):
    v = [0] * vector_length(tri)
    for t in range(tri.tet_count):
        for i in range(4):
            v[tri_index(t, i)] = 1
    return tuple(v)


def test_two_tet_has_twelve_equations(two_tet):
    assert len(matching_system(two_tet)) == 12


def test_equation_count_is_three_per_face_class(triangulations):
    for tri in triangulations.values():
        assert len(matching_system(tri)) == 3 * tri.face_count


def test_matching_system_is_built_once_per_triangulation(two_tet):
    assert matching_system(two_tet) is matching_system(two_tet)


def test_coefficients_within_documented_range():
    # A row is its nonzero (index, coefficient) pairs, indices strictly
    # increasing.  With the connected octagon model a disk type never
    # contributes two same-type arcs in one face, so a matching
    # coefficient is -1 or +1 (a coordinate on both sides cancels).
    for name in TRI_NAMES + CENSUS_NAMES + ("r7.tri", "r9.tri"):
        system = matching_system(_load(name))
        for row in system.rows + system.q_rows:
            indices = [j for j, _ in row]
            assert indices == sorted(set(indices))
            assert all(c for _, c in row)
        for row in system.rows:
            assert {c for _, c in row} <= {-1, 1}


def test_all_triangles_vector_matches(triangulations):
    for tri in triangulations.values():
        system = matching_system(tri)
        assert set(system.residual(all_triangles_one(tri))) == {0}


def test_lone_quad_has_nonzero_residual(two_tet):
    system = matching_system(two_tet)
    v = [0] * vector_length(two_tet)
    v[quad_index(0, 0)] = 1
    assert any(system.residual(tuple(v)))


def test_vertex_link_admissible(triangulations):
    for tri in triangulations.values():
        report = is_admissible(tri, all_triangles_one(tri))
        assert report.admissible
        assert report.messages() == []


def test_two_quads_in_one_tet_inadmissible(two_tet):
    v = [0] * vector_length(two_tet)
    v[quad_index(0, 0)] = 1
    v[quad_index(0, 1)] = 1
    report = is_admissible(two_tet, tuple(v))
    assert not report.admissible
    assert report.quad_violations == [0]


def test_two_octagons_in_different_tets_inadmissible(two_tet):
    v = [0] * vector_length(two_tet)
    v[oct_index(0, 0)] = 1
    v[oct_index(1, 0)] = 1
    report = is_admissible(two_tet, tuple(v))
    assert report.almost_normal_errors


def test_octagon_value_above_one_not_almost_normal(two_tet):
    v = [0] * vector_length(two_tet)
    v[oct_index(0, 0)] = 2
    report = is_admissible(two_tet, tuple(v))
    assert report.almost_normal_errors


def test_vector_of_wrong_length_or_sign_is_refused(two_tet):
    v = [0] * vector_length(two_tet)
    with pytest.raises(Inadmissible, match="length 19, expected 20"):
        is_admissible(two_tet, tuple(v[1:]))
    v[0] = -1
    with pytest.raises(Inadmissible, match="negative"):
        is_admissible(two_tet, tuple(v))


def test_weight_of_vertex_link_is_twice_edge_count(triangulations):
    for tri in triangulations.values():
        assert weight(tri, all_triangles_one(tri)) == 2 * tri.edge_count


def test_weight_of_zero_vector(two_tet):
    assert weight(two_tet, (0,) * vector_length(two_tet)) == 0


def test_quad_meets_four_tetrahedron_edges():
    # Per-disk edge intersection table: a quad has 4 corners, an octagon 8,
    # a triangle 3.
    for k in range(4):
        assert sum(DISK_EDGE_WEIGHTS[k]) == 3
    for k in range(4, 7):
        assert sum(DISK_EDGE_WEIGHTS[k]) == 4
    for k in range(7, 10):
        assert sum(DISK_EDGE_WEIGHTS[k]) == 8


def test_lone_quad_weight_counts_geometric_points(one_tet):
    # On the one-tetrahedron fixture the only admissible lone quad wraps
    # four times around one degree-4 edge class, so all four corners land
    # on a single point of the 1-skeleton: the weight is 1, and the cell
    # complex confirms it.  (A closed single-quad surface can never have
    # weight 4: chi = V - E + F = weight - 1 <= 2.)
    v = [0] * vector_length(one_tet)
    v[quad_index(0, 0)] = 1
    v = tuple(v)
    assert is_admissible(one_tet, v).admissible
    assert weight(one_tet, v) == 1
    surface = build_surface(one_tet, v)
    assert surface.vertex_count == 1


def test_octagon_arc_table_two_arcs_per_face():
    for f in range(4):
        for k in range(7, 10):
            arcs = sum(1 for w in range(4)
                       if w != f and k in ARC_DISKS[(f, w)])
            assert arcs == 2


def test_weight_linearity(two_tet, plain_fundamentals):
    random.seed(2)
    funds = plain_fundamentals["two_tet.tri"]
    for _ in range(50):
        v = random.choice(funds)
        w = random.choice(funds)
        ev = edge_weights(two_tet, v)
        ew = edge_weights(two_tet, w)
        s = tuple(a + b for a, b in zip(v, w))
        assert edge_weights(two_tet, s) == [a + b for a, b in zip(ev, ew)]
        k = random.randrange(4)
        assert weight(two_tet, tuple(k * x for x in v)) == k * weight(two_tet, v)


def test_residual_linearity(two_tet):
    system = matching_system(two_tet)
    v = all_triangles_one(two_tet)
    w = [0] * vector_length(two_tet)
    w[quad_index(1, 2)] = 3
    w = tuple(w)
    rv = system.residual(v)
    rw = system.residual(w)
    rs = system.residual(tuple(a + b for a, b in zip(v, w)))
    assert rs == tuple(a + b for a, b in zip(rv, rw))


def test_haken_sum_identity(two_tet):
    v = all_triangles_one(two_tet)
    zero = (0,) * vector_length(two_tet)
    assert haken_sum(two_tet, v, zero) == v


def test_haken_sum_incompatible_quads(two_tet):
    v = [0] * vector_length(two_tet)
    v[quad_index(0, 0)] = 1
    w = [0] * vector_length(two_tet)
    w[quad_index(0, 1)] = 1
    with pytest.raises(IncompatibleQuads):
        haken_sum(two_tet, tuple(v), tuple(w))


@pytest.mark.parametrize("name", TRI_NAMES + CENSUS_NAMES)
def test_quad_oct_clashes_match_a_direct_count(name):
    # Seeded random vectors with entries 0-3, sparse to dense, so that
    # tetrahedra with none, one and several quad/oct disks all occur; each
    # is read as a tuple and as a list, and its 0/1 vector too.
    tri = _load(name)
    rng = random.Random(26)
    seen = set()
    for _ in range(150):
        density = rng.choice((0.05, 0.2, 0.5, 0.9))
        v = tuple(rng.randrange(1, 4) if rng.random() < density else 0
                  for _ in range(vector_length(tri)))
        for w in (v, list(v), [int(x > 0) for x in v]):
            clashes = []
            for t in range(tri.tet_count):
                used = 0
                for q in range(3):
                    used += (w[quad_index(t, q)] != 0)
                    used += (w[oct_index(t, q)] != 0)
                if used >= 2:
                    clashes.append(t)
            octs = [oct_index(t, q) for t in range(tri.tet_count)
                    for q in range(3) if w[oct_index(t, q)] != 0]
            assert quad_oct_clashes(tri, w) == (clashes, octs)
            seen.add(("clash", bool(clashes)))
            seen.add(("octagons", min(len(octs), 2)))
    assert seen == {("clash", False), ("clash", True), ("octagons", 0),
                    ("octagons", 1), ("octagons", 2)}


def test_vertex_link_recognition(triangulations):
    for tri in triangulations.values():
        link = all_triangles_one(tri)
        assert is_vertex_linking(tri, link)
        tripled = tuple(3 * x for x in link)
        assert is_vertex_linking(tri, tripled)
        quaded = list(link)
        quaded[quad_index(0, 0)] = 1
        assert not is_vertex_linking(tri, tuple(quaded))


def test_per_vertex_links(two_tet):
    link = vertex_link_vector(two_tet, 0)
    assert is_vertex_linking(two_tet, link)
    assert is_admissible(two_tet, link).admissible


def test_unequal_triangles_not_vertex_linking(one_tet):
    v = [0] * vector_length(one_tet)
    v[tri_index(0, 0)] = 2
    v[tri_index(0, 1)] = 1
    v[tri_index(0, 2)] = 1
    v[tri_index(0, 3)] = 1
    assert not is_vertex_linking(one_tet, tuple(v))


@pytest.mark.parametrize("include_octs", [False, True])
def test_maximal_orthant_count(triangulations, include_octs):
    for tri in triangulations.values():
        n = tri.tet_count
        supports = list(iter_orthant_supports(tri, include_octs))
        assert len(supports) == 3 ** n * ((1 + n) if include_octs else 1)
        assert len(set(supports)) == len(supports)


@pytest.mark.parametrize("include_octs", [False, True])
def test_maximal_orthants_cover_every_orthant(triangulations, include_octs):
    for tri in triangulations.values():
        maximal = list(iter_orthant_supports(tri, include_octs))
        for support in every_orthant_support(tri, include_octs):
            assert any(support <= m for m in maximal)
        for a in maximal:
            assert not any(a < b for b in maximal)


# Drawn triangulations: the number of draws and the tetrahedron counts
# they pick from, weighted toward the cheap sizes.
DRAWS = 10
DRAWN_SIZES = (1, 2, 3, 1, 2, 3, 4)


def _check_orthant_order(tri):
    # The order of the walk decides which face's Hilbert basis meets a
    # budget first, so the golden refusal messages rest on it: the full
    # supports of the every-orthant oracle, in its order.
    for include_octs in (False, True):
        assert list(iter_orthant_supports(tri, include_octs)) == [
            s for s in every_orthant_support(tri, include_octs)
            if len(s) == 5 * tri.tet_count]


@pytest.mark.parametrize("name", TRI_NAMES + CENSUS_NAMES)
def test_orthant_walk_keeps_the_oracle_order(name):
    _check_orthant_order(_load(name))


@settings(derandomize=True, deadline=None, max_examples=DRAWS)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3, 4)))
def test_orthant_walk_keeps_the_oracle_order_when_drawn(seed, n):
    _check_orthant_order(drawn_triangulation(random.Random(seed), n))


def test_exclusive_is_the_quad_oct_rule(triangulations):
    # All the octagons, then each tetrahedron's quads and octagons; built
    # once per triangulation.
    for tri in triangulations.values():
        n = tri.tet_count
        system = matching_system(tri)
        assert system.exclusive == (
            tuple(oct_index(t, q) for t in range(n) for q in range(3)),
            *(tuple(quad_index(t, q) for q in range(3))
              + tuple(oct_index(t, q) for q in range(3)) for t in range(n)))
        assert system.exclusive is matching_system(tri).exclusive


def test_quad_oct_check_reads_no_second_matching_system(three_tet):
    # An admissibility check reads the matching system once, for its
    # residuals; the quad/oct check reads the table through the
    # triangulation, and a Haken sum reads it the same way.
    calls = []

    def counting(tri):
        calls.append(tri)
        return tri.matching_system

    v = all_triangles_one(three_tet)
    with mock.patch.object(normal, "matching_system", counting):
        assert is_admissible(three_tet, v)
        assert len(calls) == 1
        haken_sum(three_tet, v, v)
        assert len(calls) == 1


def test_orthant_walk_over_its_cap_is_refused_before_it_starts(
        two_tet, monkeypatch):
    # two_tet with octagons: 3^2 (1 + 2) orthants times its vertex
    # solutions.  One test over the cap refuses before the first orthant
    # is listed; at the cap the answer is unchanged.
    answer = fundamental_solutions(two_tet, True)
    tests = 27 * len(vertex_solutions(two_tet, True))
    walked = []

    def walk(*args):
        walked.append(args)
        return iter_orthant_supports(*args)

    monkeypatch.setattr(normal, "iter_orthant_supports", walk)
    monkeypatch.setattr(normal, "ORTHANT_WALK_CAP", tests - 1)
    with pytest.raises(WorkBudgetExceeded,
                       match=r"^the orthant walk makes %d subset tests"
                             r" \(budget %d\)$" % (tests, tests - 1)):
        fundamental_solutions(two_tet, True)
    assert walked == []
    monkeypatch.setattr(normal, "ORTHANT_WALK_CAP", tests)
    assert fundamental_solutions(two_tet, True) == answer
    assert walked == [(two_tet, True)]



def _check_q_rows(tri, vertex_rays):
    """The Q rows vanish on every triangle coordinate, lie in the matching
    row space, have rank n and hold on every given vertex solution."""
    system = matching_system(tri)
    n = vector_length(tri)
    rows = [dense(row, n) for row in system.rows]
    q_rows = [dense(row, n) for row in system.q_rows]
    assert not any(row[tri_index(t, i)] for row in q_rows
                   for t in range(tri.tet_count) for i in range(4))
    assert rank(rows + q_rows) == rank(rows)
    assert rank(q_rows) == tri.tet_count
    for v in vertex_rays:
        assert not any(dot(row, v) for row in q_rows)


def _union_over_every_orthant(tri, include_octs, solve):
    out = set()
    for support in every_orthant_support(tri, include_octs):
        out.update(solve(matching_cone(tri, support)))
    return sorted(out)


@pytest.mark.parametrize("include_octs", [False, True])
def test_maximal_orthants_give_every_vertex_solution(triangulations,
                                                     include_octs):
    for tri in triangulations.values():
        assert vertex_solutions(tri, include_octs) == \
            _union_over_every_orthant(tri, include_octs, extreme_rays)


def _hilbert_of_cone(cone):
    return hilbert_basis(extreme_rays(cone))


def test_maximal_orthants_give_every_fundamental_solution(
        triangulations, fundamentals, plain_fundamentals):
    for name, tri in triangulations.items():
        assert plain_fundamentals[name] == \
            _union_over_every_orthant(tri, False, _hilbert_of_cone)
        assert fundamentals[name] == \
            _union_over_every_orthant(tri, True, _hilbert_of_cone)


@settings(derandomize=True, deadline=None, max_examples=DRAWS)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(DRAWN_SIZES))
def test_drawn_triangulations_meet_the_orthant_oracles(seed, n):
    # Inputs nobody chose: the maximal-orthant answers equal the union
    # over every orthant, the chi functional equals the cell-complex chi
    # of each vertex solution with at most one octagon, and the Q rows
    # are Tollefson's.
    tri = drawn_triangulation(random.Random(seed), n)
    coeffs = chi_functional_coefficients(tri)
    for include_octs in (False, True):
        rays = vertex_solutions(tri, include_octs)
        _check_q_rows(tri, rays)
        assert rays == _union_over_every_orthant(tri, include_octs,
                                                 extreme_rays)
        assert fundamental_solutions(tri, include_octs) == \
            _union_over_every_orthant(tri, include_octs, _hilbert_of_cone)
        for v in rays:
            if sum(v[oct_index(t, q)] for t in range(n)
                   for q in range(3)) <= 1:
                assert build_surface(tri, v).chi == \
                    sum(c * x for c, x in zip(coeffs, v))


def _golden_solution_cases():
    for entry in json.loads(SOLUTIONS_GOLDEN.read_text()):
        for case in entry["cases"]:
            octs = " octs" if case["include_octs"] else ""
            name = "%s %s%s %s" % (entry["name"], case["function"], octs,
                                   case["max_coeff_bits"])
            yield pytest.param(entry["triangulation"], case, id=name)


@pytest.mark.parametrize("text, case", _golden_solution_cases())
def test_solutions_match_golden(text, case):
    # Recorded while every maximal orthant ran its own double description:
    # answers and budget refusals must be reproduced exactly.  The budget
    # checks every intermediate ray, and those depend on the rows and
    # their order, so budgeted vertex_solutions entries were edited by
    # hand twice.  When the double description began inserting rows
    # tetrahedron by tetrahedron, t4_0 and t4_1 with octagons at 2 bits
    # and t4_2 with octagons at 3 came to answer, and t3_1 without
    # octagons at 2 bits to refuse.  When the Q rows began to go in
    # first, five refusals came to answer, each with its unbudgeted
    # listing: two_tet at 1 bit with and without octagons, t3_0 with
    # octagons at 2, t3_1 without octagons at 2 and t4_2 without
    # octagons at 3.  No answer came to refuse.
    solve = {"vertex_solutions": vertex_solutions,
             "fundamental_solutions": fundamental_solutions}[case["function"]]
    try:
        got = {"solutions": [list(v) for v in solve(
            parse_triangulation(text), case["include_octs"],
            case["max_coeff_bits"])]}
    except LaminateError as e:
        got = {"refusal": {"kind": type(e).__name__, "message": str(e)}}
    assert got == {k: case[k] for k in ("solutions", "refusal") if k in case}


def test_budget_only_refuses():
    # A coefficient budget may turn an answer into a refusal, never into a
    # different answer.
    for entry in json.loads(SOLUTIONS_GOLDEN.read_text()):
        unbudgeted = {(c["function"], c["include_octs"]): c["solutions"]
                      for c in entry["cases"] if c["max_coeff_bits"] is None}
        for case in entry["cases"]:
            if "solutions" in case:
                assert case["solutions"] == unbudgeted[
                    (case["function"], case["include_octs"])]


def _load(name):
    path = (fixture_path(name) if name in TRI_NAMES
            else CENSUS / name if name in CENSUS_NAMES else DATA / name)
    return parse_triangulation(path.read_text())


@pytest.mark.parametrize("name", TRI_NAMES + CENSUS_NAMES
                         + ("r7.tri", "r9.tri"))
def test_q_rows_are_tollefsons_rows(name):
    tri = _load(name)
    _check_q_rows(tri, vertex_solutions(tri) + vertex_solutions(tri, True))


def _vertex_run(tri, include_octs):
    """The cone and exclusive groups of vertex_solutions' one double
    description, with its answer."""
    calls = []

    def record(cone, max_coeff_bits=None, exclusive=()):
        calls.append((cone, exclusive))
        return extreme_rays(cone, max_coeff_bits, exclusive)

    with mock.patch.object(normal, "extreme_rays", record):
        rays = vertex_solutions(tri, include_octs)
    [(cone, groups)] = calls
    return cone, groups, rays


@pytest.mark.parametrize("include_octs", [False, True])
def test_vertex_solutions_filter_by_the_exclusive_table(three_tet,
                                                        include_octs):
    _, groups, _ = _vertex_run(three_tet, include_octs)
    assert groups is matching_system(three_tet).exclusive


@pytest.mark.parametrize("include_octs", [False, True])
@pytest.mark.parametrize("name", TRI_NAMES + CENSUS_NAMES
                         + ("r7.tri", "r9.tri"))
def test_vertex_solutions_insert_the_q_rows_then_the_matching_rows(
        name, include_octs):
    # The order decides the intermediate rays, so the coefficient budget
    # and the work: each group is sorted by its rows' last, then first,
    # nonzero coordinate inside the support, found here by a scan of the
    # full rows.
    tri = _load(name)
    system = matching_system(tri)
    cone, _, _ = _vertex_run(tri, include_octs)
    support = [j for j in range(vector_length(tri))
               if include_octs or j % COORDS_PER_TET < 7]
    assert cone.support == frozenset(support)

    def key(row):
        full = dense(row, cone.dim)
        used = [j for j in support if full[j]]
        return (used[-1], used[0]) if used else (-1, -1)

    assert cone.matrix == tuple(sorted(system.q_rows, key=key)
                                + sorted(system.rows, key=key))


@pytest.mark.parametrize("include_octs", [False, True])
@pytest.mark.parametrize("name", TRI_NAMES + CENSUS_NAMES)
def test_row_order_never_changes_the_vertex_solutions(name, include_octs):
    # extreme_rays inserts rows in the order given, so each shuffle of the
    # rows is a new insertion order, with other intermediate rays; the
    # answer, renamed with the coordinates, must not change.
    cone, groups, rays = _vertex_run(_load(name), include_octs)

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(st.permutations(range(len(cone.matrix))),
           st.permutations(range(cone.dim)))
    def check(order, rename):
        def moved(vec):
            out = [0] * cone.dim
            for j, x in enumerate(vec):
                out[rename[j]] = x
            return tuple(out)

        shuffled = RationalCone(
            [sparse(moved(dense(cone.matrix[i], cone.dim))) for i in order],
            cone.dim, [rename[j] for j in cone.support])
        assert extreme_rays(shuffled, exclusive=tuple(
            tuple(rename[j] for j in g) for g in groups)) == \
            sorted(map(moved, rays))

    check()


def _relabelling_case(name, solve, include_octs, draws):
    kind = "octagons" if include_octs else "quads"
    # Vertex solutions with octagons on a census pick keep the pick's name
    # as their id.
    first = name in CENSUS_NAMES and solve is vertex_solutions and include_octs
    return pytest.param(name, solve, include_octs, draws, id=name if first
                        else "-".join((name, solve.__name__, kind)))


# Ten draws each on the t3_* and t4_* picks; fewer on r7 and r9, whose
# fundamental solutions take a few tenths of a second a call.
RELABELLING_CASES = [
    _relabelling_case(name, solve, include_octs, 10)
    for name in CENSUS_NAMES[:6]
    for solve in (vertex_solutions, fundamental_solutions)
    for include_octs in (False, True)] + [
    _relabelling_case("r7.tri", vertex_solutions, False, 3),
    _relabelling_case("r7.tri", vertex_solutions, True, 3),
    _relabelling_case("r7.tri", fundamental_solutions, False, 3),
    _relabelling_case("r7.tri", fundamental_solutions, True, 2),
    _relabelling_case("r9.tri", vertex_solutions, False, 1),
    _relabelling_case("r9.tri", fundamental_solutions, False, 1)]


@pytest.mark.parametrize("name, solve, include_octs, draws",
                         RELABELLING_CASES)
def test_vertex_solutions_follow_a_relabelling_of_the_tetrahedra(
        name, solve, include_octs, draws):
    # A relabelling reorders the pairs of every row and the order the rows
    # go in, and so the intermediate rays and the pulling triangulations:
    # an independent path through the engine to the same answer, moved.
    tri = _load(name)
    answer = solve(tri, include_octs)

    @settings(derandomize=True, deadline=None, max_examples=draws)
    @given(relabellings(tri.tet_count))
    def check(drawn):
        tri2, position = relabelled(tri, *drawn)
        assert solve(tri2, include_octs) == \
            sorted(moved(v, position) for v in answer)

    check()


def test_r7_vertex_solutions_are_pinned():
    # A 7-tetrahedron pick, its solutions recorded while vertex_solutions
    # made one double description per octagon coordinate in input row
    # order: how the runs are organised must not change the answer.
    tri = parse_triangulation((DATA / "r7.tri").read_text())
    pinned = json.loads((DATA / "r7_vertex_solutions.json").read_text())
    for include_octs, key in ((False, "quads"), (True, "octagons")):
        assert [list(v) for v in vertex_solutions(tri, include_octs)] == \
            pinned[key]


def test_r9_quad_solutions_are_pinned():
    # A 9-tetrahedron pick with two vertices.  Its 185 octagon vertex
    # solutions are pinned too, as the run that inserted the matching rows
    # alone gave them in about 5 s; with the Q rows first they take a
    # tenth of a second.  Its octagon fundamentals are not pinned, as they
    # take seconds, mostly in grouping the rays by orthant.
    tri = parse_triangulation((DATA / "r9.tri").read_text())
    pinned = json.loads((DATA / "r9_quad_solutions.json").read_text())
    assert [list(v) for v in vertex_solutions(tri)] == pinned["vertex"]
    assert [list(v) for v in vertex_solutions(tri, True)] == \
        pinned["octagon_vertex"]
    assert [list(v) for v in fundamental_solutions(tri)] == \
        pinned["fundamental"]


def test_fundamental_solutions_run_one_double_description(three_tet):
    # Each maximal face's extreme rays are the vertex solutions it
    # supports, so its Hilbert basis is handed them rather than running a
    # double description of its own.
    calls = []

    def counting(module):
        original = module.extreme_rays

        def record(*args, **kwargs):
            calls.append(module.__name__)
            return original(*args, **kwargs)
        return mock.patch.object(module, "extreme_rays", record)

    with counting(normal), counting(cones):
        fundamental_solutions(three_tet, include_octs=True)
    assert calls == ["laminate.normal"]


def test_t5_1_and_r7_fundamental_solutions_are_pinned():
    # Covering each maximal face by all its independent subsets of rays
    # would walk 3.6e11 grid points on t5_1 alone, so no other method here
    # reaches these answers: they are pinned, and every vertex solution
    # must decompose over them.
    pinned = json.loads((DATA / "fundamental_solutions_pinned.json")
                        .read_text())
    r7_rays = json.loads((DATA / "r7_vertex_solutions.json").read_text())
    for name, path in (("t5_1", CENSUS / "t5_1.tri"), ("r7", DATA / "r7.tri")):
        tri = parse_triangulation(path.read_text())
        for include_octs, key in ((False, "quads"), (True, "octagons")):
            basis = fundamental_solutions(tri, include_octs)
            assert [list(v) for v in basis] == pinned[name][key]
            rays = (r7_rays[key] if name == "r7"
                    else vertex_solutions(tri, include_octs))
            assert all(decompose_over(r, basis) is not None for r in rays)
