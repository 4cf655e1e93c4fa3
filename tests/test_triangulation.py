from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation

from laminate.errors import (BadPermutation, DoubleGluing, InputError,
                             InvalidEdge, NonOrientable, NotClosedManifold,
                             UnglueedFace)
from laminate.triangulation import (ParityUnionFind, Triangulation,
                                    parse_triangulation, perm_sign)

TWO_TET_TEXT = """\
# quaternionic-like two-tetrahedron triangulation
0:0 -> 1:0 perm=0213
0:1 -> 1:1 perm=3120
0:2 -> 1:3 perm=2031
0:3 -> 1:2 perm=1302
"""


def test_parse_two_tet_counts():
    tri = parse_triangulation(TWO_TET_TEXT)
    assert tri.tet_count == 2
    assert tri.face_count == 4


def test_one_vertex_two_tet_has_three_edges():
    tri = parse_triangulation(TWO_TET_TEXT)
    assert tri.vertex_count == 1
    assert tri.edge_count == 3
    # V - E + F - T = 0
    assert tri.vertex_count - tri.edge_count + tri.face_count - tri.tet_count == 0


def test_unglued_face_rejected():
    text = "0:0 -> 1:0 perm=0213\n0:1 -> 1:1 perm=3120\n0:2 -> 1:3 perm=2031\n"
    with pytest.raises(UnglueedFace):
        parse_triangulation(text)


def test_no_tetrahedra_rejected():
    with pytest.raises(BadPermutation, match="at least one tetrahedron"):
        Triangulation(0, [])


def test_edge_identified_with_itself_in_reverse_rejected(monkeypatch):
    # Edge 13 of the one tetrahedron is carried onto itself reversed.  Such
    # a gluing is never orientable, so the orientation check refuses it
    # first; with that check skipped, the edge check refuses it.
    gluings = [(0, 0, 0, 1, (1, 0, 2, 3)), (0, 2, 0, 3, (0, 2, 3, 1))]
    with pytest.raises(NonOrientable):
        Triangulation(1, gluings)
    monkeypatch.setattr(Triangulation, "_build_orientation", lambda self: None)
    with pytest.raises(InvalidEdge, match="itself in reverse"):
        Triangulation(1, gluings)


def test_double_gluing_rejected():
    with pytest.raises(DoubleGluing):
        Triangulation(2, [(0, 0, 1, 0, (0, 2, 1, 3)),
                          (0, 0, 1, 1, (1, 3, 2, 0))])


def test_bad_permutation_rejected():
    # perm does not carry face 0 to face 1
    with pytest.raises(BadPermutation):
        Triangulation(1, [(0, 0, 0, 1, (0, 1, 2, 3)),
                          (0, 2, 0, 3, (2, 0, 3, 1))])
    with pytest.raises(BadPermutation):
        parse_triangulation("0:0 -> 0:1 perm=99\n")


def test_face_glued_to_itself_rejected():
    with pytest.raises(BadPermutation):
        Triangulation(1, [(0, 0, 0, 0, (0, 2, 1, 3)),
                          (0, 2, 0, 3, (2, 0, 3, 1))])


def test_non_orientable_rejected():
    # An even self-gluing permutation forces an orientation conflict.
    with pytest.raises(NonOrientable):
        Triangulation(1, [(0, 0, 0, 1, (1, 0, 3, 2)),
                          (0, 2, 0, 3, (2, 0, 3, 1))])


def test_not_closed_manifold_rejected():
    # Closed orientable gluing whose vertex links are not all spheres;
    # found by randomized search.
    gluings = [(1, 3, 1, 0, (1, 2, 3, 0)), (0, 2, 0, 0, (3, 2, 0, 1)),
               (1, 2, 0, 1, (0, 3, 1, 2)), (0, 3, 1, 1, (2, 3, 0, 1))]
    with pytest.raises(NotClosedManifold):
        Triangulation(2, gluings)


def test_edge_degrees_sum(triangulations):
    for tri in triangulations.values():
        degrees = tri.edge_degrees()
        assert all(d > 0 for d in degrees)
        assert sum(degrees) == 6 * tri.tet_count


def test_one_tet_degree_sum_is_six(one_tet):
    assert sum(one_tet.edge_degrees()) == 6


def test_union_find_closure(triangulations):
    # Applying any gluing permutation to an edge lands in the same class.
    from laminate.triangulation import EDGES, edge_index
    for tri in triangulations.values():
        for (side1, side2, perm) in tri.face_classes:
            (t1, f1), (t2, f2) = side1, side2
            for (a, b) in EDGES:
                if f1 in (a, b):
                    continue
                e1 = edge_index(a, b)
                e2 = edge_index(perm[a], perm[b])
                assert (tri.edge_class_of[(t1, e1)][0]
                        == tri.edge_class_of[(t2, e2)][0])


def test_union_find_parity_conflict_detected():
    uf = ParityUnionFind(3)
    assert uf.union(0, 1, 1)
    assert uf.union(1, 2, 1)
    assert uf.union(0, 2, 0)      # consistent: 1 ^ 1 == 0
    assert not uf.union(0, 2, 1)  # reversal detected


@st.composite
def _runs(draw):
    n = draw(st.integers(1, 24))
    runs = []
    for _ in range(draw(st.integers(0, 8))):
        count = draw(st.integers(0, n))
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        dx, dy = draw(st.sampled_from((-1, 0, 1))), draw(
            st.sampled_from((-1, 0, 1)))
        # Clip the run to the elements 0..n-1.
        while count and not (0 <= x + (count - 1) * dx < n
                             and 0 <= y + (count - 1) * dy < n):
            count -= 1
        runs.append((x, dx, y, dy, count, draw(st.integers(0, 1))))
    return n, runs


@settings(max_examples=200, deadline=None)
@given(_runs())
def test_union_agrees_with_a_relabelling_oracle(case):
    # The oracle labels every element with (class label, parity relative
    # to the label) and relabels a whole class on each merge.  Same
    # conflict answers, classes and relative parities, though the roots
    # may differ; every find walks at most log2(n) links.
    n, runs = case
    uf = ParityUnionFind(n)
    label = [(a, 0) for a in range(n)]
    for x, dx, y, dy, count, rel in runs:
        ok = True
        for i in range(count):
            (lx, px), (ly, py) = label[x + i * dx], label[y + i * dy]
            if lx == ly:
                ok &= px ^ py == rel
                continue
            for a, (la, pa) in enumerate(label):
                if la == ly:
                    label[a] = (lx, pa ^ py ^ px ^ rel)
        assert uf.union(x, y, rel, count, dx, dy) == ok
    classes = {}
    for a in range(n):
        classes.setdefault(label[a][0], []).append(a)
    groups = uf.groups()
    assert list(groups.values()) == list(classes.values())
    assert uf.classes == len(groups)
    for root, group in groups.items():
        assert uf.size[root] == len(group)
        for a in group:
            assert uf.find(a)[0] == root
            assert uf.find(a)[1] ^ uf.find(group[0])[1] == \
                label[a][1] ^ label[group[0]][1]
    for a in range(n):
        links = 0
        while uf.parent[a] != a:
            a, links = uf.parent[a], links + 1
        assert 1 << links <= n


def test_round_trip_text(triangulations):
    for tri in triangulations.values():
        again = parse_triangulation(tri.to_text())
        assert again.to_text() == tri.to_text()
        assert again.edge_degrees() == tri.edge_degrees()
        assert again.vertex_count == tri.vertex_count


def test_vertex_classes_of_doubled_tetrahedron():
    tri = Triangulation(2, [(0, f, 1, f, (0, 1, 2, 3)) for f in range(4)])
    assert tri.vertex_count == 4
    assert tri.edge_count == 6
    assert all(len(cls) == 2 for cls in tri.vertex_classes)


def test_perm_sign_matches_sympy():
    for p in permutations(range(4)):
        assert perm_sign(p) == Permutation(list(p)).signature()


def test_orientation_assignment(triangulations):
    from laminate.triangulation import perm_sign
    for tri in triangulations.values():
        for (side1, side2, perm) in tri.face_classes:
            e1 = tri.orientation[side1[0]]
            e2 = tri.orientation[side2[0]]
            assert e1 * e2 == -perm_sign(perm)


@st.composite
def _gluing_lists(draw):
    """
    (tet count, gluing list): the faces of one to four tetrahedra paired at
    random, each pair glued by a random permutation taking the first face
    to the second (in half the lists an odd one, so that the tetrahedra
    can be oriented alike), then at most one corruption: a gluing dropped or
    repeated, or an entry replaced by an arbitrary small integer, or a
    permutation by an arbitrary tuple.
    """
    n = draw(st.integers(1, 4))
    faces = draw(st.permutations([(t, f) for t in range(n) for f in range(4)]))
    odd = draw(st.booleans())     # every tetrahedron oriented alike
    gluings = []
    for i in range(0, len(faces), 2):
        (t1, f1), (t2, f2) = faces[i], faces[i + 1]
        rest = iter(draw(st.permutations([x for x in range(4) if x != f2])))
        perm = [f2 if x == f1 else next(rest) for x in range(4)]
        if odd and perm_sign(perm) == 1:
            a, b = [x for x in range(4) if x != f1][:2]
            perm[a], perm[b] = perm[b], perm[a]
        gluings.append([t1, f1, t2, f2, tuple(perm)])
    i = draw(st.integers(0, len(gluings) - 1))
    corruption = draw(st.sampled_from(["none", "drop", "repeat", "entry",
                                       "perm"]))
    if corruption == "drop":
        del gluings[i]
    elif corruption == "repeat":
        gluings.append(list(gluings[i]))
    elif corruption == "entry":
        gluings[i][draw(st.integers(0, 3))] = draw(st.integers(-1, 5))
    elif corruption == "perm":
        gluings[i][4] = tuple(draw(st.lists(st.integers(-1, 5), min_size=3,
                                            max_size=5)))
    return n, [tuple(g) for g in gluings]


def _gluing_text(gluings):
    return "".join("%d:%d -> %d:%d perm=%s\n" % (t1, f1, t2, f2,
                                                 "".join(map(str, perm)))
                   for t1, f1, t2, f2, perm in gluings)


@settings(max_examples=400, deadline=None)
@given(_gluing_lists())
def test_random_gluings_give_a_triangulation_or_an_input_error(case):
    # Any other exception fails the test.  Every accepted triangulation
    # comes back from its text with the same text and gluing table.
    n, gluings = case
    for build in (lambda: Triangulation(n, gluings),
                  lambda: parse_triangulation(_gluing_text(gluings))):
        try:
            tri = build()
        except InputError:
            continue
        again = parse_triangulation(tri.to_text())
        assert again.to_text() == tri.to_text()
        assert again.gluing_table == tri.gluing_table
