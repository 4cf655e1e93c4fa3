import gc
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laminate import finiteness, surfaces
from laminate.branched import (carries_nonneg_chi, from_support,
                               sub_branched_surface)
from laminate.bruteforce import enumerate_quad_oct_solutions
from laminate.cones import decompose_over
from laminate.errors import (GenusTooSmall, InternalCheckFailed, Refusal,
                             UnboundedRefusal, WorkBudgetExceeded)
from laminate.finiteness import (GenusEnumeration, antichain_certificate,
                                 brute_force_genus_list, enumerate_genus)
from laminate.linalg import dot
from laminate.normal import (MatchingSystem, chi_functional_coefficients,
                             fundamental_solutions, is_admissible,
                             quad_index, vector_length)
from laminate.surfaces import build_surface
from laminate.triangulation import parse_triangulation
from tests.conftest import (MODEL_NAMES, load_model, load_triangulation,
                            moved, relabelled)
from tests.test_normal import CENSUS

# A t5_1 model of six fundamentals (chi -2, -4, -2, -4, -6, -6) whose
# genus-5 list holds two doubles.
T5_1_SUPPORT = [1, 3, 5, 10, 13, 16, 20, 22, 25, 31, 35, 41, 42, 46]
# Its model of three fundamentals (chi -2, -4, -6), and a t4_0 model of two
# (chi -4, -2).
T5_1_3F_SUPPORT = [1, 3, 5, 10, 13, 16, 20, 22, 31, 35, 42, 46]
T4_0_SUPPORT = [1, 3, 5, 11, 12, 16, 20, 23, 26, 30, 31, 32, 33, 35]


def test_refusal_when_carrying_nonnegative_chi(models):
    with pytest.raises(UnboundedRefusal):
        enumerate_genus(models["three_tet_triangles.json"], 2)
    with pytest.raises(UnboundedRefusal):
        enumerate_genus(models["two_tet_klein.json"], 2)


def test_negative_genus_rejected(models):
    with pytest.raises(GenusTooSmall):
        enumerate_genus(models["three_tet_normal_genus2.json"], -1)


@pytest.mark.parametrize("name", ["three_tet_triangles.json",
                                  "two_tet_klein.json"])
def test_oracle_refuses_as_the_enumeration_does(models, name):
    # On the chi = 0 Klein model the oracle's coordinate bound would
    # divide by a zero deficit; on the vertex-link model (chi 2) it would
    # list nothing.  Both refuse, and a negative genus is too small first.
    for genus in (2, 3):
        with pytest.raises(UnboundedRefusal):
            brute_force_genus_list(models[name], genus)
    with pytest.raises(GenusTooSmall):
        brute_force_genus_list(models[name], -1)


def test_zero_vector_never_listed(models):
    # Genus 0 and 1 targets are below every fundamental deficit, so the
    # lists are empty; in particular the zero vector is never reported.
    model = models["three_tet_normal_genus2.json"]
    for genus in (0, 1):
        assert enumerate_genus(model, genus).vectors == ()


def test_genus_two_list_of_normal_model(models):
    model = models["three_tet_normal_genus2.json"]
    enumeration = enumerate_genus(model, 2)
    assert len(enumeration) == 1
    (v,) = enumeration.vectors
    assert enumeration.decompositions[v] == (1,)
    surface = build_surface(model.triangulation, v)
    assert surface.connected and surface.chi == -2
    assert surface.components[0].genus_or_crosscap == 2


def test_genus_lists_of_almost_normal_model(models):
    model = models["three_tet_almost_normal.json"]
    two = enumerate_genus(model, 2)
    three = enumerate_genus(model, 3)
    # Only the octagon-weight-one sums survive: the normal genus-2
    # fundamental alone has weight 0 there, the doubled one weight 2.
    assert len(two) == 1
    assert two.vectors[0][model.oct_sector] == 1
    assert len(three) == 1
    assert three.vectors[0][model.oct_sector] == 1
    assert sorted(three.decompositions[three.vectors[0]]) == [1, 1]


def test_enumeration_matches_brute_force(models):
    for name in ("three_tet_almost_normal.json",
                 "three_tet_normal_genus2.json"):
        model = models[name]
        for genus in (2, 3):
            enumeration = enumerate_genus(model, genus)
            assert list(enumeration.vectors) == \
                brute_force_genus_list(model, genus)


def test_enumeration_soundness(models):
    model = models["three_tet_almost_normal.json"]
    for genus in (2, 3):
        enumeration = enumerate_genus(model, genus)
        for v in enumeration.vectors:
            report = is_admissible(model.triangulation, v)
            assert not report.matching_failures
            assert not report.quad_violations
            assert dot(model.chi, v) == 2 - 2 * genus
            surface = build_surface(model.triangulation, v)
            assert surface.connected
            assert surface.components[0].orientable
            # decomposition reconstructs the vector
            counts = enumeration.decompositions[v]
            rebuilt = [0] * len(v)
            for n, f in zip(counts, enumeration.fundamentals):
                rebuilt = [a + n * b for a, b in zip(rebuilt, f)]
            assert tuple(rebuilt) == v


def test_each_distinct_candidate_is_built_once(monkeypatch):
    # With fundamentals (f, 2f) the sums 2f and 4f arise from several
    # multiplicity tuples; each is rejected (parallel copies) and must be
    # tested no more than once per enumeration.  2f is decided from the
    # gluing pass of f (f is two-sided, so 2f is two copies of it), 4f by
    # its gcd alone; a rejected candidate never has its cells counted.
    model = load_model("three_tet_normal_genus2.json")
    (f,) = model.fundamentals()
    monkeypatch.setattr(model, "fundamentals",
                        lambda: (f, tuple(2 * x for x in f)))
    built, counted = [], []
    count_cells = surfaces._count_cells

    def counting_build(tri, v):
        built.append(v)
        return build_surface(tri, v)

    def counting_cells(tri, v, *glued):
        counted.append(v)
        return count_cells(tri, v, *glued)

    monkeypatch.setattr(finiteness, "build_surface", counting_build)
    monkeypatch.setattr(surfaces, "_count_cells", counting_cells)
    for genus, seen in ((3, [f]), (5, [])):
        built.clear()
        assert enumerate_genus(model, genus).vectors == ()
        assert built == seen
        assert counted == []


def _t5_1_model():
    tri = parse_triangulation((CENSUS / "t5_1.tri").read_text())
    return from_support(tri, T5_1_SUPPORT)


def test_t5_1_genus_five_list_keeps_two_doubles():
    # The kept m = 2 branch on a census input: two of the three listed
    # sums are doubles of one-sided surfaces, each rebuilt at full size.
    enumeration = enumerate_genus(_t5_1_model(), 5)
    assert enumeration.to_json_dict() == {
        "genus": 5, "count": 3,
        "vectors": [
            [0, 2, 0, 2, 0, 4, 0, 0, 0, 0, 4, 0, 0, 2, 0, 0, 2, 0, 0, 0,
             4, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0,
             0, 0, 2, 0, 0, 0, 4, 0, 0, 0],
            [0, 3, 0, 3, 0, 1, 0, 0, 0, 0, 1, 0, 0, 3, 0, 0, 3, 0, 0, 0,
             3, 0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 0,
             0, 3, 1, 0, 0, 0, 3, 0, 0, 0],
            [0, 4, 0, 4, 0, 2, 0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 4, 0, 0, 0,
             6, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 6, 0, 0, 0, 2, 0, 0, 0, 0,
             0, 2, 0, 0, 0, 0, 6, 0, 0, 0]],
        "decompositions": [[0, 0, 0, 2, 0, 0], [0, 0, 1, 0, 0, 1],
                           [2, 0, 2, 0, 0, 0]]}
    assert [gcd(*v) for v in enumeration.vectors] == [2, 1, 2]


@pytest.mark.parametrize("genus", [5, 10])
def test_each_candidate_is_glued_once(monkeypatch, genus):
    # One gluing pass per distinct candidate of gcd at most 2, and one
    # more per kept double, rebuilt at full size; a sum of gcd 3 or more
    # is never glued.
    model = _t5_1_model()
    tested, glued = [], []
    accepts, glue = finiteness._accepts, surfaces._glue

    def recording_accepts(model, v, genus):
        tested.append(v)
        return accepts(model, v, genus)

    def counting_glue(tri, v):
        glued.append(v)
        return glue(tri, v)

    monkeypatch.setattr(finiteness, "_accepts", recording_accepts)
    monkeypatch.setattr(surfaces, "_glue", counting_glue)
    listed = enumerate_genus(model, genus).vectors
    assert len(tested) == len(set(tested))
    assert len(glued) == sum(gcd(*v) <= 2 for v in tested) + \
        sum(gcd(*v) == 2 for v in listed)


def test_genus_mismatch_is_a_bug(models):
    # A kept sum whose cell complex has another genus than the walk's is
    # a bug, not a rejection: on a listed m = 1 sum and on listed doubles.
    listed = [(models["three_tet_normal_genus2.json"], 2),
              (models["three_tet_almost_normal.json"], 3),
              (_t5_1_model(), 5)]
    for model, genus in listed:
        for v in enumerate_genus(model, genus).vectors:
            assert finiteness._accepts(model, v, genus)
            with pytest.raises(InternalCheckFailed, match="genus %d" %
                               (genus + 1)):
                finiteness._accepts(model, v, genus + 1)


def _unpruned_sums(funds, deficits, idx, remaining, counts, acc):
    # The walk without the reachability pruning: every branch is entered.
    if remaining == 0:
        yield counts + (0,) * (len(funds) - len(counts)), acc
        return
    if idx == len(funds):
        return
    step = deficits[idx]
    for n in range(remaining // step + 1):
        nxt = acc if n == 0 else tuple(a + n * b
                                       for a, b in zip(acc, funds[idx]))
        yield from _unpruned_sums(funds, deficits, idx + 1,
                                  remaining - n * step, counts + (n,), nxt)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 7),
                          st.tuples(*[st.integers(0, 3)] * 3)),
                max_size=5),
       st.integers(0, 30), st.sampled_from([None, 0]))
def test_pruned_walk_equals_unpruned_walk(fundamentals, target, sector):
    # Same tuples, same vectors, same order as the unpruned walk keeping
    # the sums of weight one on the octagon sector (every sum when there
    # is none); and the counts of tuples and of their disks that the
    # budget reads.  Empty fundamental lists, targets no tuple reaches
    # (all deficits even, target odd) and fundamentals of octagon weight
    # above one included.
    deficits = [d for d, _ in fundamentals]
    funds = [f for _, f in fundamentals]
    weight = 0 if sector is None else 1
    costs = [(d, 0 if sector is None else f[sector]) for d, f in fundamentals]
    zero = (0,) * 3

    def weighs(v, o):
        return sector is None or v[sector] == o

    expected = [(counts, v) for counts, v in _unpruned_sums(
        funds, deficits, 0, target, (), zero) if weighs(v, weight)]
    masks, tuples, disks = finiteness._reachable(
        costs, [sum(f) for f in funds], target, weight)
    walked = (list(finiteness._sums(funds, costs, masks, 0,
                                    (target, weight), (), zero))
              if masks[0][weight][target] else [])
    assert walked == expected
    assert tuples == len(expected)
    assert disks == sum(sum(v) for _, v in expected)
    for i in range(len(funds) + 1):
        assert len(masks[i]) == weight + 1
        for o in range(weight + 1):
            for r in range(target + 1):
                reached = any(weighs(v, o) for _, v in _unpruned_sums(
                    funds[i:], deficits[i:], 0, r, (), zero))
                assert masks[i][o][r] == reached


def test_model_without_fundamentals_lists_nothing(monkeypatch):
    # An empty fundamental list is all-negative and spends no deficit, so
    # every genus list is empty, the target reachable or not.
    model = load_model("three_tet_normal_genus2.json")
    monkeypatch.setattr(model, "fundamentals", lambda: ())
    for genus in (0, 1, 2, 5):
        assert enumerate_genus(model, genus).vectors == ()


def test_genus_walk_over_the_disk_budget_is_refused(models, monkeypatch):
    # The genus-20 walk of the one-fundamental model tests one sum of 19
    # copies; refused before the walk once its disks pass the cap.
    model = models["three_tet_normal_genus2.json"]
    (f,) = model.fundamentals()
    monkeypatch.setattr(finiteness, "GENUS_DISK_CAP", 19 * sum(f) - 1)
    monkeypatch.setattr(finiteness, "build_surface", None)
    with pytest.raises(WorkBudgetExceeded,
                       match=r" disks in all \(budget %d\)$"
                             % (19 * sum(f) - 1)):
        enumerate_genus(model, 20)
    monkeypatch.undo()
    monkeypatch.setattr(finiteness, "GENUS_DISK_CAP", 19 * sum(f))
    assert enumerate_genus(model, 20).vectors == ()


def test_huge_genus_is_refused_before_the_walk_table(models):
    # The dynamic program would hold (weight + 1)(2g - 1) cells, about
    # 4e9 at genus 10^9: refused before any of them is allocated.
    model = models["three_tet_almost_normal.json"]
    carries_nonneg_chi(model)
    tracemalloc.start()
    try:
        with pytest.raises(WorkBudgetExceeded,
                           match=r"3999999998 cells \(budget 2000000\)$"):
            enumerate_genus(model, 10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_one_matching_system_per_triangulation(monkeypatch):
    # One matching system and one chi row per triangulation, the row one
    # object that every model of it and chi_functional_coefficients share.
    built, chi_built = [], []
    init = MatchingSystem.__init__
    chi = MatchingSystem.__dict__["chi"]
    build_chi = chi.func

    def counting_init(self, tri):
        built.append(tri)
        init(self, tri)

    def counting_chi(self):
        chi_built.append(self.triangulation)
        return build_chi(self)

    monkeypatch.setattr(MatchingSystem, "__init__", counting_init)
    monkeypatch.setattr(chi, "func", counting_chi)
    model = load_model("three_tet_normal_genus2.json")    # from_support
    tri = model.triangulation
    fundamental_solutions(tri, include_octs=True)
    carries_nonneg_chi(model)
    assert len(enumerate_genus(model, 2)) == 1
    again = from_support(tri, model.support)
    sub = sub_branched_surface(model, model.fundamentals()[0])
    assert again.chi is model.chi and sub.chi is model.chi
    assert chi_functional_coefficients(tri) is model.chi
    assert built == [tri]
    assert chi_built == [tri]


def test_enumeration_stable_across_runs(models):
    model = models["three_tet_almost_normal.json"]
    first = enumerate_genus(model, 3)
    second = enumerate_genus(model, 3)
    assert first.vectors == second.vectors
    assert first.decompositions == second.decompositions


def _genus_lists(model, genera):
    """Per genus, the set of listed vectors, or the kind of the refusal."""
    lists = []
    for genus in genera:
        try:
            lists.append(set(enumerate_genus(model, genus).vectors))
        except Refusal as exc:
            lists.append(exc.kind)
    return lists


# (fixture model, or census pick and support; genera), each genus listing
# at least one surface where the model is all negative.
RELABELLED_MODELS = [(name, None, (2, 3, 4)) for name in MODEL_NAMES] + [
    ("t5_1.tri", T5_1_3F_SUPPORT, (2, 8, 12)),
    ("t5_1.tri", T5_1_SUPPORT, (3, 5, 8)),
    ("t4_0.tri", T4_0_SUPPORT, (2, 3)),
]


@pytest.mark.parametrize("source, support, genera", RELABELLED_MODELS)
def test_genus_lists_and_verdicts_follow_a_relabelling(source, support,
                                                        genera):
    # A relabelled triangulation renumbers the disks and reorders the
    # overlap runs of every gluing pass, but its surfaces are today's
    # moved by a coordinate permutation.
    if support is None:
        model = load_model(source)
    else:
        model = from_support(
            parse_triangulation((CENSUS / source).read_text()), support)
    tri, verdict = model.triangulation, carries_nonneg_chi(model)
    lists = _genus_lists(model, genera)

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(st.permutations(range(tri.tet_count)),
           st.lists(st.permutations(range(4)), min_size=tri.tet_count,
                    max_size=tri.tet_count))
    def check(sigma, taus):
        tri2, position = relabelled(tri, sigma, taus)
        model2 = from_support(tri2, [position[j] for j in model.support])
        verdict2 = carries_nonneg_chi(model2)
        assert verdict2.verdict == verdict.verdict
        assert sorted(verdict2.fundamental_chis) == \
            sorted(verdict.fundamental_chis)
        assert set(model2.fundamentals()) == \
            {moved(f, position) for f in model.fundamentals()}
        assert _genus_lists(model2, genera) == [
            found if isinstance(found, str)
            else {moved(v, position) for v in found} for found in lists]

    check()


def test_antichain_holds_on_all_negative_models(models):
    for name in ("three_tet_almost_normal.json",
                 "three_tet_normal_genus2.json"):
        model = models[name]
        for genus in (2, 3):
            assert antichain_certificate(enumerate_genus(model, genus))


def test_antichain_vacuous_on_empty_list(models):
    model = models["three_tet_normal_genus2.json"]
    enumeration = enumerate_genus(model, 1)
    result = antichain_certificate(enumeration)
    assert result
    assert result.pair is None


def test_nonorientable_fundamental_model():
    # A model whose single fundamental is a nonorientable chi = -1 surface
    # (crosscap number 3): the genus-2 list is exactly its orientation
    # double, and genus 3 is empty because four copies split into two
    # parallel doubles.
    from laminate.branched import from_support
    from laminate.triangulation import Triangulation
    tri = Triangulation(3, [(2, 1, 2, 2, (3, 2, 0, 1)),
                            (0, 3, 0, 0, (1, 2, 3, 0)),
                            (1, 2, 0, 1, (3, 0, 1, 2)),
                            (0, 2, 1, 0, (2, 1, 0, 3)),
                            (1, 3, 2, 3, (1, 2, 0, 3)),
                            (2, 0, 1, 1, (1, 3, 2, 0))])
    model = from_support(tri, [5, 15, 24])
    funds = model.fundamentals()
    assert len(funds) == 1
    assert dot(model.chi, funds[0]) == -1
    base = build_surface(tri, funds[0])
    assert base.connected and not base.components[0].orientable
    assert base.components[0].genus_or_crosscap == 3

    two = enumerate_genus(model, 2)
    assert two.vectors == (tuple(2 * x for x in funds[0]),)
    assert two.decompositions[two.vectors[0]] == (2,)
    assert list(two.vectors) == brute_force_genus_list(model, 2)
    assert antichain_certificate(two)

    three = enumerate_genus(model, 3)
    assert three.vectors == ()
    assert brute_force_genus_list(model, 3) == []


def test_antichain_failure_path(models):
    # Forge an enumeration on a torus-carrying model with a comparable
    # pair differing by the chi = 0 Klein-bottle-double vector; the
    # certificate must surface the difference as the contradiction object.
    model = models["two_tet_klein.json"]
    torus = [0] * vector_length(model.triangulation)
    torus[quad_index(0, 2)] = 2
    torus[quad_index(1, 2)] = 2
    torus = tuple(torus)
    bigger = tuple(2 * x for x in torus)
    forged = GenusEnumeration(model, 1, [torus, bigger], {}, ())
    result = antichain_certificate(forged)
    assert not result
    assert result.pair == (torus, bigger)
    assert result.difference == torus
    assert result.difference_chi == 0
    assert result.difference_normal is True
    surface = build_surface(model.triangulation, result.difference)
    assert surface.chi == 0


@pytest.mark.parametrize("name", ["enumerate_genus", "decompose_over",
                                  "enumerate_quad_oct_solutions"])
def test_recursion_leaves_no_garbage(name):
    # Each recursion's state (the seen set, the memo, the grouped pattern
    # lists) is freed when the call returns, not left in a reference
    # cycle for the cyclic collector.
    model = load_model("three_tet_normal_genus2.json")
    two_tet = load_triangulation("two_tet.tri")
    call = {
        "enumerate_genus": lambda: enumerate_genus(model, 3),
        "decompose_over": lambda: decompose_over((2, 2), [(1, 0), (0, 1)]),
        "enumerate_quad_oct_solutions":
            lambda: enumerate_quad_oct_solutions(two_tet, 2),
    }[name]
    call()                        # fills the model's lazy caches
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
