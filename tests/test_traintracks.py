import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laminate.cones import extreme_rays
from laminate.errors import NotSplittable
from laminate.traintracks import (CarriedTrack, TrainTrack, cone_cover_check,
                                  figure_sp1_track, is_subtrack, split)


@pytest.fixture(scope="module")
def square():
    return figure_sp1_track()


@pytest.fixture(scope="module")
def result(square):
    return split(square, "b")


def test_square_weight_cone(square):
    # coordinates p, q, r, s, b
    rays = extreme_rays(square.weight_cone())
    assert rays == [(0, 1, 0, 1, 1), (0, 1, 1, 0, 1),
                    (1, 0, 0, 1, 1), (1, 0, 1, 0, 1)]


def test_balanced_measure_is_only_centrally_carried(square, result):
    balanced = (3, 1, 3, 1, 4)
    assert result.carriers(balanced) == ["central"]


def test_unbalanced_measure_selects_a_side(square, result):
    # weights (2, 1) on the crossing pair (p, r): strict inequality picks
    # the left resolution.
    measure = (2, 0, 1, 1, 2)
    assert result.carriers(measure) == ["left"]
    mirror = (1, 1, 2, 0, 2)
    assert result.carriers(mirror) == ["right"]


def test_central_is_subtrack_of_both_sides(result):
    assert is_subtrack(result.central.track, result.left.track)
    assert is_subtrack(result.central.track, result.right.track)


def test_left_right_incompatible(result):
    assert not is_subtrack(result.left.track, result.right.track)
    assert not is_subtrack(result.right.track, result.left.track)


def test_track_is_subtrack_of_itself(square):
    assert is_subtrack(square, square)


def test_cone_cover(square, result):
    assert cone_cover_check(square, result.tracks())


def test_dropping_central_breaks_cover_on_balanced_ray(square, result):
    check = cone_cover_check(square, [result.left, result.right])
    assert not check
    p, q, r, s, b = check.uncovered_ray
    assert p == r and q == s and b == p + q


def test_carrying_maps_preserve_stub_weights(square, result):
    for ct in result.tracks():
        for ray in extreme_rays(ct.track.weight_cone()):
            image = ct.image(ray)
            for stub in ("p", "q", "r", "s"):
                assert image[square.branch_index[stub]] == \
                    ray[ct.track.branch_index[stub]]


@st.composite
def square_measures(draw):
    """A measure (p, q, r, s, b) on the splitting square: p + q = r + s = b.
    """
    p, q = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    r = draw(st.integers(0, p + q))
    return (p, q, r, p + q - r, p + q)


@settings(derandomize=True, deadline=None)
@given(square_measures())
def test_the_crossing_pair_picks_the_carrier(v):
    # The residue weighs p - r on the left and q - s = r - p on the right.
    p, _, r, _, _ = v
    expected = "left" if p > r else "right" if p < r else "central"
    assert split(figure_sp1_track(), "b").carriers(v) == [expected]


def test_pinching_inverts_the_carrying_map(result):
    # On each child's extreme rays, their sums and their small multiples.
    for ct in result.tracks():
        rays = extreme_rays(ct.track.weight_cone())
        for multipliers in product(range(3), repeat=len(rays)):
            w = tuple(sum(m * x for m, x in zip(multipliers, column))
                      for column in zip(*rays))
            assert ct.pinch(ct.image(w)) == w


def test_image_rays_lie_in_parent_cone(square, result):
    cone = square.weight_cone()
    for ct in result.tracks():
        for ray in extreme_rays(ct.track.weight_cone()):
            assert cone.contains(ct.image(ray))


def test_a_wrong_carrying_map_lets_a_ray_escape(square, result):
    # The central track with its b row doubled: the image of a ray weighs
    # b twice p + q, off the parent's switch equations, so the cover
    # check names that image before it looks at the parent's rays.
    central = result.central
    carrying = [list(row) for row in central.carrying_map]
    carrying[square.branch_index["b"]] = [2 * x for x in
                                          carrying[square.branch_index["b"]]]
    wrong = CarriedTrack("wrong", central.track, carrying, central.pinch_map,
                         central.new_branches)
    check = cone_cover_check(square, [result.left, wrong, result.right])
    assert not check
    assert check.uncovered_ray is None
    p, q, r, s, b = check.escaped_ray
    assert b == 2 * (p + q) > 0
    assert check.to_json_dict()["escaped_ray"] == list(check.escaped_ray)


def test_a_measure_outside_the_image_has_no_preimage(result):
    # (1, 0, 1, 0, 5) pinches to the central weights (1, 0, 1, 0), which
    # the central track carries, but their image weighs b at 1, not 5.
    measure = (1, 0, 1, 0, 5)
    w = result.central.pinch_map
    assert result.central.track.weight_cone().contains(
        tuple(sum(a * x for a, x in zip(row, measure)) for row in w))
    assert result.central.pinch(measure) is None
    assert result.carriers(measure) == []


def test_not_splittable_wrong_valence():
    # b faces three branches at its head switch.
    track = TrainTrack(
        ["p", "q", "r", "s", "u", "b"],
        [([("p", 1), ("q", 1)], [("b", 0)]),
         ([("b", 1)], [("r", 0), ("s", 0), ("u", 0)])])
    with pytest.raises(NotSplittable, match="has 3 ends, need 2"):
        split(track, "b")


def test_not_splittable_shared_side():
    track = TrainTrack(
        ["p", "q", "r", "s", "b"],
        [([("p", 1), ("q", 1)], [("b", 0), ("r", 1)]),
         ([("b", 1)], [("r", 0), ("s", 0)])])
    with pytest.raises(NotSplittable, match="not alone on its switch side"):
        split(track, "b")


def test_not_splittable_loop():
    track = TrainTrack(
        ["p", "q", "b"],
        [([("b", 0)], [("p", 0), ("q", 0)]),
         ([("b", 1)], [("p", 1), ("q", 1)])])
    # Both ends of b on one side of one switch.
    loop = TrainTrack(
        ["x", "y", "b"],
        [([("b", 0), ("b", 1)], [("x", 0), ("y", 0)])])
    with pytest.raises(NotSplittable, match="not alone on its switch side"):
        split(loop, "b")
    with pytest.raises(NotSplittable, match="no branch named 'missing'"):
        split(track, "missing")


# Each shape is refused by the first check it fails, with that check's
# message.  An end of b on a far side is refused by a _far_side call: by
# its own when the side holds two ends, by the other end's when it holds
# one.
@pytest.mark.parametrize("switches, message", [
    ([([("p", 1), ("q", 1)], [("b", 0)])],
     "branch end ('b', 1) is not attached"),
    ([([("p", 1), ("q", 1)], [("b", 0)]), ([("b", 1)], [("r", 0)])],
     "the far side of branch b has 1 ends, need 2"),
    ([([("b", 0)], [("b", 1)])],
     "the far side of branch b has 1 ends, need 2"),
    ([([("b", 0)], [("b", 1), ("p", 0)])],
     "branch b is not alone on its switch side"),
], ids=["unattached end", "single far end", "far end is b, alone",
        "far end is b"])
def test_not_splittable_refused_by_its_first_check(switches, message):
    track = TrainTrack(["p", "q", "r", "b"], switches)
    with pytest.raises(NotSplittable, match="^%s$" % re.escape(message)):
        split(track, "b")


def test_residue_name_skips_taken_names():
    # The square with p renamed b': the residue is b''.
    track = TrainTrack(
        ["b'", "q", "r", "s", "b"],
        [([("b'", 1), ("q", 1)], [("b", 0)]),
         ([("b", 1)], [("r", 0), ("s", 0)])])
    result = split(track, "b")
    assert result.left.new_branches == result.right.new_branches == ("b''",)
    assert cone_cover_check(track, result.tracks())


def test_degenerate_track_vacuously_covered():
    # A one-switch track whose equation forces weight zero has no rays,
    # so any (even empty) collection covers it.
    degenerate = TrainTrack(["x"], [([("x", 0), ("x", 1)], [])])
    assert extreme_rays(degenerate.weight_cone()) == []
    assert cone_cover_check(degenerate, [])


def test_json_round_trip(square):
    data = square.to_json_dict()
    again = TrainTrack.from_json_dict(data)
    assert again.to_json_dict() == data
    assert again.branches == square.branches


def test_splitting_an_ambient_track():
    # The square sitting inside a larger track: an extra switch joining p
    # and r through an outer branch remains untouched by the split.
    track = TrainTrack(
        ["p", "q", "r", "s", "b", "o"],
        [([("p", 1), ("q", 1)], [("b", 0)]),
         ([("b", 1)], [("r", 0), ("s", 0)]),
         ([("o", 0)], [("p", 0)]),
         ([("r", 1)], [("o", 1)])])
    result = split(track, "b")
    for ct in result.tracks():
        switches = ct.track.canonical_switches()
        assert frozenset({frozenset({("o", 0)}), frozenset({("p", 0)})}) \
            in switches
    # The outer branch forces p = o = r, so only the central resolution
    # carries a measure positive on o.
    measure = (1, 1, 1, 1, 2, 1)
    assert result.carriers(measure) == ["central"]
