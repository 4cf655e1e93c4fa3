"""
Weighted train tracks and the three local splittings of a large branch.

A track is a set of named branches and a set of switches; each switch
partitions its incident branch ends into two sides, and a weight vector
is admissible when the two sides of every switch carry equal total
weight.  Branch ends not attached to any switch are free; free ends mark
the boundary of a local model (the splitting square has four of them).

Splitting a large branch b (a branch alone on its side at both of its
switches, facing two branches at each) produces three tracks:

- left: the first far branch at b's tail switch connects across smoothly
  to the first far branch at the head switch, and a residue branch b'
  carries the excess weight diagonally;
- right: the mirror resolution through the second branches;
- central: both far pairs connect across and b disappears entirely.

Each result carries two linear maps.  The carrying map takes its weight
cone into the parent's (shared branches keep their weight, and the split
branch's weight is recovered as the through-weight).  The pinch map goes
back: shared branches keep their parent weight, and the residue of the
left result weighs v[p] - v[r], of the right v[q] - v[s], where p, q are
the far branches at the tail switch and r, s those at the head.  A
measure is carried by a split result when its pinch is a preimage in
the result's weight cone that is positive on the residue branch;
measures whose preimage puts weight zero on the residue never crossed
the diagonal and are carried by the central track, which is a sub-track
of both side tracks.  With this attribution the three image cones cover
the parent cone, the central track alone covers the balanced locus, and
the side tracks cover the strict halves.
"""

from .cones import RationalCone, extreme_rays
from .errors import NotSplittable
from .linalg import dot


def _is_end(end):
    return (isinstance(end, list) and len(end) == 2
            and isinstance(end[0], str) and type(end[1]) is int
            and end[1] in (0, 1))


class TrainTrack:
    """
    branches: tuple of branch names.
    switches: tuple of (side1, side2); each side is a tuple of ends and an
    end is (branch_name, end_index) with end_index 0 or 1.
    """

    def __init__(self, branches, switches):
        self.branches = tuple(branches)
        self.switches = tuple(
            (tuple(map(tuple, s1)), tuple(map(tuple, s2)))
            for (s1, s2) in switches)
        index = {b: i for i, b in enumerate(self.branches)}
        if len(index) != len(self.branches):
            raise ValueError("duplicate branch names")
        # Each attached end's (switch, side), and each switch's row of the
        # weight cone: its first side's weights minus its second's.
        self._ends = {}
        rows = []
        for i, sides in enumerate(self.switches):
            row = {}
            for side, sign in ((0, 1), (1, -1)):
                for (b, e) in sides[side]:
                    if b not in index or e not in (0, 1):
                        raise ValueError(
                            "unknown branch end (%s, %s)" % (b, e))
                    if (b, e) in self._ends:
                        raise ValueError(
                            "branch end (%s, %d) attached twice" % (b, e))
                    self._ends[b, e] = (i, side)
                    row[index[b]] = row.get(index[b], 0) + sign
            rows.append(tuple(sorted((j, c) for j, c in row.items() if c)))
        self.branch_index = index
        self._cone = RationalCone(rows, len(index))

    def weight_cone(self):
        return self._cone

    def canonical_switches(self):
        return frozenset(
            frozenset((frozenset(s1), frozenset(s2)))
            for (s1, s2) in self.switches)

    def to_json_dict(self):
        return {
            "branches": list(self.branches),
            "switches": [
                {"side1": [list(e) for e in s1],
                 "side2": [list(e) for e in s2]}
                for (s1, s2) in self.switches
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        """The track of to_json_dict's form: a list of branch names, and
        switches whose sides list [name, 0|1] ends; ValueError otherwise."""
        branches = data["branches"]
        if not (isinstance(branches, list)
                and all(isinstance(b, str) for b in branches)):
            raise ValueError("branches must be a list of names")
        switches = [(sw["side1"], sw["side2"]) for sw in data["switches"]]
        if not all(isinstance(side, list) and all(map(_is_end, side))
                   for sides in switches for side in sides):
            raise ValueError("a switch side must list [name, 0|1] ends")
        return cls(branches, switches)


class CarriedTrack:
    """
    A track together with its carrying map into a parent track's weight
    space, its pinch map back, and the branches created by the splitting
    (which a carried measure must use with positive weight).
    """

    def __init__(self, name, track, carrying_map, pinch_map, new_branches):
        self.name = name
        self.track = track
        self.carrying_map = tuple(map(tuple, carrying_map))
        self.pinch_map = tuple(map(tuple, pinch_map))
        self.new_branches = tuple(new_branches)

    def image(self, w):
        return tuple(dot(row, w) for row in self.carrying_map)

    def pinch(self, v):
        """
        The pinching projection: the unique preimage weight vector of a
        parent measure, or None when the measure is not in the image of
        the closed weight cone.
        """
        w = tuple(dot(row, v) for row in self.pinch_map)
        if not self.track.weight_cone().contains(w):
            return None
        if self.image(w) != tuple(v):
            return None
        return w

    def carries(self, v):
        """
        Whether the parent measure v is attributed to this split result: it
        has a preimage in the weight cone, positive on every new branch.
        """
        w = self.pinch(v)
        if w is None:
            return False
        idx = self.track.branch_index
        return all(w[idx[b]] > 0 for b in self.new_branches)


class SplitResult:
    def __init__(self, left, central, right):
        self.left = left
        self.central = central
        self.right = right

    def tracks(self):
        return (self.left, self.central, self.right)

    def carriers(self, v):
        return [c.name for c in self.tracks() if c.carries(v)]


def _far_side(track, end):
    if end not in track._ends:
        raise NotSplittable("branch end %s is not attached" % (end,))
    i, side = track._ends[end]
    own, far = track.switches[i][side], track.switches[i][1 - side]
    if own != (end,):
        raise NotSplittable(
            "branch %s is not alone on its switch side" % end[0])
    if len(far) != 2:
        raise NotSplittable(
            "the far side of branch %s has %d ends, need 2" %
            (end[0], len(far)))
    return i, far


def split(track, branch):
    """
    Split the large branch into the left, central and right resolutions.

    The branch must run between two switches, alone on its side at each,
    facing exactly two branch ends at each (the splitting-square
    configuration).
    """
    if branch not in track.branch_index:
        raise NotSplittable("no branch named %r" % branch)
    tail, head = (branch, 0), (branch, 1)
    si_tail, far_tail = _far_side(track, tail)
    si_head, far_head = _far_side(track, head)
    # An end attaches once, so an end of b on a far side was refused: by
    # its own call when the side holds two ends, by the other end's when
    # it holds one.  So b joins two switches and is none of p, q, r, s.
    p, q = far_tail
    r, s = far_head

    residue = branch + "'"
    while residue in track.branch_index:
        residue += "'"
    kept = [(s1, s2) for i, (s1, s2) in enumerate(track.switches)
            if i not in (si_tail, si_head)]
    base_branches = [b for b in track.branches if b != branch]

    def child(name, switches, residue_of=()):
        # residue_of: the far ends x, y whose weight difference v[x] - v[y]
        # the residue branch carries; none for the central track.
        new_branches = [residue] if residue_of else []
        t = TrainTrack(base_branches + new_branches, kept + switches)
        # Shared branches keep their weight both ways; the split branch
        # carries the through-weight, everything entering from the tail.
        carrying = [[int(b == c) for c in t.branches] for b in track.branches]
        carrying[track.branch_index[branch]] = [
            sum(c == e[0] for e in far_tail) for c in t.branches]
        pinch = [[int(b == c) for c in track.branches] for b in base_branches]
        if residue_of:
            x, y = (e[0] for e in residue_of)
            pinch.append([(c == x) - (c == y) for c in track.branches])
        return CarriedTrack(name, t, carrying, pinch, new_branches)

    e0, e1 = (residue, 0), (residue, 1)
    left = child("left", [((p,), (r, e0)), ((s,), (q, e1))], (p, r))
    central = child("central", [((p,), (r,)), ((q,), (s,))])
    right = child("right", [((q,), (s, e0)), ((r,), (p, e1))], (q, s))
    return SplitResult(left, central, right)


def is_subtrack(a, b):
    """
    Whether track a embeds in track b respecting switches, under the
    shared branch labelling: b restricted to a's branches has exactly a's
    switch structure.
    """
    keep = set(a.branches)
    if not keep <= set(b.branches):
        return False
    restricted = []
    for (s1, s2) in b.switches:
        r1 = tuple(e for e in s1 if e[0] in keep)
        r2 = tuple(e for e in s2 if e[0] in keep)
        if r1 or r2:
            restricted.append((r1, r2))
    return (TrainTrack(a.branches, restricted).canonical_switches()
            == a.canonical_switches())


class CoverResult:
    def __init__(self, ok, uncovered_ray=None, escaped_ray=None):
        self.ok = ok
        self.uncovered_ray = uncovered_ray
        self.escaped_ray = escaped_ray

    def __bool__(self):
        return self.ok

    def to_json_dict(self):
        return {
            "covered": self.ok,
            "uncovered_ray": (list(self.uncovered_ray)
                              if self.uncovered_ray else None),
            "escaped_ray": (list(self.escaped_ray)
                            if self.escaped_ray else None),
        }


def cone_cover_check(track, carried_tracks, max_coeff_bits=None):
    """
    Verify that the parent's weight cone equals the union of the carried
    images: every extreme ray of the parent cone must be carried by some
    result, and the image of every extreme ray of every result must
    satisfy the parent's switch equations.  The extreme rays are found
    under the coefficient budget max_coeff_bits, when given.
    """
    parent_cone = track.weight_cone()
    parent_rays = extreme_rays(parent_cone, max_coeff_bits)
    for ct in carried_tracks:
        for ray in extreme_rays(ct.track.weight_cone(), max_coeff_bits):
            image = ct.image(ray)
            if not parent_cone.contains(image):
                return CoverResult(False, escaped_ray=image)
    for ray in parent_rays:
        if not any(ct.carries(ray) for ct in carried_tracks):
            return CoverResult(False, uncovered_ray=ray)
    return CoverResult(True)


def figure_sp1_track():
    """The splitting-square local model: two switches joined by a large
    branch, two free-ended branches on each far side."""
    return TrainTrack(
        ["p", "q", "r", "s", "b"],
        [([("p", 1), ("q", 1)], [("b", 0)]),
         ([("b", 1)], [("r", 0), ("s", 0)])])
