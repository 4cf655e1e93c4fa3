"""
Fixed-genus enumeration of carried surfaces and the antichain certificate.

When every fundamental solution of a branched-surface model has negative
Euler characteristic, a carried surface of Euler characteristic 2 - 2g
decomposes as a sum of fundamentals whose multiplicities are bounded by
(2g - 2) / |chi|.  Enumerating the multiplicity tuples therefore lists
every carried connected orientable genus-g surface (with weight one on
the almost-normal sector when the model has one).  The antichain
certificate then checks that no two listed vectors are componentwise
comparable; a comparable pair would exhibit a carried chi = 0 difference
surface, which the all-negative verdict rules out.

A multiple v = m*w, m the gcd of v, is decided from w.  Its surface is
m parallel copies of each two-sided component of S(w), and of each
one-sided component F it is floor(m/2) copies of the connected
orientable double of F plus m mod 2 copies of F (Jaco and Oertel,
Topology 23, 1984; the simplest case of the orbit counting of Agol,
Hass and Thurston, Trans. AMS 358, 2006).  So S(v) is never connected
for m >= 3, and for m = 2 it is connected and orientable exactly when
S(w) is connected and one-sided.
"""

from math import gcd

from .branched import carries_nonneg_chi
from .errors import (GenusTooSmall, InternalCheckFailed, UnboundedRefusal,
                     WorkBudgetExceeded)
from .surfaces import build_surface

# The most disks, summed over the multiplicity tuples of one genus, that
# the genus filter may be asked to test, and the most cells of the table
# that counts them; a larger walk is refused before it starts.
GENUS_DISK_CAP = 2_000_000


class GenusEnumeration:
    """The complete duplicate-free genus-g list of a model."""

    def __init__(self, model, genus, vectors, decompositions, fundamentals):
        self.model = model
        self.genus = genus
        self.vectors = tuple(vectors)
        self.decompositions = dict(decompositions)
        self.fundamentals = tuple(fundamentals)

    def __len__(self):
        return len(self.vectors)

    def to_json_dict(self):
        return {
            "genus": self.genus,
            "count": len(self.vectors),
            "vectors": [list(v) for v in self.vectors],
            "decompositions": [list(self.decompositions[v])
                               for v in self.vectors],
        }


def _accepts(model, v, genus):
    """The common surface filter: almost-normal weight, connectivity,
    orientability, read off the gluing pass of build_surface.  A multiple
    m*w (m the gcd of v) is decided from w by the rule of the module
    docstring: rejected for m >= 3, and for m = 2 kept only when S(w) is
    connected and one-sided; a kept multiple is still built at full size,
    which must agree.  Callers pass only sums of chi 2 - 2g, so a kept
    sum of another genus is a bug (InternalCheckFailed)."""
    m = gcd(*v)
    if m > 2 or model.oct_sector is not None and v[model.oct_sector] != 1:
        return False
    tri = model.triangulation
    surface = build_surface(tri, tuple(x // m for x in v))
    if not surface.connected or surface.orientable != (m == 1):
        return False
    if m == 2:
        surface = build_surface(tri, v)
    if not (surface.connected and surface.orientable
            and surface.components[0].genus_or_crosscap == genus):
        raise InternalCheckFailed("the surface of %s is not connected, "
                                  "orientable and of genus %d" % (v, genus))
    return True


def _all_negative_verdict(model, genus):
    """The model's chi verdict; raises GenusTooSmall for a negative genus
    and UnboundedRefusal unless every fundamental has chi < 0."""
    if genus < 0:
        raise GenusTooSmall("genus must be nonnegative, got %d" % genus)
    verdict = carries_nonneg_chi(model)
    if not verdict.all_negative:
        raise UnboundedRefusal(
            "the model carries chi >= 0 (verdict %s); a genus-%d list may "
            "be infinite" % (verdict.verdict, genus))
    return verdict


def _reachable(costs, sizes, target, weight):
    """
    (masks, tuples, disks) for spending exactly target of chi deficit and
    exactly weight of octagon weight on fundamentals of the given costs,
    each (deficit, octagon weight), and disk counts.  masks[i][o][r] is 1
    when exactly r of deficit at weight o can be spent on fundamentals i
    onward, 0 otherwise; tuples is the number of multiplicity tuples
    spending (target, weight), and disks the sum of their disk counts,
    each sum n_i * sizes[i] over the tuple.
    """
    # Tuples spending r at weight o, over none yet, and their disk counts.
    ways = [[int(o == r == 0) for r in range(target + 1)]
            for o in range(weight + 1)]
    disks = [[0] * (target + 1) for _ in ways]
    masks = [[bytes(map(bool, row)) for row in ways]]
    for (step, octs), size in zip(reversed(costs), reversed(sizes)):
        # Tuples with one more of this fundamental extend those at
        # (r - step, o - octs), in rows made earlier in this pass.
        for o in range(octs, weight + 1):
            row, low = ways[o], ways[o - octs]
            drow, dlow = disks[o], disks[o - octs]
            for r in range(step, target + 1):
                if low[r - step]:
                    row[r] += low[r - step]
                    drow[r] += dlow[r - step] + size * low[r - step]
        masks.append([bytes(map(bool, row)) for row in ways])
    masks.reverse()
    return masks, ways[weight][target], disks[weight][target]


def _sums(funds, costs, masks, idx, remaining, counts, acc):
    """
    (multiplicity tuple, vector) for every way to spend exactly
    ``remaining``, a (chi deficit, octagon weight) pair, on fundamentals
    idx onward, with the multiplicities of those before fixed at counts and
    their sum at acc, in lexicographic order of the tuples.  A branch is
    entered only when masks (from _reachable) say that its rest can be
    spent exactly.
    """
    deficit, weight = remaining
    if deficit == 0:
        yield counts + (0,) * (len(funds) - len(counts)), acc
        return
    (step, octs), rest = costs[idx], masks[idx + 1]
    for n in range(deficit // step + 1):
        if n * octs > weight:
            break
        left = (deficit - n * step, weight - n * octs)
        if rest[left[1]][left[0]]:
            nxt = acc if n == 0 else tuple(a + n * b
                                           for a, b in zip(acc, funds[idx]))
            yield from _sums(funds, costs, masks, idx + 1, left,
                             counts + (n,), nxt)


def enumerate_genus(model, genus):
    """
    The complete list of connected orientable genus-g integer vectors
    carried by the model, each with the lexicographically least
    multiplicity tuple over the fundamentals.

    Refuses (UnboundedRefusal) unless every fundamental has chi < 0,
    since otherwise the list need not be finite, and refuses
    (WorkBudgetExceeded) before the walk when the tuples it walks, those
    of weight one on the almost-normal sector if the model has one, hold
    more than GENUS_DISK_CAP disks in all, or before they are counted when
    the table counting them would have more than GENUS_DISK_CAP cells.
    """
    verdict = _all_negative_verdict(model, genus)
    funds = model.fundamentals()
    # Each fundamental spends its chi deficit and its weight on the
    # almost-normal sector, and only sums of weight one can be accepted.
    sector = model.oct_sector
    weight = 0 if sector is None else 1
    costs = []
    for c, f in zip(verdict.fundamental_chis, funds):
        if c.denominator != 1 or c >= 0:
            raise InternalCheckFailed("fundamental with chi %s under an "
                                      "all-negative verdict" % c)
        costs.append((int(-c), 0 if sector is None else f[sector]))
    target = 2 * genus - 2

    # Acceptance depends only on the vector, and multiplicity tuples come
    # in lexicographic order, so each vector is tested once, with its
    # least tuple.
    found = {}
    seen = set()
    if target >= 0:
        cells = (weight + 1) * (target + 1)
        if cells > GENUS_DISK_CAP:
            raise WorkBudgetExceeded(
                "the genus-%d walk needs a table of %d cells (budget %d)"
                % (genus, cells, GENUS_DISK_CAP))
        masks, tuples, disks = _reachable(costs, [sum(f) for f in funds],
                                          target, weight)
        if disks > GENUS_DISK_CAP:
            raise WorkBudgetExceeded(
                "the genus-%d walk tests %d sums of %d disks in all "
                "(budget %d)" % (genus, tuples, disks, GENUS_DISK_CAP))
        if masks[0][weight][target]:
            for counts, v in _sums(funds, costs, masks, 0, (target, weight),
                                   (), (0,) * len(funds[0]) if funds else ()):
                if v not in seen and any(v):
                    seen.add(v)
                    if _accepts(model, v, genus):
                        found[v] = counts
    vectors = sorted(found)
    return GenusEnumeration(model, genus, vectors,
                            {v: found[v] for v in vectors}, funds)


def brute_force_genus_list(model, genus):
    """
    Independent oracle for enumerate_genus: exhaustive lattice enumeration
    of the model's cone up to the coordinate bound
    (2g - 2)/min|chi| * max infinity-norm of the fundamentals, filtered by
    the same surface conditions.  Refuses as enumerate_genus does.
    """
    verdict = _all_negative_verdict(model, genus)
    funds = model.fundamentals()
    if not funds or genus < 1:
        return []
    deficits = [int(-c) for c in verdict.fundamental_chis]
    bound = ((2 * genus - 2) // min(deficits)) * max(max(f) for f in funds)
    if bound <= 0:
        return []
    from .bruteforce import enumerate_solutions
    points = enumerate_solutions(model.triangulation, bound, model.support)
    out = []
    for v in points:
        if not any(v):
            continue
        if model.chi.value(v) != 2 - 2 * genus:
            continue
        if _accepts(model, v, genus):
            out.append(v)
    return sorted(out)


class AntichainResult:
    """
    Outcome of the antichain certificate.  Truthy when no two listed
    vectors are componentwise comparable.  On failure carries the
    offending pair and their difference (the paper-style chi = 0 carried
    surface reproducing the contradiction object).
    """

    def __init__(self, ok, pair=None, difference=None, difference_chi=None,
                 difference_normal=None):
        self.ok = ok
        self.pair = pair
        self.difference = difference
        self.difference_chi = difference_chi
        self.difference_normal = difference_normal

    def __bool__(self):
        return self.ok


def antichain_certificate(enumeration):
    """
    Verify that no two vectors of a genus enumeration are componentwise
    comparable.  On failure, the difference vector is returned along with
    its chi (necessarily 0 for equal-genus surfaces) and whether it is
    normal (weight 0 on the almost-normal sector).
    """
    model = enumeration.model
    vectors = enumeration.vectors
    for i in range(len(vectors)):
        for j in range(len(vectors)):
            if i == j:
                continue
            small, big = vectors[i], vectors[j]
            if all(a <= b for a, b in zip(small, big)):
                diff = tuple(b - a for a, b in zip(small, big))
                chi = model.chi.value(diff)
                normal = (model.oct_sector is None
                          or diff[model.oct_sector] == 0)
                if not model.carries(diff):
                    raise InternalCheckFailed(
                        "difference of carried vectors left the cone")
                return AntichainResult(False, (small, big), diff, chi, normal)
    return AntichainResult(True)
