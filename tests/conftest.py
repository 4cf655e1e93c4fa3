import json
import os
from itertools import permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from laminate import surfaces
from laminate.branched import from_support
from laminate.errors import InputError, InternalCheckFailed
from laminate.normal import (COORDS_PER_TET, QUAD_PAIRS, QUAD_TYPE_OF_EDGE,
                             fundamental_solutions, tri_index, weight)
from laminate.triangulation import (ParityUnionFind, Triangulation,
                                    edge_index, parse_triangulation)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

TRI_NAMES = ("one_tet.tri", "two_tet.tri", "three_tet.tri")
MODEL_NAMES = ("three_tet_almost_normal.json", "three_tet_normal_genus2.json",
               "two_tet_klein.json", "three_tet_triangles.json")


def fixture_path(name):
    return FIXTURES / name


def child_env(**extra):
    """The environment of a child python that imports laminate from this
    checkout, installed or not."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def load_triangulation(name):
    return parse_triangulation(fixture_path(name).read_text())


ODD_PERMS = tuple(p for p in permutations(range(4))
                  if sum(p[i] > p[j] for i in range(4)
                         for j in range(i + 1, 4)) % 2)


def random_gluing(rng, n):
    """(t1, f1, t2, f2, perm) for a random pairing of the 4n faces, each
    pair glued by a random odd permutation (as perfbench/census.py)."""
    faces = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(faces)
    gluings = []
    for i in range(0, len(faces), 2):
        (t1, f1), (t2, f2) = sorted(faces[i:i + 2])
        perm = rng.choice([p for p in ODD_PERMS if p[f1] == f2])
        gluings.append((t1, f1, t2, f2, perm))
    return sorted(gluings)


def _connected(n, gluings):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (t1, _, t2, _, _) in gluings:
        parent[find(t1)] = find(t2)
    return len({find(t) for t in range(n)}) == 1


def drawn_triangulation(rng, n):
    """The first connected gluing of n tetrahedra that rng draws and the
    parser accepts: a closed orientable triangulation nobody chose."""
    while True:
        gluings = random_gluing(rng, n)
        if not _connected(n, gluings):
            continue
        try:
            return parse_triangulation("".join(
                "%d:%d -> %d:%d perm=%s\n"
                % (t1, f1, t2, f2, "".join(map(str, perm)))
                for t1, f1, t2, f2, perm in gluings))
        except InputError:
            continue


def relabelled(tri, sigma, taus):
    """
    (tri with tetrahedron t renamed sigma[t] and its vertex i renamed
    taus[t][i], the new index of each coordinate).  A gluing (t1, f1, t2,
    f2, p) becomes (sigma t1, tau1 f1, sigma t2, tau2 f2, tau2 p tau1^-1).
    Triangle type i moves to tau(i), and quad and octagon type q, with
    (a, b) = QUAD_PAIRS[q][0], to QUAD_TYPE_OF_EDGE[edge_index(tau a,
    tau b)].  The result is the same manifold, so every surface moves
    with its coordinates.
    """
    gluings = []
    for (t1, f1), (t2, f2), p in tri.face_classes:
        tau1, tau2 = taus[t1], taus[t2]
        perm = [0] * 4
        for i in range(4):
            perm[tau1[i]] = tau2[p[i]]
        gluings.append((sigma[t1], tau1[f1], sigma[t2], tau2[f2], perm))
    position = []
    for t, tau in enumerate(taus):
        types = [QUAD_TYPE_OF_EDGE[edge_index(tau[a], tau[b])]
                 for (a, b), _ in QUAD_PAIRS]
        position += [COORDS_PER_TET * sigma[t] + k
                     for k in [*tau, *(4 + q for q in types),
                               *(7 + q for q in types)]]
    return Triangulation(tri.tet_count, gluings), position


def moved(v, position):
    """The coordinate vector v of a triangulation, moved to its
    relabelling by the positions relabelled returns."""
    out = [0] * len(v)
    for j, x in zip(position, v):
        out[j] = x
    return tuple(out)


def every_orthant_support(tri, include_octs=False):
    """
    Every support allowed by the quad/oct constraint, in a fixed order: all
    triangle coordinates plus at most one quad (or, when requested,
    octagon) direction per tetrahedron, with at most one octagon overall.
    This includes the coordinate faces that iter_orthant_supports leaves
    out, where some tetrahedron carries neither a quad nor an octagon.
    """
    n = tri.tet_count
    triangles = [tri_index(t, i) for t in range(n) for i in range(4)]
    oct_placements = [None]
    if include_octs:
        oct_placements += [(t, k) for t in range(n) for k in (7, 8, 9)]
    for placement in oct_placements:
        free_tets = [t for t in range(n)
                     if placement is None or t != placement[0]]
        for combo in product([None, 4, 5, 6], repeat=len(free_tets)):
            support = set(triangles)
            if placement is not None:
                support.add(COORDS_PER_TET * placement[0] + placement[1])
            for t, choice in zip(free_tets, combo):
                if choice is not None:
                    support.add(COORDS_PER_TET * t + choice)
            yield frozenset(support)


def elementwise_surface(tri, v):
    """
    The surface of v built one arc at a time: the reference that
    surfaces.build_surface, which works on ranges of parallel copies,
    must agree with in every field.  Each disk gets its list of corner
    points (class, position), each arc its (tetrahedron, face, corner,
    rank) slot, each glued pair of arcs its own point and orientation
    checks and its own union, and each component its set of points.
    """
    report = surfaces._check_rebuildable(tri, v)
    ends, glued = tri.gluing_table
    disk_points = []              # per disk: its corners' (class, position)
    disk_arcs = []                # per disk: its number of boundary arcs
    # slot -> {rank: (disk, point a, along a, point b, along b)}, an arc's
    # ends with whether the disk's reference side points along the class.
    slots = {}
    for t, copies, shift, arc_plan, corners in surfaces._disk_kinds(
            tri, v, ends):
        first = len(disk_points)
        disk_points += [[(cls, p + dp * k) for _, cls, p, dp in corners]
                        for k in range(copies)]
        disk_arcs += [len(arc_plan)] * copies
        for f, w, base, rev, a, b in arc_plan:
            arcs = slots.setdefault(16 * t + 4 * f + w, {})
            along_a, along_b = corners[a][0], corners[b][0]
            for k in range(copies):
                rank = shift[base] + (copies - 1 - k if rev else k)
                if rank in arcs:
                    raise InternalCheckFailed(
                        "duplicate arc slot %s" % ((t, f, w, rank),))
                pts = disk_points[first + k]
                arcs[rank] = (first + k, pts[a], along_a, pts[b], along_b)

    parity = ParityUnionFind(len(disk_points))
    arc_pair_count = 0
    for slot1, slot2, crossed in glued:
        one, two = slots.get(slot1, {}), slots.get(slot2, {})
        if len(one) != len(two):
            raise InternalCheckFailed("arc counts differ across face gluing")
        arc_pair_count += len(one)
        for rank in range(len(one)):
            d1, p1a, along1a, p1b, along1b = one[rank]
            d2, p2a, along2a, p2b, along2b = two[rank]
            if crossed:
                p2a, along2a, p2b, along2b = p2b, along2b, p2a, along2a
            if (p1a, p1b) != (p2a, p2b):
                raise InternalCheckFailed(
                    "glued arc endpoints land on different points")
            rel = along1a != along2a
            if rel != (along1b != along2b):
                raise InternalCheckFailed(
                    "orientation relation differs at the two ends of a "
                    "glued arc")
            parity.union(d1, d2, rel)

    one_sided = {parity.find(d)[0] for d in parity.twisted}
    total_vertices = set()
    components = []
    for root, group in parity.groups().items():
        points = set()
        arcs_in_component = 0
        for d in group:
            points.update(disk_points[d])
            arcs_in_component += disk_arcs[d]
        if arcs_in_component % 2:
            raise InternalCheckFailed("odd arc count in a component")
        chi = len(points) - arcs_in_component // 2 + len(group)
        components.append(surfaces.SurfaceComponent(group, chi,
                                                    root not in one_sided))
        total_vertices |= points
    surface = SimpleNamespace(
        vector=tuple(v), components=components,
        vertex_count=len(total_vertices), arc_pair_count=arc_pair_count,
        disk_count=len(disk_points), admissibility=report)
    if surface.vertex_count != weight(tri, v):
        raise InternalCheckFailed("vertex count differs from weight")
    if surface.disk_count != sum(v):
        raise InternalCheckFailed("disk count differs from coordinate sum")
    return surface


def surface_fields(surface):
    """Every cell field of a NormalSurface or of elementwise_surface's
    record, disk ids included."""
    return (surface.vector, surface.vertex_count, surface.arc_pair_count,
            surface.disk_count,
            [(c.disk_ids, c.chi, c.orientable) for c in surface.components])


def load_model(name):
    data = json.loads((FIXTURES / "models" / name).read_text())
    tri = load_triangulation(data["triangulation"])
    return from_support(tri, data["support"])


@pytest.fixture(scope="session")
def triangulations():
    return {name: load_triangulation(name) for name in TRI_NAMES}


@pytest.fixture(scope="session")
def models():
    return {name: load_model(name) for name in MODEL_NAMES}


@pytest.fixture(scope="session")
def fundamentals(triangulations):
    """Fundamental solutions per fixture, octagon orthants included."""
    return {name: fundamental_solutions(tri, include_octs=True)
            for name, tri in triangulations.items()}


@pytest.fixture(scope="session")
def plain_fundamentals(triangulations):
    """Fundamental solutions per fixture over the quad orthants only."""
    return {name: fundamental_solutions(tri)
            for name, tri in triangulations.items()}


@pytest.fixture(scope="session")
def one_tet(triangulations):
    return triangulations["one_tet.tri"]


@pytest.fixture(scope="session")
def two_tet(triangulations):
    return triangulations["two_tet.tri"]


@pytest.fixture(scope="session")
def three_tet(triangulations):
    return triangulations["three_tet.tri"]
