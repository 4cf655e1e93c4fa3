import json
from itertools import product
from pathlib import Path

import pytest

from laminate.branched import from_support
from laminate.normal import (COORDS_PER_TET, fundamental_solutions,
                             matching_system, tri_index)
from laminate.triangulation import parse_triangulation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TRI_NAMES = ("one_tet.tri", "two_tet.tri", "three_tet.tri")
MODEL_NAMES = ("three_tet_almost_normal.json", "three_tet_normal_genus2.json",
               "two_tet_klein.json", "three_tet_triangles.json")


def fixture_path(name):
    return FIXTURES / name


def load_triangulation(name):
    return parse_triangulation(fixture_path(name).read_text())


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


def load_model(name):
    data = json.loads((FIXTURES / "models" / name).read_text())
    tri = load_triangulation(data["triangulation"])
    return from_support(tri, data["support"])


@pytest.fixture(scope="session")
def triangulations():
    return {name: load_triangulation(name) for name in TRI_NAMES}


@pytest.fixture(scope="session")
def systems(triangulations):
    return {name: matching_system(tri)
            for name, tri in triangulations.items()}


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
