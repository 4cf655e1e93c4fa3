"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All comparisons are exact (integer or rational equality); the
timed criteria assert their stated budgets.
"""

import json
import random
import time

import pytest

from laminate.branched import carries_nonneg_chi
from laminate.bruteforce import (enumerate_admissible,
                                 enumerate_quad_oct_solutions,
                                 extreme_ray_oracle, hilbert_oracle,
                                 in_support)
from laminate.cli import main as cli_main
from laminate.cones import (decompose_over, extreme_rays, hilbert_basis,
                            positive_integer_point)
from laminate.errors import IncompatibleQuads
from laminate.finiteness import (antichain_certificate,
                                 brute_force_genus_list, enumerate_genus)
from laminate.linalg import dot
from laminate.normal import (chi_functional_coefficients, is_admissible,
                             is_vertex_linking, matching_cone,
                             matching_system, quad_oct_clashes, tri_index,
                             vector_length, weight)
from laminate.surfaces import build_surface
from laminate.traintracks import (cone_cover_check, figure_sp1_track,
                                  is_subtrack, split)
from tests.conftest import every_orthant_support, fixture_path

ALL_NEGATIVE_MODELS = ("three_tet_almost_normal.json",
                       "three_tet_normal_genus2.json")


def _report(criterion, ok, detail):
    print("ACCEPTANCE %d %s: %s" % (criterion, "PASS" if ok else "FAIL",
                                    detail))
    assert ok, "criterion %d failed: %s" % (criterion, detail)


def test_criterion_1_chi_functional_oracle(triangulations):
    start = time.monotonic()
    checked = 0
    mismatches = 0
    for name, tri in triangulations.items():
        coeffs = chi_functional_coefficients(tri)
        for v in enumerate_admissible(tri, 4):
            if not any(v):
                continue
            checked += 1
            if build_surface(tri, v).chi != dot(coeffs, v):
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60
    _report(1, ok, "chi functional == cell-complex chi on %d admissible "
                   "vectors with coordinates <= 4 (%d mismatches, %.1fs)"
            % (checked, mismatches, elapsed))


def test_criterion_2_haken_sum_additivity(triangulations, fundamentals):
    rng = random.Random(20260809)
    failures = 0
    pairs_per_fixture = 1000
    for name, tri in triangulations.items():
        orthants = list(every_orthant_support(tri, include_octs=True))
        per_orthant = {}
        for support in orthants:
            per_orthant[support] = [f for f in fundamentals[name]
                                    if in_support(f, support)]
        done = 0
        while done < pairs_per_fixture:
            support = rng.choice(orthants)
            funds = per_orthant[support]
            if not funds:
                continue

            def sample():
                v = [0] * vector_length(tri)
                for f in funds:
                    c = rng.randrange(4)
                    if c:
                        v = [a + c * b for a, b in zip(v, f)]
                return tuple(v)

            v, w = sample(), sample()
            if not any(v) or not any(w):
                continue
            if not (is_admissible(tri, v).admissible
                    and is_admissible(tri, w).admissible):
                continue
            done += 1
            try:
                total = tuple(a + b for a, b in zip(v, w))
                if quad_oct_clashes(tri, total)[0]:
                    raise IncompatibleQuads("sampled outside one orthant")
            except IncompatibleQuads:
                failures += 1
                continue
            chi_sum = (build_surface(tri, v).chi
                       + build_surface(tri, w).chi)
            if build_surface(tri, total).chi != chi_sum:
                failures += 1
            if weight(tri, total) != weight(tri, v) + weight(tri, w):
                failures += 1
    _report(2, failures == 0,
            "chi and weight additive on %d random compatible admissible "
            "pairs per fixture (%d failures)"
            % (pairs_per_fixture, failures))


def test_criterion_3_vertex_link_recognition(triangulations):
    bad = []
    for name, tri in triangulations.items():
        if tri.vertex_count != 1:
            continue
        link = [0] * vector_length(tri)
        for t in range(tri.tet_count):
            for i in range(4):
                link[tri_index(t, i)] = 1
        link = tuple(link)
        surface = build_surface(tri, link)
        comp = surface.components[0]
        if not (surface.connected and comp.chi == 2 and comp.orientable
                and comp.genus_or_crosscap == 0
                and is_vertex_linking(tri, link)):
            bad.append(name)
    _report(3, not bad, "all-triangles-1 vector is a recognized chi=2 "
                        "genus-0 sphere on every one-vertex fixture"
            + ("" if not bad else " (failed: %s)" % bad))


def test_criterion_4_polyhedral_oracle_equivalence(triangulations):
    start = time.monotonic()
    orthants = 0
    mismatches = 0
    for name, tri in triangulations.items():
        system = matching_system(tri)
        points = enumerate_quad_oct_solutions(tri, 8)
        for support in every_orthant_support(tri, include_octs=True):
            orthants += 1
            rays = extreme_rays(matching_cone(tri, support))
            restricted = [p for p in points if in_support(p, support)]
            if extreme_ray_oracle(restricted, system.rows, support) != rays:
                mismatches += 1
            if hilbert_oracle(restricted) != hilbert_basis(rays):
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 300
    _report(4, ok, "extreme rays and Hilbert bases match brute force "
                   "(coordinates <= 8) on %d orthants (%d mismatches, %.1fs)"
            % (orthants, mismatches, elapsed))


def test_criterion_5_fundamental_decomposition(triangulations, fundamentals):
    checked = 0
    undecomposed = 0
    for name, tri in triangulations.items():
        basis = fundamentals[name]
        for v in enumerate_admissible(tri, 6):
            if not any(v):
                continue
            checked += 1
            counts = decompose_over(v, basis)
            if counts is None:
                undecomposed += 1
                continue
            rebuilt = [0] * len(v)
            for n, f in zip(counts, basis):
                rebuilt = [a + n * b for a, b in zip(rebuilt, f)]
            if tuple(rebuilt) != v:
                undecomposed += 1
    _report(5, undecomposed == 0,
            "%d admissible vectors with coordinates <= 6 decompose over "
            "the Hilbert bases (%d failures)" % (checked, undecomposed))


def test_criterion_6_positive_point_mechanism(models):
    model = models["two_tet_klein.json"]
    cone = model.chi_augmented_cone()
    point = positive_integer_point(extreme_rays(cone), cone.support)
    ok = point is not None
    detail = "no positive point"
    if ok:
        positive = all(point[j] >= 1 for j in model.support)
        integral = all(isinstance(x, int) for x in point)
        chi = build_surface(model.triangulation, point).chi
        ok = positive and integral and chi == 0
        detail = ("chi-augmented system has the all-positive integer "
                  "solution %s with built chi %d"
                  % ([point[j] for j in sorted(model.support)], chi))
    _report(6, ok, detail)


def test_criterion_7_antichain_theorem(models):
    start = time.monotonic()
    details = []
    ok = True
    for name in ALL_NEGATIVE_MODELS:
        model = models[name]
        if not carries_nonneg_chi(model).all_negative:
            ok = False
            details.append("%s lost its all-negative verdict" % name)
            continue
        for genus in (2, 3):
            enumeration = enumerate_genus(model, genus)
            oracle = brute_force_genus_list(model, genus)
            if list(enumeration.vectors) != oracle:
                ok = False
                details.append("%s genus %d: list differs from oracle"
                               % (name, genus))
            if not antichain_certificate(enumeration):
                ok = False
                details.append("%s genus %d: comparable pair found"
                               % (name, genus))
            details.append("%s g=%d count=%d" % (name.split(".")[0],
                                                 genus, len(enumeration)))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600
    _report(7, ok, "genus enumerations equal the brute-force oracle and "
                   "are antichains (%s; %.1fs)" % ("; ".join(details),
                                                   elapsed))


def test_criterion_8_split_cone_cover():
    track = figure_sp1_track()
    result = split(track, "b")
    cover = cone_cover_check(track, result.tracks())
    sub_left = is_subtrack(result.central.track, result.left.track)
    sub_right = is_subtrack(result.central.track, result.right.track)
    dropped = cone_cover_check(track, [result.left, result.right])
    broke = (not dropped) and dropped.uncovered_ray is not None
    balanced = False
    if broke:
        p, q, r, s, b = dropped.uncovered_ray
        balanced = p == r and q == s
    ok = bool(cover) and sub_left and sub_right and broke and balanced
    _report(8, ok, "cone(tau) covered by the three resolutions, central is "
                   "a sub-track of both sides, and dropping it fails "
                   "exactly on a balanced ray %s"
            % (dropped.uncovered_ray,))


def test_criterion_9_cli_determinism(tmp_path, capsys, models):
    support_neg = ",".join(str(j) for j in sorted(
        models["three_tet_normal_genus2.json"].support))
    commands = [
        ("tri", "info", "--input", str(fixture_path("two_tet.tri"))),
        ("ns", "vertex", "--input", str(fixture_path("one_tet.tri"))),
        ("ns", "fundamental", "--input", str(fixture_path("two_tet.tri"))),
        ("ns", "build", "--input", str(fixture_path("one_tet.tri")),
         "--vector", "1,1,1,1,0,0,0,0,0,0"),
        ("bs", "from-support", "--input", str(fixture_path("two_tet.tri")),
         "--support", "6,16"),
        ("bs", "verdict", "--input", str(fixture_path("two_tet.tri")),
         "--support", "6,16"),
        ("bs", "zero-chi", "--input", str(fixture_path("two_tet.tri")),
         "--support", "6,16"),
        ("heegaard", "enumerate",
         "--input", str(fixture_path("three_tet.tri")),
         "--support", support_neg, "-g", "2"),
        ("split", "traintrack", "--file",
         str(fixture_path("figure_sp1.json")), "--branch", "b"),
    ]
    unequal = []
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            runs.append((code, capsys.readouterr().out.encode()))
        if runs[0] != runs[1]:
            unequal.append(argv[0] + " " + argv[1])
        json.loads(runs[0][1])   # well-formed JSON
    _report(9, not unequal,
            "%d CLI commands byte-identical across reruns%s"
            % (len(commands),
               "" if not unequal else "; differing: %s" % unequal))
