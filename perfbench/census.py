"""
Seeded random-gluing search for closed orientable triangulations.

Each try pairs up the 4n faces of n tetrahedra uniformly at random and
glues every pair by a random odd permutation carrying one face to the
other.  With odd gluings only, giving every tetrahedron the same
orientation is consistent, so every try is orientable.  A try is kept
when its face-adjacency graph is connected and ``parse_triangulation``
accepts it (no edge identified with itself in reverse, and
V - E + F - T = 0, so every vertex link is a sphere).

The benchmark does not search at run time: it reads the picks of the
default seed that its jobs use, frozen under ``perfbench/census/`` by
``--freeze``, so a later change to the parser cannot shift the inputs.

    python3 perfbench/census.py --seed 7     # print the picks of seed 7
    python3 perfbench/census.py --freeze     # rewrite perfbench/census/
"""

import argparse
import os
import random
import sys
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
CENSUS_DIR = os.path.join(HERE, "census")
DEFAULT_SEED = 2004
# Tetrahedron count -> number of picks searched for.
DEFAULT_PLAN = {3: 3, 4: 3, 5: 2}


def _is_odd(p):
    inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if p[i] > p[j])
    return inversions % 2 == 1


ODD_PERMS = tuple(p for p in permutations(range(4)) if _is_odd(p))


def random_gluing(rng, n):
    """(t1, f1, t2, f2, perm) for a random pairing of the 4n faces."""
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


def gluing_text(gluings):
    return "".join("%d:%d -> %d:%d perm=%s\n"
                   % (t1, f1, t2, f2, "".join(map(str, perm)))
                   for (t1, f1, t2, f2, perm) in gluings)


def search(seed, n, count, max_tries=1_000_000):
    """
    The first ``count`` distinct accepted gluings of ``n`` tetrahedra for
    ``seed``, as (try number, canonical gluing text) pairs.
    """
    from laminate import parse_triangulation
    from laminate.errors import InputError

    rng = random.Random("census:%d:%d" % (seed, n))
    picks = []
    seen = set()
    for tries in range(1, max_tries + 1):
        gluings = random_gluing(rng, n)
        if not _connected(n, gluings):
            continue
        try:
            tri = parse_triangulation(gluing_text(gluings))
        except InputError:
            continue
        text = tri.to_text()
        if text in seen:
            continue
        seen.add(text)
        picks.append((tries, text))
        if len(picks) == count:
            return picks
    raise RuntimeError("no %d accepted %d-tet gluings in %d tries"
                       % (count, n, max_tries))


def census_name(n, k):
    return "t%d_%d.tri" % (n, k)


def used_names():
    """Names of the census files that some job of the benchmark reads."""
    import jobs

    prefix = "perfbench/census/"
    return {job.path[len(prefix):] for workload in jobs.WORKLOADS.values()
            for job in workload.jobs
            if job.path and job.path.startswith(prefix)}


def freeze():
    """Write the default seed's picks that the jobs use, with provenance."""
    from laminate import parse_triangulation

    used = used_names()
    for name in sorted(os.listdir(CENSUS_DIR)):
        os.remove(os.path.join(CENSUS_DIR, name))
    for n, count in sorted(DEFAULT_PLAN.items()):
        for k, (tries, text) in enumerate(search(DEFAULT_SEED, n, count)):
            if census_name(n, k) not in used:
                continue
            tri = parse_triangulation(text)
            header = ("# %d tetrahedra, %d vertices, edge degrees %s.\n"
                      "# Pick %d of the %d-tetrahedron search of"
                      " perfbench/census.py --seed %d (accepted at try %d).\n"
                      % (n, tri.vertex_count, tri.edge_degrees(), k, n,
                         DEFAULT_SEED, tries))
            path = os.path.join(CENSUS_DIR, census_name(n, k))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(header + text)
            print(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite perfbench/census/ (default seed only)")
    args = parser.parse_args(argv)
    if args.freeze and args.seed != DEFAULT_SEED:
        parser.error("--freeze writes the default seed %d only: the jobs and"
                     " reference answers are made for it" % DEFAULT_SEED)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if args.freeze:
        freeze()
        return 0
    for n, count in sorted(DEFAULT_PLAN.items()):
        for k, (tries, text) in enumerate(search(args.seed, n, count)):
            print("# %s, accepted at try %d" % (census_name(n, k), tries))
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
