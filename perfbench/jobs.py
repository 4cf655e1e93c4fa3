"""
The benchmark's workloads, their inputs, and how a job's answer is
checked.

A job is one user-level call: one ``vertex_solutions`` or
``fundamental_solutions`` call, one single-cone Hilbert basis, one
branched-surface model pipeline, or one CLI process.  Every job has a
stable id, and ``reference.json`` holds the digest of its canonical
answer.

The seed orders the jobs of every pass and changes nothing else, so a
run costs the same on every seed.  The inputs keep their committed
labels: presenting the same triangulation under a relabelling of its
tetrahedra and vertices changes the cost of a job by up to 7x today
(the order of the matching equations steers double description, and
the coordinates chosen for the parallelepiped steer the Hilbert basis),
which would swamp every bound of BENCHMARK.json.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")


class Job:
    """One user-level call; ``kind`` picks how it is executed."""

    def __init__(self, name, kind, path=None, octs=False, support=None,
                 genera=(), expect=None, argv=None, reps=1):
        self.id = "%s/%s" % (kind, name)
        self.kind = kind          # vertex, fundamental, cone, genus, cli
        self.path = path          # triangulation or model file, from ROOT
        self.octs = octs
        self.support = support
        self.genera = tuple(genera)
        self.expect = expect      # kind of the typed refusal that must end it
        self.argv = argv
        self.reps = reps          # copies of a CLI job in one pass


def _census(name):
    return "perfbench/census/%s.tri" % name


def _fixture(name):
    return "fixtures/%s.tri" % name


def _model(name):
    return "fixtures/models/%s.json" % name


# Jobs are kept under about 2 s so that every job repeats several times
# in a run (see README.md, "Noise").
#
# Vertex enumeration: the three fixtures and three 3-tet census members
# with octagons, then two 4-tet census members quad-only.
VERTEX_CENSUS = [
    Job("one_tet+oct", "vertex", _fixture("one_tet"), octs=True),
    Job("two_tet+oct", "vertex", _fixture("two_tet"), octs=True),
    Job("three_tet+oct", "vertex", _fixture("three_tet"), octs=True),
    Job("t3_0+oct", "vertex", _census("t3_0"), octs=True),
    Job("t3_1+oct", "vertex", _census("t3_1"), octs=True),
    Job("t3_2+oct", "vertex", _census("t3_2"), octs=True),
    Job("t4_0", "vertex", _census("t4_0")),
    Job("t4_1", "vertex", _census("t4_1")),
]

# The heaviest quad orthants of the 4-tet census: 8 extreme rays, rank 4.
_T4_0_HEAVY = [0, 1, 2, 3, 6, 10, 11, 12, 13, 15, 20, 21, 22, 23, 26, 30,
               31, 32, 33, 35]
_T4_1_HEAVY = [0, 1, 2, 3, 5, 10, 11, 12, 13, 14, 20, 21, 22, 23, 26, 30,
               31, 32, 33, 36]

# Fundamental solutions, and single heavy cones.
FUNDAMENTAL = [
    Job("one_tet+oct", "fundamental", _fixture("one_tet"), octs=True),
    Job("two_tet+oct", "fundamental", _fixture("two_tet"), octs=True),
    Job("three_tet", "fundamental", _fixture("three_tet")),
    Job("t3_2+oct", "fundamental", _census("t3_2"), octs=True),
    Job("t4_2", "fundamental", _census("t4_2")),
    Job("t4_0/heavy", "cone", _census("t4_0"), support=_T4_0_HEAVY),
    Job("t4_1/heavy", "cone", _census("t4_1"), support=_T4_1_HEAVY),
]

# Branched-surface model pipelines over genus ranges.
GENUS = [
    Job("three_tet_almost_normal", "genus", _model("three_tet_almost_normal"),
        genera=range(2, 41, 2)),
    Job("three_tet_normal_genus2", "genus", _model("three_tet_normal_genus2"),
        genera=range(2, 41, 2)),
    Job("two_tet_klein", "genus", _model("two_tet_klein"), genera=(2,),
        expect="UnboundedRefusal"),
    Job("three_tet_triangles", "genus", _model("three_tet_triangles"),
        genera=(2,), expect="UnboundedRefusal"),
    # chi -2, -4, -6
    Job("t5_1/3f", "genus", _census("t5_1"),
        support=[1, 3, 5, 10, 13, 16, 20, 22, 31, 35, 42, 46],
        genera=(30, 40)),
    # chi -2, -2
    Job("t5_1/2f", "genus", _census("t5_1"),
        support=[0, 1, 2, 3, 10, 11, 12, 13, 16, 20, 22, 25, 33, 35, 40, 41,
                 42, 43], genera=(30, 40)),
    # chi -4, -2
    Job("t4_0/2f", "genus", _census("t4_0"),
        support=[1, 3, 5, 11, 12, 16, 20, 23, 26, 30, 31, 32, 33, 35],
        genera=(30, 40, 50)),
    # chi -2, -4, -2, -4, -6, -6
    Job("t5_1/6f", "genus", _census("t5_1"),
        support=[1, 3, 5, 10, 13, 16, 20, 22, 25, 31, 35, 41, 42, 46],
        genera=(5, 10, 12)),
]

# The README's CLI examples.  Per pass of 20 processes the 1 s --bound
# command runs once and the 0.17 s fundamental command three times, so
# the 90th percentile falls inside the fundamental class, not on the
# boundary between two classes.
_BUILD_VECTOR = "1,1,1,1,0,0,0,0,0,0,1,1,1,1,0,0,0,0,0,0"
CLI_SMALL = [
    Job("tri-info", "cli", argv=["tri", "info", "--input",
                                 _fixture("two_tet")], reps=2),
    Job("ns-vertex-bound", "cli", argv=["ns", "vertex", "--input",
                                        _fixture("one_tet"), "--bound", "6"]),
    Job("ns-fundamental", "cli", argv=["ns", "fundamental", "--input",
                                       _fixture("two_tet"), "--almost-normal"],
        reps=3),
    Job("ns-build", "cli", argv=["ns", "build", "--input", _fixture("two_tet"),
                                 "--vector", _BUILD_VECTOR], reps=2),
    Job("bs-from-support", "cli", argv=["bs", "from-support", "--input",
                                        _fixture("two_tet"), "--support",
                                        "6,16"], reps=2),
    Job("bs-verdict", "cli", argv=["bs", "verdict", "--input",
                                   _fixture("two_tet"), "--support", "6,16"],
        reps=2),
    Job("bs-zero-chi", "cli", argv=["bs", "zero-chi", "--input",
                                    _fixture("two_tet"), "--support", "6,16"],
        reps=3),
    Job("heegaard-enumerate", "cli",
        argv=["heegaard", "enumerate", "--input", _fixture("three_tet"),
              "--support", "2,4,11,13,15,20,21,22,23,29", "-g", "2"], reps=3),
    Job("split-traintrack", "cli", argv=["split", "traintrack", "--file",
                                         "fixtures/figure_sp1.json",
                                         "--branch", "b"], reps=2),
]


class Workload:
    def __init__(self, name, jobs, min_jobs=1):
        self.name = name
        self.jobs = jobs
        self.min_jobs = min_jobs  # fewest jobs one timed run may make


# Two workloads, so that each run can be long enough to outlast the
# machine's slow phases (see README.md, "Noise").  The engine workload
# holds the three in-process job families; a traced run reports the self
# time of every layer per family.
WORKLOADS = {
    w.name: w for w in (
        Workload("engine", VERTEX_CENSUS + FUNDAMENTAL + GENUS),
        Workload("cli-small", CLI_SMALL, min_jobs=100),
    )
}


# -- inputs ------------------------------------------------------------------

def _read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        return handle.read()


class Prepared:
    """A job with its parsed triangulation and support."""

    def __init__(self, job, tri=None, support=None):
        self.job = job
        self.tri = tri
        self.support = support


def prepare(lam, workload, seed):
    """
    Parse every input of the workload.  Returns (prepared jobs, one
    pass's schedule as indices into them, the seeded rng that orders
    each pass).
    """
    prepared = []
    texts = {}
    for job in workload.jobs:
        if job.kind == "cli":
            prepared.append(Prepared(job))
            continue
        path, support = job.path, job.support
        if path.endswith(".json"):
            model = json.loads(_read(path))
            path = "fixtures/" + model["triangulation"]
            support = model["support"]
        if path not in texts:
            texts[path] = _read(path)
        prepared.append(Prepared(job, lam.parse_triangulation(texts[path]),
                                 support))
    schedule = [i for i, job in enumerate(workload.jobs)
                for _ in range(job.reps)]
    return prepared, schedule, random.Random("%s:%d" % (workload.name, seed))


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- execution and answers ---------------------------------------------------

def execute(lam, item):
    """Run one in-process job and return its raw answer."""
    job, tri = item.job, item.tri
    if job.kind == "vertex":
        return lam.vertex_solutions(tri, include_octs=job.octs)
    if job.kind == "fundamental":
        return lam.fundamental_solutions(tri, include_octs=job.octs)
    if job.kind == "cone":
        return lam.from_support(tri, item.support).fundamentals()
    if job.kind == "genus":
        return _genus_pipeline(lam, item)
    raise ValueError("job kind %r does not run in process" % job.kind)


def _genus_pipeline(lam, item):
    model = lam.from_support(item.tri, item.support)
    carrying = model.fully_carrying
    verdict = lam.carries_nonneg_chi(model)
    zero = lam.zero_chi_locus(model)
    lists = []
    refusal = None
    for genus in item.job.genera:
        try:
            enumeration = lam.enumerate_genus(model, genus)
        except lam.errors.Refusal as exc:
            refusal = exc.kind
            break
        antichain = lam.antichain_certificate(enumeration)
        lists.append((genus, enumeration.vectors, bool(antichain)))
    if refusal != item.job.expect:
        raise RuntimeError("pipeline ended with refusal %r, expected %r"
                           % (refusal, item.job.expect))
    return model, carrying, verdict, zero, lists, refusal


def canonical(item, raw):
    """The raw answer as sorted JSON data."""
    if item.job.kind in ("vertex", "fundamental", "cone"):
        return sorted(list(v) for v in raw)
    model, carrying, verdict, zero, lists, refusal = raw
    return {
        "fully_carrying": carrying,
        "verdict": verdict.verdict,
        "chi": sorted(Fraction(c) for c in verdict.fundamental_chis),
        "fundamentals": sorted(list(v) for v in model.fundamentals()),
        "zero_chi": sorted([str(x) for x in v] for v in zero),
        "genus": [[g, sorted(list(v) for v in vectors), antichain]
                  for g, vectors, antichain in lists],
        "refusal": refusal,
    }


def digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def cli_digest(exit_code, stdout):
    return digest({"exit": exit_code,
                   "stdout": hashlib.sha256(stdout).hexdigest()})
