"""
Fast checks of the benchmark harness, on a few cheap jobs per workload
(and on all of cli-small, whose jobs are cheap, for the traced run).

    python3 -m pytest perfbench/tests -q

The tier-1 suite does not collect these (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import census  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

CHEAP = {
    "engine": {"vertex/two_tet+oct", "fundamental/two_tet+oct",
               "genus/three_tet_normal_genus2", "genus/two_tet_klein"},
    "cli-small": {"cli/tri-info", "cli/bs-verdict"},
}

# Per-layer metrics that read 0 on a workload because none of its jobs
# reaches the layer (README.md, "Per-layer metrics").  The traced test
# runs the cheap engine jobs and every cli-small job, and expects every
# other metric to be nonzero.
ZERO_BY_DESIGN = {
    "engine": {"bruteforce.oracle_s", "traintracks.split_s",
               "traintracks.cover_s", "cli.import_s", "cli.main_s",
               "cli.process_overhead_s", "cli.emit_bytes"},
    "cli-small": set(),
}


def subset(name):
    full = jobs.WORKLOADS[name]
    return jobs.Workload(name, [j for j in full.jobs if j.id in CHEAP[name]])


@pytest.fixture(scope="module")
def lam():
    return run.import_laminate()


def test_workloads_match_benchmark_json():
    assert sorted(jobs.WORKLOADS) == sorted(w["name"]
                                            for w in SPEC["workloads"])


def test_every_job_has_a_reference_answer():
    reference = jobs.load_reference()
    for name, workload in jobs.WORKLOADS.items():
        assert sorted(reference[name]) == sorted(j.id for j in workload.jobs)


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_end_to_end_run(lam, name):
    result = run.measure(lam, subset(name), seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(CHEAP[name])
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_traced_run_reports_every_per_layer_metric(lam, name):
    workload = subset(name) if name == "engine" else jobs.WORKLOADS[name]
    result = run.measure(lam, workload, seed=3, seconds=0, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    zero = {k for k, v in result["metrics"].items() if v["value"] == 0}
    assert zero == ZERO_BY_DESIGN[name]
    # A ratio may not read 0 for want of its numerator alone.
    with open(os.path.join(run.TRACE_DIR, "trace-%s-seed3.json" % name),
              encoding="utf-8") as handle:
        counters = json.load(handle)["summary"]["counters"]
    for ratio, (num, den) in spans.RATIOS.items():
        if counters.get(den, 0):
            assert counters.get(num, 0) > 0, ratio


def test_wrong_answer_counts_as_failed():
    workload = subset("engine")
    checker = run.Checker(workload)
    job = workload.jobs[0]
    checker.check(job, "not-the-reference")
    checker.check(job, checker.reference[job.id])
    assert (checker.attempted, checker.failed) == (2, 1)


def test_changed_cli_output_counts_as_failed():
    workload = subset("cli-small")
    checker = run.Checker(workload)
    job = workload.jobs[0]
    checker.check_cli(job, 0, b"{}\n")
    checker.check_cli(job, 0, b"{} \n")
    assert checker.failed == 2


def test_frozen_census_matches_the_search(lam):
    frozen = sorted(os.listdir(census.CENSUS_DIR))
    assert frozen == sorted(census.used_names())
    for n, count in census.DEFAULT_PLAN.items():
        picks = census.search(census.DEFAULT_SEED, n, count)
        for k, (_, text) in enumerate(picks):
            name = census.census_name(n, k)
            if name not in frozen:
                continue
            with open(os.path.join(census.CENSUS_DIR, name),
                      encoding="utf-8") as handle:
                lines = [line for line in handle.read().splitlines()
                         if not line.startswith("#")]
            assert lines == text.splitlines()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
