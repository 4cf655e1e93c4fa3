"""
The laminate benchmark.

    python3 perfbench/run.py --workload engine --seed 1 \
        --seconds 55 --trace 0

Runs one workload from the root of a checkout and prints, as its last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from passes run with the tracer of spans.py installed,
alternating with untraced passes that give ``trace.overhead_s``.

A pass runs every job of the workload once, in a seeded order.  Passes
repeat until another one would overrun ``--seconds`` (at least one pass,
and at least the workload's ``min_jobs`` jobs).  Human-readable notes,
such as the sample counts, go to standard error.  See README.md.

Every timed job, and every set-up probe, is bracketed by a fixed
pure-Python calibration loop run on the same core, and its time is
reported in seconds at the reference speed: scaled by CAL_REF_S over
the mean of the two loop times around it.  On a shared machine whose
cores slow down by up to 2x for tens of seconds at a time, this takes
the machine's momentary speed out of the figures while keeping every
change to the program's own work in them.
"""

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 9
# The calibration loop, and its time at the reference speed: about its
# typical time on one core of the 2-core Xeon VM the benchmark was
# defined on, so reported seconds read close to wall seconds there.
CAL_ITERATIONS = 150_000
CAL_REF_S = 0.010
CHILD_TIMEOUT_S = 120
CLI_COMMAND = [sys.executable, "-m", "laminate.cli"]
clock = time.perf_counter
ALLOWED_CPUS = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else [0])


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def import_laminate():
    """Import laminate from this checkout's src/, or exit."""
    if not os.path.isfile(os.path.join(SRC, "laminate", "__init__.py")):
        raise SystemExit("perfbench: no laminate sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import laminate
    if not os.path.abspath(laminate.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported laminate from %s, not %s"
                         % (laminate.__file__, SRC))
    return laminate


def pin_to_cpu(k=None):
    """
    Run this process (and the children it starts) on the k-th CPU it may
    use, round robin, or on all of them when k is None.  Other tenants
    slow the cores of a shared machine unevenly and for tens of seconds
    at a time; moving every pass and every set-up probe to the next core
    lets each run sample every core, so its medians do not depend on
    where the scheduler happened to keep it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = (ALLOWED_CPUS if k is None
            else [ALLOWED_CPUS[k % len(ALLOWED_CPUS)]])
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def calibration_s():
    """Time of the fixed calibration loop, now, on the current core."""
    t0 = clock()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return clock() - t0


class Speed:
    """
    Converts the wall time of a piece of work into seconds at the
    reference speed, from the calibration loops run just before and just
    after it (the loop after one job is the loop before the next).
    """

    def __init__(self):
        self.before = calibration_s()

    def scaled(self, wall):
        after = calibration_s()
        factor = CAL_REF_S / ((self.before + after) / 2)
        self.before = after
        return wall * factor


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Checker:
    """Compares answers with reference.json and counts failures."""

    def __init__(self, workload):
        self.reference = jobs.load_reference().get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.stdout_seen = {}

    def fail(self, job, why):
        self.failed += 1
        print("perfbench: job %s failed: %s" % (job.id, why), file=sys.stderr)

    def check(self, job, answer_digest):
        self.attempted += 1
        expected = self.reference.get(job.id)
        if expected is None:
            self.fail(job, "no reference answer")
        elif answer_digest != expected:
            self.fail(job, "answer digest %s, reference %s"
                      % (answer_digest, expected))

    def check_cli(self, job, exit_code, stdout):
        """Reference digest, plus stdout byte-identical across repeats."""
        first = self.stdout_seen.setdefault(job.id, stdout)
        if first != stdout:
            self.attempted += 1
            self.fail(job, "stdout differs from an earlier repeat")
            return
        self.check(job, jobs.cli_digest(exit_code, stdout))

    def crashed(self, job, why):
        self.attempted += 1
        self.fail(job, why)


# -- in-process workloads ----------------------------------------------------

class InProcess:
    def __init__(self, lam, workload, seed):
        self.lam = lam
        self.workload = workload
        self.seed = seed
        self.checker = Checker(workload)
        self.prepared, self.schedule, self.rng = jobs.prepare(
            lam, workload, seed)
        self.samples = {}

    def run_pass(self, prepared=None, samples=None, tracer=None):
        """
        Run every job once in a seeded order, adding each job's latency at
        the reference speed to ``samples`` (by default the run's own).
        Returns the pass's wall time and its time at the reference speed,
        each the sum of its jobs' latencies.  Under a tracer every job is
        a root span named ``job.<kind>``.
        """
        prepared = prepared or self.prepared
        samples = self.samples if samples is None else samples
        order = list(self.schedule)
        self.rng.shuffle(order)
        speed = Speed()
        wall = scaled = 0.0
        for i in order:
            item = prepared[i]
            crash = None
            t0 = clock()
            try:
                if tracer is None:
                    raw = jobs.execute(self.lam, item)
                else:
                    raw = tracer.span("job." + item.job.kind, jobs.execute,
                                      self.lam, item)
            except Exception:
                crash = traceback.format_exc()
            latency = clock() - t0
            wall += latency
            samples.setdefault(i, []).append(speed.scaled(latency))
            scaled += samples[i][-1]
            if crash is not None:
                self.checker.crashed(item.job, crash)
            else:
                self.checker.check(item.job,
                                   jobs.digest(jobs.canonical(item, raw)))
        return wall, scaled

    def run_traced(self):
        """Parse the inputs again and run one pass, all inside a tracer."""
        tracer = spans.Tracer()
        tracer.install()
        try:
            prepared, _, _ = jobs.prepare(self.lam, self.workload, self.seed)
            wall, _ = self.run_pass(prepared, samples={}, tracer=tracer)
        finally:
            tracer.uninstall()
        return wall, tracer.summary(), {"spans": tracer.spans}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the CLI workload --------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv):
    """(stdout bytes, exit code, latency) of one process."""
    t0 = clock()
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=ROOT,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    return proc.stdout, proc.returncode, clock() - t0


class CliProcesses:
    def __init__(self, lam, workload, seed):
        self.workload = workload
        self.checker = Checker(workload)
        self.prepared, self.schedule, self.rng = jobs.prepare(
            lam, workload, seed)
        self.samples = {}

    def run_pass(self):
        """As InProcess.run_pass, one process per job."""
        order = list(self.schedule)
        self.rng.shuffle(order)
        speed = Speed()
        wall = scaled = 0.0
        for i in order:
            job = self.prepared[i].job
            t0 = clock()
            try:
                out, code, latency = run_child(CLI_COMMAND + job.argv)
            except subprocess.TimeoutExpired:
                out, latency = None, clock() - t0
            wall += latency
            self.samples.setdefault(i, []).append(speed.scaled(latency))
            scaled += self.samples[i][-1]
            if out is None:
                self.checker.crashed(job, "no exit within %d s"
                                     % CHILD_TIMEOUT_S)
            else:
                self.checker.check_cli(job, code, out)
        return wall, scaled

    def run_traced(self):
        """
        One pass in which every job is a traced child process that times
        its own import and in-process ``main(argv)`` and returns its folded
        spans.
        """
        order = list(self.schedule)
        self.rng.shuffle(order)
        summaries = []
        extra = {"import_s": [], "main_s": 0.0, "emit_bytes": 0}
        start = clock()
        for i in order:
            job = self.prepared[i].job
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--cli-child", json.dumps(job.argv)],
                capture_output=True, cwd=ROOT, env=child_env(),
                timeout=CHILD_TIMEOUT_S)
            try:
                report = json.loads(proc.stdout.decode().splitlines()[-1])
            except (IndexError, ValueError):
                self.checker.attempted += 1
                self.checker.fail(job, "traced child: %s"
                                  % proc.stderr.decode()[-2000:])
                continue
            stdout = report["stdout"].encode()
            self.checker.check_cli(job, report["exit"], stdout)
            summaries.append(report["summary"])
            extra["import_s"].append(report["import_s"])
            extra["main_s"] += report["main_s"]
            extra["emit_bytes"] += len(stdout)
        return clock() - start, spans.merge(summaries), extra

    def peak_rss_mb(self):
        """The largest child: a CLI process (or a smaller set-up probe)."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_maxrss / 1024.0


def cli_child(argv):
    """Body of a traced CLI child: prints one JSON report."""
    t0 = clock()
    import_laminate()
    import laminate.cli
    import_s = clock() - t0
    tracer = spans.Tracer()
    tracer.install()
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            t1 = clock()
            code = laminate.cli.main(argv)
            main_s = clock() - t1
    finally:
        tracer.uninstall()
    print(json.dumps({"import_s": import_s, "main_s": main_s, "exit": code,
                      "stdout": buffer.getvalue(),
                      "summary": tracer.summary()}))


# -- set-up time -------------------------------------------------------------

def setup_probe(workload_name, seed):
    """Body of a set-up child: import, parse the inputs, load the answers."""
    t0 = clock()
    lam = import_laminate()
    workload = jobs.WORKLOADS[workload_name]
    if workload_name == "cli-small":
        import laminate.cli  # noqa: F401  (what every CLI process imports)
    jobs.prepare(lam, workload, seed)
    jobs.load_reference()
    print(clock() - t0)


def measure_setup(workload_name, seed):
    """
    Median, at the reference speed, of SETUP_PROBES fresh processes after
    one untimed warm-up.
    """
    times = []
    try:
        for k in range(SETUP_PROBES + 1):
            pin_to_cpu(k)
            speed = Speed()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--setup-probe", "--workload", workload_name,
                 "--seed", str(seed)],
                capture_output=True, cwd=ROOT, env=child_env(),
                timeout=CHILD_TIMEOUT_S, check=True)
            times.append(speed.scaled(float(proc.stdout.decode().split()[-1])))
    finally:
        pin_to_cpu(None)
    return statistics.median(times[1:])


# -- the run -----------------------------------------------------------------

def measure(lam, workload, seed, seconds, trace):
    """Run the workload for about ``seconds`` and return the result dict."""
    runner_class = CliProcesses if workload.name == "cli-small" else InProcess
    setup_s = None if trace else measure_setup(workload.name, seed)
    runner = runner_class(lam, workload, seed)
    jobs_per_pass = len(runner.schedule)
    walls, scaled_walls, elapsed, traced = [], [], [], []
    start = clock()
    try:
        while True:
            pin_to_cpu(len(walls))
            t0 = clock()
            wall, scaled = runner.run_pass()
            walls.append(wall)
            scaled_walls.append(scaled)
            elapsed.append(clock() - t0)
            step = statistics.median(elapsed)
            if trace:
                traced.append(runner.run_traced())
                step += statistics.median(t[0] for t in traced)
            elif len(walls) * jobs_per_pass < workload.min_jobs:
                continue
            if clock() - start + step > seconds:
                break
    finally:
        pin_to_cpu(None)

    checker = runner.checker
    # A job's latency is the median of its repeats in the run.
    latencies = [statistics.median(runner.samples[i])
                 for i in runner.schedule]
    print("perfbench: %s seed %d: %d untraced passes of %d jobs, %d traced"
          % (workload.name, seed, len(walls), jobs_per_pass, len(traced)),
          file=sys.stderr)
    if trace:
        metrics = traced_metrics(workload, seed, walls, traced)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(scaled_walls),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": nearest_rank(latencies, 0.9),
            "peak_rss_mb": runner.peak_rss_mb(),
        }
    units = metric_units()
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_metrics(workload, seed, walls, traced):
    passes = len(traced)
    summary = spans.merge(t[1] for t in traced)
    metrics = spans.per_layer_metrics(summary, passes)
    traced_wall = statistics.median(t[0] for t in traced)
    untraced_wall = statistics.median(walls)
    import_times = [s for t in traced for s in t[2].get("import_s", [])]
    main_s = sum(t[2].get("main_s", 0.0) for t in traced) / passes
    metrics.update({
        "cli.import_s": statistics.median(import_times) if import_times
        else 0.0,
        "cli.main_s": main_s,
        "cli.process_overhead_s": untraced_wall - main_s if main_s else 0.0,
        "cli.emit_bytes": sum(t[2].get("emit_bytes", 0)
                              for t in traced) / passes,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    layers = spans.self_time_by_span(summary, passes)
    if main_s:
        layers["cli.main"] = main_s - sum(layers.values())
        layers["cli.process_overhead"] = metrics["cli.process_overhead_s"]
    write_trace(workload, seed, passes, summary, layers, traced_wall,
                traced[-1][2].get("spans", []))
    return metrics


def write_trace(workload, seed, passes, summary, layers, traced_wall,
                last_spans):
    """
    Write the folded spans, the self-time shares and the raw spans of the
    last in-process traced pass as [name, parent index, start, end].
    """
    total = sum(layers.values()) or 1.0
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("perfbench:   %-30s %8.3f s/pass  %5.1f%%"
              % (layer, value, 100 * value / total), file=sys.stderr)
    for root, shares in sorted(summary["by_root"].items()):
        if root.startswith("job."):
            total = sum(shares.values()) or 1.0
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            print("perfbench:   %s jobs: %s" % (root[4:], ", ".join(
                "%s %.0f%%" % (name, 100 * value / total)
                for name, value in top)), file=sys.stderr)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json"
                        % (workload.name, seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "traced_passes": passes, "traced_wall_s": traced_wall,
                   "layer_self_s_per_pass": layers, "summary": summary,
                   "last_pass_spans": last_spans},
                  handle, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cli-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cli_child is not None:
        cli_child(json.loads(args.cli_child))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    lam = import_laminate()
    result = measure(lam, jobs.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
