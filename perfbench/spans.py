"""
Per-layer tracing from outside the program.

``Tracer.install`` replaces public laminate functions, at the module
attribute through which another module (or the benchmark) calls them,
by wrappers that record a span: name, parent span, start and end.  The
spans stay in memory; ``summary`` folds them into per-name self time
(duration minus the duration of the child spans), total time, call count
and longest call, plus the counters the wrappers keep.  ``uninstall``
puts the original functions back, so untraced runs pay nothing.
"""

import functools
import importlib
import time

# (module path, attribute, span name, counter hook or None).  A function
# imported into several modules is wrapped in each of them.
WRAP_POINTS = [
    ("laminate", "parse_triangulation", "triangulation.parse", None),
    ("laminate.cli", "parse_triangulation", "triangulation.parse", None),
    ("laminate", "vertex_solutions", "normal.vertex_solutions",
     "distinct_rays"),
    ("laminate", "fundamental_solutions", "normal.fundamental_solutions",
     None),
    # The CLI lists solutions with its own loop over the orthants.
    ("laminate.cli", "cmd_ns_vertex", "normal.vertex_solutions",
     "distinct_listed"),
    ("laminate.cli", "cmd_ns_fundamental", "normal.fundamental_solutions",
     None),
    ("laminate.normal", "matching_system", "normal.matching_system", None),
    ("laminate.branched", "matching_system", "normal.matching_system", None),
    ("laminate.cli", "matching_system", "normal.matching_system", None),
    ("laminate.normal", "matching_cone", "cones.cone_build", None),
    ("laminate.branched", "matching_cone", "cones.cone_build", None),
    ("laminate.cli", "matching_cone", "cones.cone_build", None),
    ("laminate.normal", "extreme_rays", "cones.extreme_rays", "orthant_rays"),
    ("laminate.cones", "extreme_rays", "cones.extreme_rays", None),
    ("laminate.branched", "extreme_rays", "cones.extreme_rays", None),
    ("laminate.traintracks", "extreme_rays", "cones.extreme_rays", None),
    ("laminate.cli", "extreme_rays", "cones.extreme_rays", "orthant_rays"),
    ("laminate.normal", "hilbert_basis", "cones.hilbert_basis", "hilbert"),
    ("laminate.branched", "hilbert_basis", "cones.hilbert_basis", "hilbert"),
    ("laminate.cli", "hilbert_basis", "cones.hilbert_basis", "hilbert"),
    ("laminate.branched", "positive_integer_point", "cones.positive_point",
     None),
    ("laminate.cones", "rank", "linalg.rank", None),
    ("laminate.cones", "det", "linalg.det", None),
    ("laminate.finiteness", "build_surface", "surfaces.build", "candidate"),
    ("laminate.branched", "build_surface", "surfaces.build", "disks"),
    ("laminate.cli", "build_surface", "surfaces.build", "disks"),
    ("laminate", "from_support", "branched.from_support", None),
    ("laminate.cli", "from_support", "branched.from_support", None),
    ("laminate", "carries_nonneg_chi", "branched.verdict", "fundamentals"),
    ("laminate.finiteness", "carries_nonneg_chi", "branched.verdict", None),
    ("laminate.cli", "carries_nonneg_chi", "branched.verdict",
     "fundamentals"),
    ("laminate", "zero_chi_locus", "branched.zero_chi", None),
    ("laminate.cli", "zero_chi_locus", "branched.zero_chi", None),
    ("laminate", "enumerate_genus", "finiteness.enumerate", "listed"),
    ("laminate.cli", "enumerate_genus", "finiteness.enumerate", "listed"),
    ("laminate", "antichain_certificate", "finiteness.antichain", None),
    ("laminate.cli", "antichain_certificate", "finiteness.antichain", None),
    ("laminate.cli", "enumerate_quad_oct_solutions", "bruteforce.oracle",
     None),
    ("laminate.cli", "extreme_ray_oracle", "bruteforce.oracle", None),
    ("laminate.cli", "hilbert_oracle", "bruteforce.oracle", None),
    ("laminate.cli", "split", "traintracks.split", None),
    ("laminate.cli", "cone_cover_check", "traintracks.cover", None),
]

# Generators whose yields are counted; their time is their caller's.
COUNTED_GENERATORS = [
    ("laminate.normal", "iter_orthant_supports", "normal.orthants"),
    ("laminate.cli", "iter_orthant_supports", "normal.orthants"),
]


# Ratio metrics: (numerator counter, denominator counter).
RATIOS = {
    "normal.distinct_ray_ratio": ("normal.distinct_rays",
                                  "normal.orthant_rays"),
    "finiteness.accept_ratio": ("finiteness.listed", "finiteness.candidates"),
}


def _max_bits(vectors):
    return max((abs(x).bit_length() for v in vectors for x in v), default=0)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []           # [name, parent index or -1, start, end]
        self.counters = {}
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def span(self, name, func, *args, **kwargs):
        """Call func inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.clock(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            record[3] = self.clock()
            self._stack.pop()

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def maximum(self, counter, value):
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def _hook(self, hook, args, result):
        if hook == "distinct_rays":
            self.add("normal.distinct_rays", len(result))
        elif hook == "distinct_listed":
            self.add("normal.distinct_rays", result["count"])
        elif hook == "orthant_rays":
            self.add("normal.orthant_rays", len(result))
            self.maximum("cones.coeff_bits_max", _max_bits(result))
        elif hook == "hilbert":
            self.add("cones.hilbert_out", len(result))
            self.maximum("cones.coeff_bits_max", _max_bits(result))
        elif hook == "candidate":
            self.add("finiteness.candidates", 1)
            self.add("surfaces.disks", sum(args[1]))
        elif hook == "disks":
            self.add("surfaces.disks", sum(args[1]))
        elif hook == "fundamentals":
            self.add("branched.fundamentals", len(result.fundamental_chis))
        elif hook == "listed":
            self.add("finiteness.listed", len(result))

    # -- installing -------------------------------------------------------

    def _wrap(self, func, name, hook):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, func, *args, **kwargs)
            if hook is not None:
                tracer._hook(hook, args, result)
            return result
        return wrapper

    def _wrap_generator(self, func, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            for item in func(*args, **kwargs):
                tracer.add(counter, 1)
                yield item
        return wrapper

    def install(self):
        for module_name, attr, name, hook in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        for module_name, attr, counter in COUNTED_GENERATORS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap_generator(original, counter))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- folding ----------------------------------------------------------

    def summary(self):
        """
        {"spans": {name: [self, total, calls, longest]}, "counters",
        "by_root": {root span name: {name: self}}}.
        """
        child_time = [0.0] * len(self.spans)
        root = []
        for name, parent, start, end in self.spans:
            root.append(name if parent < 0 else root[parent])
            if parent >= 0:
                child_time[parent] += end - start
        folded = {}
        by_root = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            duration = end - start
            entry = folded.setdefault(name, [0.0, 0.0, 0, 0.0])
            entry[0] += duration - child_time[i]
            entry[1] += duration
            entry[2] += 1
            entry[3] = max(entry[3], duration)
            shares = by_root.setdefault(root[i], {})
            shares[name] = shares.get(name, 0.0) + duration - child_time[i]
        return {"spans": folded, "counters": dict(self.counters),
                "by_root": by_root}


def merge(summaries):
    """Add up summaries (longest calls and maxima are maxed)."""
    spans = {}
    counters = {}
    by_root = {}
    for s in summaries:
        for root, shares in s["by_root"].items():
            merged = by_root.setdefault(root, {})
            for name, value in shares.items():
                merged[name] = merged.get(name, 0.0) + value
        for name, (self_s, total, calls, longest) in s["spans"].items():
            entry = spans.setdefault(name, [0.0, 0.0, 0, 0.0])
            entry[0] += self_s
            entry[1] += total
            entry[2] += calls
            entry[3] = max(entry[3], longest)
        for name, value in s["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters, "by_root": by_root}


def self_time_by_span(summary, passes):
    """Self time per span name, per pass."""
    return {name: entry[0] / passes
            for name, entry in summary["spans"].items()}


def per_layer_metrics(summary, passes):
    """
    The per-layer metrics of BENCHMARK.json from a merged summary of
    ``passes`` traced passes.  Times and counts are per pass.
    """
    spans = summary["spans"]
    counters = summary["counters"]

    def self_s(*names):
        return sum(spans[n][0] for n in names if n in spans) / passes

    def total_s(*names):
        return sum(spans[n][1] for n in names if n in spans) / passes

    def calls(name):
        return spans[name][2] / passes if name in spans else 0

    def count(name):
        return counters.get(name, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    build_self = self_s("surfaces.build")
    metrics = {name: ratio(count(num), count(den))
               for name, (num, den) in RATIOS.items()}
    metrics.update({
        "triangulation.parse_s": self_s("triangulation.parse"),
        "triangulation.parse_calls": calls("triangulation.parse"),
        "normal.matching_system_s": total_s("normal.matching_system"),
        "normal.self_s": self_s("normal.vertex_solutions",
                                "normal.fundamental_solutions"),
        "normal.orthants": count("normal.orthants"),
        "cones.cone_build_s": self_s("cones.cone_build"),
        "cones.extreme_rays_s": self_s("cones.extreme_rays"),
        "cones.extreme_rays_calls": calls("cones.extreme_rays"),
        "cones.hilbert_basis_s": self_s("cones.hilbert_basis"),
        "cones.hilbert_basis_calls": calls("cones.hilbert_basis"),
        "cones.hilbert_max_call_s": (spans["cones.hilbert_basis"][3]
                                     if "cones.hilbert_basis" in spans
                                     else 0.0),
        "cones.hilbert_out": count("cones.hilbert_out"),
        "cones.coeff_bits_max": counters.get("cones.coeff_bits_max", 0),
        "cones.positive_point_s": self_s("cones.positive_point"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.rank_s": self_s("linalg.rank"),
        "linalg.det_calls": calls("linalg.det"),
        "linalg.det_s": self_s("linalg.det"),
        "surfaces.build_s": build_self,
        "surfaces.build_calls": calls("surfaces.build"),
        "surfaces.disks": count("surfaces.disks"),
        "surfaces.disks_per_s": ratio(count("surfaces.disks"), build_self),
        "branched.model_s": self_s("branched.from_support"),
        "branched.verdict_s": self_s("branched.verdict"),
        "branched.zero_chi_s": self_s("branched.zero_chi"),
        "branched.fundamentals": count("branched.fundamentals"),
        "finiteness.enumerate_s": self_s("finiteness.enumerate"),
        "finiteness.candidates": count("finiteness.candidates"),
        "finiteness.antichain_s": self_s("finiteness.antichain"),
        "bruteforce.oracle_s": self_s("bruteforce.oracle"),
        "traintracks.split_s": self_s("traintracks.split"),
        "traintracks.cover_s": self_s("traintracks.cover"),
    })
    return metrics
