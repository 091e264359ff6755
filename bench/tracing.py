"""
Per-layer tracing from outside the library.

``install`` replaces each traced public function of ``shapewilf`` with a
wrapper in every module namespace that binds it, i.e. where callers look
the name up (``equivalence.contains``, ``boards.filling_contains``,
``bijections.fillings``, ...).  No library source is edited.

Calls that run a few hundred times per pass become spans: id, parent id,
name, start, end, busy time and a label, kept in memory.  Hot leaf calls
(``contains``, ``filling_contains``, ``pop_to_pattern_set``) and the
fillings a generator yields are aggregated into counts and summed time
per parent span instead.  A span's self time is its busy time minus the
busy time of its child spans and hot calls.
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

CHECK_KINDS = ("wilf", "shape-wilf", "bijection", "symbolic-identity",
               "oeis-compare", "divergence-search")


def _canonical_class(patterns) -> tuple:
    """Least member of the orbit of a pattern set under reverse,
    complement and inverse (computed here, not by the library)."""
    def rev(p):
        return p[::-1]

    def comp(p):
        return tuple(len(p) + 1 - v for v in p)

    def inv(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v - 1] = i + 1
        return tuple(out)

    start = tuple(sorted(patterns))
    seen, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for op in (rev, comp, inv):
            image = tuple(sorted(op(p) for p in s))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return min(seen)


class Tracer:
    """Spans, hot-call aggregates and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, busy, label]
        self.stack = [0]             # open span ids; 0 is the root
        self.hot = defaultdict(lambda: [0, 0.0, 0])  # (name, parent) -> calls, s, truthy
        self.counts: dict[str, float] = defaultdict(int)
        self._counted: dict[tuple, int] = {}  # symmetry class -> largest n counted

    def begin(self, name: str, label: str = "") -> list:
        span = [len(self.spans) + 1, self.stack[-1], name, time.perf_counter(), 0.0, 0.0, label]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        self.stack.pop()
        span[4] = time.perf_counter()
        span[5] = span[4] - span[3]

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def hot_wrapper(self, name, fn):
        hot, stack, clock = self.hot, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            rec = hot[(name, stack[-1])]
            rec[0] += 1
            rec[1] += elapsed
            if result:
                rec[2] += 1
            return result
        return wrapper

    def generator_wrapper(self, name, fn):
        """A span whose busy time is the time spent inside the generator's
        next; the span is the parent only while next runs."""
        clock, counts = time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            self.stack.pop()
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    self.stack.append(span[0])
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[4] = clock()
                        span[5] += span[4] - start
                        self.stack.pop()
                    counts[name + ".yielded"] += 1
                    yield item
            return timed()
        return wrapper

    def verify_wrapper(self, fn):
        """verify_bijection with the oracle's apply traced as a span."""
        def wrapper(oracle, *args, **kwargs):
            traced = dataclasses.replace(
                oracle, apply=self.span_wrapper("bijections.apply", oracle.apply))
            span = self.begin("bijections.verify_bijection")
            try:
                report = fn(traced, *args, **kwargs)
            finally:
                self.end(span)
            self.counts["bijections.fillings_checked"] += report.fillings_checked
            self.counts["bijections.boards_checked"] += report.boards_checked
            return report
        return wrapper

    def check_wrapper(self, fn):
        """suites._timed: every suite check runs through it; the span is
        labelled with the check's kind once it returns."""
        def wrapper(run):
            span = self.begin("suites.check")
            try:
                result = fn(run)
            finally:
                self.end(span)
            span[6] = result.kind
            return result
        return wrapper

    # -- result hooks ------------------------------------------------------

    def after_avoider_counts(self, args, counts) -> None:
        patterns, n_max = args[0], args[1]
        a = [1, *counts]
        self.counts["equivalence.tree_candidates"] += sum(n * a[n - 1] for n in range(1, len(a)))
        self.counts["equivalence.tree_children"] += sum(counts)
        key = _canonical_class(patterns)
        if self._counted.get(key, -1) >= n_max:
            self.counts["equivalence.repeats"] += 1
        self._counted[key] = max(self._counted.get(key, -1), n_max)

    def after_enumerate_boards(self, _args, boards) -> None:
        self.counts["boards.enumerate_boards.boards"] += len(boards)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function where it is looked up; returns the
    names that no longer exist in the library (their metrics read 0)."""
    t = tracer
    targets = [
        ("perms", "contains", lambda f: t.hot_wrapper("perms.contains", f)),
        ("boards", "filling_contains", lambda f: t.hot_wrapper("boards.filling_contains", f)),
        ("pops", "pop_to_pattern_set", lambda f: t.hot_wrapper("pops.pop_to_pattern_set", f)),
        ("equivalence", "avoider_counts",
         lambda f: t.span_wrapper("equivalence.avoider_counts", f, t.after_avoider_counts)),
        ("equivalence", "wilf_table", lambda f: t.span_wrapper("equivalence.wilf_table", f)),
        ("equivalence", "shape_wilf_table",
         lambda f: t.span_wrapper("equivalence.shape_wilf_table", f)),
        ("equivalence", "find_shape_wilf_divergence",
         lambda f: t.span_wrapper("equivalence.find_shape_wilf_divergence", f)),
        ("boards", "fillings", lambda f: t.generator_wrapper("boards.fillings", f)),
        ("boards", "count_fillings", lambda f: t.span_wrapper("boards.count_fillings", f)),
        ("boards", "enumerate_boards",
         lambda f: t.span_wrapper("boards.enumerate_boards", f, t.after_enumerate_boards)),
        ("bijections", "verify_bijection", t.verify_wrapper),
        ("oeis", "fetch_sequence", lambda f: t.span_wrapper("oeis.fetch_sequence", f)),
        ("oeis", "align_and_compare", lambda f: t.span_wrapper("oeis.align_and_compare", f)),
        ("suites", "run_suite", lambda f: t.span_wrapper("suites.run_suite", f)),
        ("suites", "_timed", t.check_wrapper),
    ]
    missing = []
    wrappers = {}  # id of the original function -> its wrapper
    for module, attr, make in targets:
        original = getattr(importlib.import_module("shapewilf." + module), attr, None)
        if original is None:
            missing.append(f"{module}.{attr}")
        else:
            wrappers[id(original)] = make(original)
    for name, module in list(sys.modules.items()):
        if name == "shapewilf" or name.startswith("shapewilf."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def self_times(tracer: Tracer) -> dict[str, float]:
    """Summed self time per span name."""
    covered: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        covered[span[1]] += span[5]
    for (_, parent), rec in tracer.hot.items():
        covered[parent] += rec[1]
    out: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        out[span[2]] += span[5] - covered[span[0]]
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        key = span[2] if span[2] != "suites.check" else f"suites.check.{span[6]}"
        calls[key] += 1
        busy[key] += span[5]
    hot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for (name, _), rec in tracer.hot.items():
        agg = hot[name]
        for i in range(3):
            agg[i] += rec[i]
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "perms.contains.calls": hot["perms.contains"][0],
        "perms.contains.self_s": hot["perms.contains"][1],
        "perms.contains.found_ratio": ratio(hot["perms.contains"][2], hot["perms.contains"][0]),
        "equivalence.avoider_counts.calls": calls["equivalence.avoider_counts"],
        "equivalence.avoider_counts.s": busy["equivalence.avoider_counts"],
        "equivalence.tree_candidates": c["equivalence.tree_candidates"],
        "equivalence.children_per_candidate":
            ratio(c["equivalence.tree_children"], c["equivalence.tree_candidates"]),
        "equivalence.repeat_ratio":
            ratio(c["equivalence.repeats"], calls["equivalence.avoider_counts"]),
        "equivalence.wilf_table.s": busy["equivalence.wilf_table"],
        "equivalence.shape_wilf_table.s": busy["equivalence.shape_wilf_table"],
        "boards.fillings.calls": calls["boards.fillings"],
        "boards.fillings.yielded": c["boards.fillings.yielded"],
        "boards.fillings.s": busy["boards.fillings"],
        "boards.count_fillings.calls": calls["boards.count_fillings"],
        "boards.count_fillings.s": busy["boards.count_fillings"],
        "boards.enumerate_boards.boards": c["boards.enumerate_boards.boards"],
        "boards.filling_contains.calls": hot["boards.filling_contains"][0],
        "boards.filling_contains.s": hot["boards.filling_contains"][1],
        "bijections.apply.calls": calls["bijections.apply"],
        "bijections.apply.s": busy["bijections.apply"],
        "bijections.verify_bijection.s": busy["bijections.verify_bijection"],
        "bijections.fillings_checked": c["bijections.fillings_checked"],
        "bijections.boards_checked": c["bijections.boards_checked"],
        "pops.pop_to_pattern_set.calls": hot["pops.pop_to_pattern_set"][0],
        "pops.pop_to_pattern_set.s": hot["pops.pop_to_pattern_set"][1],
        "oeis.fetch_sequence.s": busy["oeis.fetch_sequence"],
        "oeis.align_and_compare.s": busy["oeis.align_and_compare"],
        "suites.checks": sum(1 for span in tracer.spans if span[2] == "suites.check"),
        "cli.self_s": self_times(tracer).get("cli.main", 0.0),
    }
    for kind in CHECK_KINDS:
        m[f"suites.check.{kind}.s"] = busy[f"suites.check.{kind}"]
    return m


def is_time(metric: str) -> bool:
    """Times vary run to run; every other layer metric must repeat exactly."""
    return metric.endswith(".s") or metric.endswith("_s")
