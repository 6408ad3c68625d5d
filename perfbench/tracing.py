"""Timing wrappers around the treeirs layer functions, installed from outside.

``install`` replaces each listed function in every ``treeirs`` module that
binds it (``montecarlo`` imports ``canon_full`` itself, ``cli`` imports the
``irs`` verifiers, and so on), so calls are recorded whichever module makes
them.  Per-element primitives (``perm.compose``, ``perm.conjugate``,
``TrialRng.next64``, ``TrialRng.randbelow``) are left alone: they run millions
of times and a wrapper would cost more than they do.

Spans are kept in memory.  A span's parent is the innermost open span on its
own thread; on a worker thread of the estimators' pool it is the span that
submitted the task, so canonicalizations on pool threads are attributed to
the estimator that asked for them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# layer -> functions traced in it; "Class.method" names a method
LAYERS = {
    "perm": ("close", "enumerate_subgroups", "subgroups_of", "minimal_blocks",
             "contains_alt_on"),
    "irs": ("uniform_conjugate_measure", "transporter", "verify_E1", "verify_index",
            "verify_E2"),
    "classify": ("praeger_saxl_check", "contains_full_alt", "classify_case", "in_Xi"),
    "canon": ("canon_full", "canon_coloured", "orbit_census", "form_str"),
    "montecarlo": ("estimate_treematch", "estimate_cut1", "estimate_cut2",
                   "estimate_colormatch", "exact_colormatch", "TrialRng.sample",
                   "TrialRng.sample_seq"),
    "tree": ("cone_leaf_labels", "level_counts", "level_counts_direct"),
    "bounds": ("summability_scan", "chernoff_dominates"),
    "thompson": ("compose", "inverse", "reduce_pair"),
    "cli": ("main",),
}
ESTIMATORS = ("montecarlo.estimate_treematch", "montecarlo.estimate_cut1",
              "montecarlo.estimate_cut2", "montecarlo.estimate_colormatch")
COUNTERS = {
    "perm.close.elements": "count",
    "canon.canon_full.p50_us": "us",
    "canon.canon_full.p99_us": "us",
    "canon.distinct_forms": "count",
    "canon.form_reuse": "ratio",
    "montecarlo.trials": "count",
    "montecarlo.match_ratio": "ratio",
    "montecarlo.busy_ratio": "ratio",
    "bounds.scan_terms": "count",
    "cli.out_bytes": "bytes",
    "trace.spans": "count",
    "trace.attributed_share": "ratio",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent")

    def __init__(self, name, thread, start, end=0, parent=None):
        self.name, self.thread, self.start, self.end, self.parent = (
            name, thread, start, end, parent)


class Tracer:
    """In-memory spans, pool-task intervals and counters of one traced body."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.spans: list[Span] = []
        self.pool_tasks: list[tuple[Span | None, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.forms: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn, on_result=None):
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, threading.get_ident(), clock(),
                        parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def executor(self, base):
        """A subclass of the pool class ``base`` whose tasks inherit the
        submitting thread's open span and record their busy interval."""
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                workers = getattr(self, "_max_workers", 1)

                def task():
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = [parent] if parent is not None else []
                    t0 = tracer.clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.pool_tasks.append((parent, workers, t0, tracer.clock()))
                        stack[:] = saved

                return super().submit(task)

        return TracedExecutor

    # -- result hooks -------------------------------------------------------

    def _form(self, result):
        self.forms.add(result)

    def _estimate(self, est):
        self.count("montecarlo.trials", est.trials)
        self.count("montecarlo.successes", est.successes)

    def hooks(self) -> dict:
        return {
            "perm.close": lambda els: self.count("perm.close.elements", len(els)),
            "canon.canon_full": self._form,
            "canon.canon_coloured": self._form,
            "bounds.summability_scan": lambda rep: self.count("bounds.scan_terms",
                                                              rep.n_max),
            **{name: self._estimate for name in ESTIMATORS},
        }


def rebind(original, replacement) -> None:
    """Replace a function in every loaded treeirs module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "treeirs" or name.startswith("treeirs."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def install_checkpoints(names, checkpoint) -> None:
    """Call ``checkpoint()`` after every main-thread call of the functions
    ``names`` lists as ``(module, function)`` pairs."""
    main_thread = threading.main_thread()
    for module, name in names:
        original = getattr(importlib.import_module(f"treeirs.{module}"), name)

        @functools.wraps(original)
        def hooked(*args, _fn=original, **kwargs):
            result = _fn(*args, **kwargs)
            if threading.current_thread() is main_thread:
                checkpoint()
            return result

        rebind(original, hooked)


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in LAYERS that exists; return the names missing."""
    modules = {layer: importlib.import_module(f"treeirs.{layer}") for layer in LAYERS}
    hooks = tracer.hooks()
    missing = []
    for layer, names in LAYERS.items():
        for qualname in names:
            owner = modules[layer]
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{layer}.{qualname}")
                continue
            full = f"{layer}.{qualname}"
            wrapped = tracer.wrap(full, original, hooks.get(full))
            if cls:
                setattr(owner, attr, wrapped)
            else:
                rebind(original, wrapped)
    pool = getattr(modules["montecarlo"], "ThreadPoolExecutor", None)
    if pool is not None:
        modules["montecarlo"].ThreadPoolExecutor = tracer.executor(pool)
    return missing


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> int:
    """Total length covered by a set of half-open intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the union of its children,
    each child clipped to the parent's interval.  Keyed by ``id(span)``."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[id(s)] if c.end > s.start and c.start < s.end)
        out[id(s)] = (s.end - s.start) - covered
    return out


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer: Tracer, body_start: int, body_end: int,
                  extra_counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced body, keyed as in ``metric_units``."""
    spans = tracer.spans
    selfs = self_times(spans)
    metrics = {name: 0.0 for name in metric_units()}
    for s in spans:
        metrics[f"{s.name}.calls"] += 1
        metrics[f"{s.name}.self_s"] += selfs[id(s)] / 1e9
    full = sorted((s.end - s.start) / 1e3 for s in spans if s.name == "canon.canon_full")
    metrics["canon.canon_full.p50_us"] = _percentile(full, 50)
    metrics["canon.canon_full.p99_us"] = _percentile(full, 99)
    canon_calls = (metrics["canon.canon_full.calls"]
                   + metrics["canon.canon_coloured.calls"])
    metrics["canon.distinct_forms"] = len(tracer.forms)
    if canon_calls:
        metrics["canon.form_reuse"] = 1 - len(tracer.forms) / canon_calls
    counts = tracer.counts
    for name in ("perm.close.elements", "montecarlo.trials", "bounds.scan_terms"):
        metrics[name] = counts[name]
    if counts["montecarlo.trials"]:
        metrics["montecarlo.match_ratio"] = (counts["montecarlo.successes"]
                                             / counts["montecarlo.trials"])
    busy = sum(end - start for _, _, start, end in tracer.pool_tasks)
    capacity = sum(workers * (parent.end - parent.start)
                   for parent, workers in {(p, w) for p, w, _, _ in tracer.pool_tasks
                                           if p is not None})
    metrics["montecarlo.busy_ratio"] = busy / capacity if capacity else 0.0
    metrics["cli.out_bytes"] = extra_counts.get("cli.out_bytes", 0)
    metrics["trace.spans"] = len(spans)
    roots = [(max(s.start, body_start), min(s.end, body_end))
             for s in spans if s.parent is None]
    metrics["trace.attributed_share"] = union_length(roots) / (body_end - body_start)
    return metrics


def write_spans(path: str, spans: list[Span]) -> None:
    """One tab-separated line per span: index, parent index, thread, name,
    start and end in ns."""
    index = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\tthread\tname\tstart_ns\tend_ns\n")
        for i, s in enumerate(spans):
            parent = index[id(s.parent)] if s.parent is not None else -1
            thread = threads.setdefault(s.thread, len(threads))
            fh.write(f"{i}\t{parent}\t{thread}\t{s.name}\t{s.start}\t{s.end}\n")
