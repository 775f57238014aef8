"""Per-layer tracing for the benchmark's traced runs.

A Tracer patches waitgraph's public layer functions (and every alias that
other waitgraph modules imported under the same name) with timing wrappers,
wraps the StateDatabase query methods that the graph layer calls, and
attributes garbage-collector pauses to the spans open when they happen.
Spans stay in memory and are written out by the caller at the end.

Nothing is patched until `install()`; `remove()` restores every original.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs recorded as spans, one per call.
SPAN_FUNCTIONS = (
    ("waitgraph.events", "read_trace"),
    ("waitgraph.events", "extract_spans"),
    ("waitgraph.states", "build_state_db"),
    ("waitgraph.graph", "build_span_graph"),
    ("waitgraph.graph", "canonicalize"),
    ("waitgraph.graph", "to_dot"),
    ("waitgraph.analysis", "extract_features"),
    ("waitgraph.analysis", "cluster_spans"),
    ("waitgraph.analysis", "kmeans"),
    ("waitgraph.analysis", "representative"),
    ("waitgraph.analysis", "compare"),
    ("waitgraph.analysis", "comparison_to_dot"),
)

# StateDatabase methods counted per call (too frequent to keep as spans).
STATE_METHODS = ("query_range", "query_at", "disk_usage_by_thread",
                 "cpu_usage_by_thread", "counter_delta", "last_value_before",
                 "last_cpu_before")

_COUNTERS = ("pagefaults", "bytes_read", "bytes_written")

# Spans the benchmark opens around a step or command, not a layer call.
_FRAME_SPANS = ("stage.", "cli.", "synth.")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "gc_s", "gc_n",
                 "states_s", "maxrss_mb")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.gc_s = 0.0        # collector pauses inside the span
        self.gc_n = 0
        self.states_s = 0.0    # outermost StateDatabase calls inside the span
        self.maxrss_mb = None

    @property
    def busy_s(self) -> float:
        """Duration without the collector pauses that fell inside it."""
        return self.end - self.start - self.gc_s

    def record(self, rep: int) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "rep": rep, "gc_s": self.gc_s,
                "gc_n": self.gc_n, "states_s": self.states_s,
                "maxrss_mb": self.maxrss_mb}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.state_calls = {m: [0, 0.0] for m in STATE_METHODS}
        self._stack: list[int] = []
        self._states_depth = 0
        self._gc_t0 = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, stage: bool = False):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, perf_counter(), parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            if stage:
                sp.maxrss_mb = maxrss_mb()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
            return
        pause = perf_counter() - self._gc_t0
        self.count("gc.collections", 1)
        self.count("gc.pause_s", pause)
        for i in self._stack:
            self.spans[i].gc_s += pause
            self.spans[i].gc_n += 1

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import waitgraph.analysis  # noqa: F401  (load every layer first)
        import waitgraph.cli  # noqa: F401
        from waitgraph.states import StateDatabase

        # A name the program no longer has is skipped; its metrics read 0.
        for modname, fname in SPAN_FUNCTIONS:
            original = getattr(sys.modules[modname], fname, None)
            if original is None:
                continue
            layer = modname.split(".")[1]
            wrapper = self._span_wrapper(f"{layer}.{fname}", original)
            for mod in [m for n, m in sys.modules.items()
                        if n == "waitgraph" or n.startswith("waitgraph.")]:
                if getattr(mod, fname, None) is original:
                    self._patch(mod, fname, wrapper)
        for method in STATE_METHODS:
            if hasattr(StateDatabase, method):
                self._patch(StateDatabase, method, self._state_wrapper(
                    method, getattr(StateDatabase, method)))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span_wrapper(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _state_wrapper(self, method: str, fn):
        slot = self.state_calls[method]

        def traced(*args, **kwargs):
            self._states_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._states_depth -= 1
                slot[0] += 1
                slot[1] += dt
                if self._states_depth == 0 and self._stack:
                    self.spans[self._stack[-1]].states_s += dt

        traced.__wrapped__ = fn
        return traced

    # -- summary -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of this process: call counts, busy seconds
        (collector pauses excluded and reported under gc.*), and the work
        counts gathered by the observers."""
        out: dict[str, float] = {"gc.collections": 0, "gc.pause_s": 0.0,
                                 "graph.build_span_graph.self_s": 0.0}
        for modname, fname in SPAN_FUNCTIONS:
            name = f"{modname.split('.')[1]}.{fname}"
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        out["trace.layer_sum_s"] = 0.0
        for sp in self.spans:
            if sp.name.startswith(_FRAME_SPANS):
                continue
            if sp.parent is None or self.spans[sp.parent].name.startswith(_FRAME_SPANS):
                out["trace.layer_sum_s"] += sp.end - sp.start
            out[f"{sp.name}.calls"] += 1
            out[f"{sp.name}.s"] += sp.busy_s
            if sp.name == "graph.build_span_graph":
                out["graph.build_span_graph.self_s"] += sp.busy_s - sp.states_s
        for method, (calls, secs) in self.state_calls.items():
            out[f"states.{method}.calls"] = calls
            out[f"states.{method}.s"] = secs
        out.update(self.counts)
        return out


# -- observers: work counts read from a layer call's arguments and result ----

def _obs_read_trace(tr: Tracer, args, events) -> None:
    tr.count("events.read_trace.events", len(events))
    if isinstance(args[0], (str, os.PathLike)):
        tr.count("events.bytes", os.path.getsize(args[0]))


def _obs_extract_spans(tr: Tracer, args, extraction) -> None:
    tr.count("events.spans", len(extraction.spans))


def _obs_build_state_db(tr: Tracer, args, db) -> None:
    keys = db.keys()
    counter_keys = [k for k in keys if k.rsplit("/", 1)[-1] in _COUNTERS]
    tr.count("states.keys", len(keys))
    tr.count("states.intervals", sum(len(db.intervals(k)) for k in keys))
    tr.count("states.counter_intervals",
             sum(len(db.intervals(k)) for k in counter_keys))


def _obs_build_span_graph(tr: Tracer, args, g) -> None:
    tr.count("graph.nodes", len(g.nodes))
    tr.count("graph.edges", len(g.edges))
    tr.count("graph.cycles", int(g.cycle_detected))
    tr.count("graph.depth_truncated", int(g.depth_truncated))


def _obs_kmeans(tr: Tracer, args, result) -> None:
    tr.count("analysis.kmeans.iterations", result[2])


_OBSERVERS = {
    "events.read_trace": _obs_read_trace,
    "events.extract_spans": _obs_extract_spans,
    "states.build_state_db": _obs_build_state_db,
    "graph.build_span_graph": _obs_build_span_graph,
    "analysis.kmeans": _obs_kmeans,
}
