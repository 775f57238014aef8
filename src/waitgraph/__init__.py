"""Off-CPU wait analysis from kernel-style event traces.

Pipeline: read a JSONL trace, reconstruct per-thread execution states into
an interval-indexed database, build waiting-dependency graphs per execution
span, group spans by runtime features, and diff the group representatives
to localize lock, CPU, and disk contention.

Importing the package loads the trace, state and graph modules.  The
clustering and comparison names (from ``waitgraph.analysis``) and the
scenario generator's (from ``waitgraph.synth``) load on first use, so a
command that only builds a graph never compiles them.
"""

from importlib import import_module as _import_module

from .errors import (
    EmptyCluster,
    EmptySpan,
    InputError,
    InvalidParameter,
    MalformedRecord,
    NestingViolation,
    NonMonotonicTimestamp,
    OverlappingSpan,
    RootConflict,
    SwitchConflict,
    TooFewSpans,
    TraceAnalysisError,
    UnknownEventKind,
    UnmatchedEnd,
)
from .events import (
    EventKind,
    ExecutionSpan,
    SpanExtraction,
    TraceEvent,
    extract_spans,
    iter_trace,
    read_trace,
    write_trace,
)
from .graph import (
    DepEdge,
    DepGraph,
    DepNode,
    add_edge,
    build_depgraph,
    build_span_graph,
    canonicalize,
    to_dot,
    to_json_dict,
)
from .states import (
    BlockReason,
    StateDatabase,
    StateKind,
    StateValue,
    ThreadState,
    build_state_db,
)

__version__ = "0.1.0"

# the names loaded on first use (PEP 562), by the submodule that defines them
_LAZY = {
    "analysis": ("FEATURE_NAMES", "Clustering", "ComparisonGraph", "EdgeStyle",
                 "FeatureVector", "RepresentativeGraph", "cluster_spans", "compare",
                 "comparison_to_dot", "comparison_to_json_dict",
                 "clustering_report_dict", "extract_features", "kmeans",
                 "normalize_features", "read_clustering_report", "representative"),
    "synth": ("ScenarioSpec", "generate", "generate_files", "iter_events"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([*(name for name in globals() if not name.startswith("_")),
                  *_LAZY, *_LAZY_MODULE])


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)  # binds the package attribute
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
