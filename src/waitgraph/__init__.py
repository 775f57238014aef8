"""Off-CPU wait analysis from kernel-style event traces.

Pipeline: read a JSONL trace, reconstruct per-thread execution states into
an interval-indexed database, build waiting-dependency graphs per execution
span, group spans by runtime features, and diff the group representatives
to localize lock, CPU, and disk contention.
"""

from .analysis import (
    FEATURE_NAMES,
    Clustering,
    ComparisonGraph,
    EdgeStyle,
    FeatureVector,
    RepresentativeGraph,
    cluster_spans,
    compare,
    comparison_to_dot,
    comparison_to_json_dict,
    clustering_report_dict,
    extract_features,
    kmeans,
    normalize_features,
    read_clustering_report,
    representative,
)
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
    NodeKind,
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
from .synth import ScenarioSpec, generate, generate_files, iter_events

__version__ = "0.1.0"
