"""Span features, k-means grouping, representative graphs, and graph diffs.

The comparison of two cluster representatives partitions edges into
dashed (left only), dotted (right only), and solid (both); solid edges get
a 1-5 boldness level from the right/left mean difference normalized by the
left standard deviation.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import EmptyCluster, InvalidParameter, RootConflict, TooFewSpans
from .events import ExecutionSpan
from .graph import (_DOT_SHAPES, DepGraph, NodeId, _edge_order, _quote, node_id_str,
                    node_kind, node_label)
from .states import (
    COUNTERS,
    BlockReason,
    StateDatabase,
    StateKind,
    thread_state_key,
)


@dataclass(frozen=True)
class FeatureVector:
    """Per-span runtime features; durations in microseconds."""

    blocked_disk_count: float = 0.0
    blocked_disk_us: float = 0.0
    cpu_wait_count: float = 0.0
    cpu_wait_us: float = 0.0
    blocked_futex_count: float = 0.0
    blocked_futex_us: float = 0.0
    blocked_task_count: float = 0.0
    blocked_task_us: float = 0.0
    interrupted_count: float = 0.0
    interrupted_us: float = 0.0
    blocked_timer_count: float = 0.0
    blocked_timer_us: float = 0.0
    page_faults: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    total_us: float = 0.0

    def as_list(self) -> list[float]:
        return list(_feature_values(self))


FEATURE_NAMES = [f.name for f in fields(FeatureVector)]
_feature_values = attrgetter(*FEATURE_NAMES)
# waiting state (kind, blocked reason) -> the position of its count feature,
# its duration next; the six pairs lead FeatureVector, other states add none
_WAIT_FEATURES = {state: FEATURE_NAMES.index(name) for state, name in (
    ((StateKind.BLOCKED, BlockReason.DISK), "blocked_disk_count"),
    ((StateKind.RUNNABLE, None), "cpu_wait_count"),
    ((StateKind.BLOCKED, BlockReason.FUTEX), "blocked_futex_count"),
    ((StateKind.BLOCKED, BlockReason.TASK), "blocked_task_count"),
    ((StateKind.INTERRUPTED, None), "interrupted_count"),
    ((StateKind.BLOCKED, BlockReason.TIMER), "blocked_timer_count"),
)}


def extract_features(db: StateDatabase, span: ExecutionSpan) -> FeatureVector:
    """Counts and clipped durations of the waiting states inside a span."""
    tid, t_a, t_b = span.root_tid, span.t_start, span.t_end
    waits = [0] * (2 * len(_WAIT_FEATURES))
    for start, end, st in zip(*db.range_columns(thread_state_key(tid), t_a, t_b)):
        at = _WAIT_FEATURES.get((st.kind, st.reason))
        if at is not None and end > start:
            waits[at] += 1
            waits[at + 1] += end - start
    waits[1::2] = [ns / 1000 for ns in waits[1::2]]
    return FeatureVector(*waits, *[db.counter_delta(tid, counter, t_a, t_b)
                                   for counter in COUNTERS], span.duration_ns / 1000)


# -- k-means ------------------------------------------------------------------

def normalize_features(points: Sequence[Sequence[float]]) -> list[list[float]]:
    """Per-dimension min-max scaling; constant dimensions collapse to 0."""
    if not points:
        return []
    dims = len(points[0])
    lo = [min(p[d] for p in points) for d in range(dims)]
    hi = [max(p[d] for p in points) for d in range(dims)]
    out = []
    for p in points:
        out.append([(p[d] - lo[d]) / (hi[d] - lo[d]) if hi[d] > lo[d] else 0.0
                    for d in range(dims)])
    return out


# math.fsum rounds once, so float sums are the same on every Python version
def _sqdist(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum((x - y) ** 2 for x, y in zip(a, b))


def _nearest(point: Sequence[float], centroids: Sequence[Sequence[float]]) -> int:
    best, best_d = 0, _sqdist(point, centroids[0])
    for i in range(1, len(centroids)):
        d = _sqdist(point, centroids[i])
        if d < best_d:
            best, best_d = i, d
    return best


def _seed_centroids(points: Sequence[Sequence[float]], k: int,
                    rng: random.Random) -> list[list[float]]:
    # farthest-point seeding: random first pick, then argmax of the minimum
    # distance to the chosen set (ties -> lowest index).
    centroids = [list(points[rng.randrange(len(points))])]
    while len(centroids) < k:
        best_i, best_d = 0, -1.0
        for i, p in enumerate(points):
            d = min(_sqdist(p, c) for c in centroids)
            if d > best_d:
                best_i, best_d = i, d
        centroids.append(list(points[best_i]))
    return centroids


def kmeans(points: Sequence[Sequence[float]], k: int, seed: int,
           max_iter: int = 100) -> tuple[list[int], list[list[float]], int]:
    """Lloyd iteration with seeded farthest-point init.

    Returns (assignments, centroids, iterations).  Deterministic for a
    fixed seed; empty clusters are repaired by donating the point farthest
    from its own centroid.  Raises TooFewSpans when len(points) < k.
    """
    n = len(points)
    if n < k:
        raise TooFewSpans(f"{n} points for k={k}")
    if k < 1:
        raise ValueError("k must be >= 1")
    centroids = _seed_centroids(points, k, rng=random.Random(seed))
    # each assignment seen, with the centroids computed from it
    seen: dict[tuple[int, ...], list[list[float]]] = {}
    assign: list[int] = []
    for it in range(1, max_iter + 1):
        assign = [_nearest(p, centroids) for p in points]
        sizes = [assign.count(c) for c in range(k)]
        for c in range(k):
            if sizes[c] > 0:
                continue
            best_i, best_d = -1, -1.0
            for i, p in enumerate(points):
                if sizes[assign[i]] <= 1:
                    continue
                d = _sqdist(p, centroids[assign[i]])
                if d > best_d:
                    best_i, best_d = i, d
            sizes[assign[best_i]] -= 1
            assign[best_i] = c
            sizes[c] = 1
        # a repeat ends the run: the previous assignment is a fixed point,
        # an earlier one a cycle that empty-cluster repairs of tied points
        # would otherwise follow until max_iter
        key = tuple(assign)
        if key in seen:
            return assign, seen[key], it
        dims = len(points[0]) if points else 0
        centroids = []
        for c in range(k):
            members = [points[i] for i in range(n) if assign[i] == c]
            centroids.append([math.fsum(m[d] for m in members) / len(members)
                              for d in range(dims)])
        seen[key] = centroids
    return assign, centroids, max_iter


@dataclass
class Clustering:
    k: int
    seed: int
    assignments: dict[str, int]
    centroids: list[list[float]]
    feature_names: list[str] = field(default_factory=lambda: list(FEATURE_NAMES))


def cluster_spans(features: Mapping[str, FeatureVector], k: int,
                  seed: int) -> Clustering:
    """Min-max normalize the span features and group them with k-means."""
    if k < 2:
        raise InvalidParameter("k must be >= 2")
    span_ids = sorted(features)
    raw = [features[s].as_list() for s in span_ids]
    norm = normalize_features(raw)
    assign, centroids, _ = kmeans(norm, k, seed)
    return Clustering(k=k, seed=seed,
                      assignments=dict(zip(span_ids, assign)),
                      centroids=centroids)


def clustering_report_dict(clustering: Clustering,
                           features: Mapping[str, FeatureVector]) -> dict:
    spans = [{"span_id": sid, "cluster": cl, "vector": features[sid].as_list()}
             for sid, cl in sorted(clustering.assignments.items())]
    return {"k": clustering.k, "seed": clustering.seed,
            "features": clustering.feature_names, "spans": spans,
            "centroids": clustering.centroids}


def read_clustering_report(path: str) -> dict[int, list[str]]:
    """Span ids per cluster id from a report of clustering_report_dict.
    Raises InvalidParameter when the file is not JSON, lacks the ``spans``
    list of {"span_id": str, "cluster": int} records, or lists a span id
    twice, in one cluster or across clusters."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        raise InvalidParameter(f"{path}: not a JSON cluster report: {exc}") from exc
    spans = report.get("spans") if isinstance(report, dict) else None
    if not isinstance(spans, list):
        raise InvalidParameter(f"{path}: cluster report has no 'spans' list")
    by_cluster: dict[int, list[str]] = {}
    seen: set[str] = set()
    for i, rec in enumerate(spans):
        if not isinstance(rec, dict) or type(rec.get("cluster")) is not int \
                or not isinstance(rec.get("span_id"), str):
            raise InvalidParameter(
                f"{path}: spans[{i}] needs an integer 'cluster' and a string 'span_id'")
        span_id = rec["span_id"]
        if span_id in seen:
            raise InvalidParameter(f"{path}: spans[{i}] lists span {span_id!r} again")
        seen.add(span_id)
        by_cluster.setdefault(rec["cluster"], []).append(span_id)
    return by_cluster


# -- representative graphs ----------------------------------------------------

@dataclass
class RepNode:
    node_id: NodeId
    mean_total_ns: float


@dataclass
class RepEdge:
    src: NodeId
    dst: NodeId
    mean_weight_ns: float
    std_weight_ns: float
    mean_count: float
    std_count: float
    present_in: int


@dataclass
class RepresentativeGraph:
    root_id: NodeId
    n_graphs: int
    nodes: dict[NodeId, RepNode]
    edges: dict[tuple[NodeId, NodeId], RepEdge]


def _mean_pstd(values: Sequence[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def representative(graphs: Sequence[DepGraph]) -> RepresentativeGraph:
    """Merge one cluster's canonicalized graphs into a single model.

    Per-edge mean and population standard deviation are computed over all
    member graphs, an absent edge contributing 0.
    """
    if not graphs:
        raise EmptyCluster("representative of zero graphs")
    root = graphs[0].root_id
    for g in graphs[1:]:
        if g.root_id != root:
            raise RootConflict(
                f"cluster mixes roots {root} and {g.root_id}")
    n = len(graphs)
    # node and edge keys in first-seen order
    nodes = {nid: RepNode(nid, sum(g.nodes[nid].total_ns for g in graphs
                                   if nid in g.nodes) / n)
             for nid in dict.fromkeys(nid for g in graphs for nid in g.nodes)}
    edges: dict[tuple[NodeId, NodeId], RepEdge] = {}
    for key in dict.fromkeys(key for g in graphs for key in g.edges):
        weights = [float(g.edges[key].weight_ns) if key in g.edges else 0.0
                   for g in graphs]
        counts = [float(g.edges[key].count) if key in g.edges else 0.0
                  for g in graphs]
        mw, sw = _mean_pstd(weights)
        mc, sc = _mean_pstd(counts)
        edges[key] = RepEdge(key[0], key[1], mw, sw, mc, sc,
                             present_in=sum(1 for g in graphs if key in g.edges))
    return RepresentativeGraph(root_id=root, n_graphs=n, nodes=nodes, edges=edges)


# -- comparison ----------------------------------------------------------------

# the per-edge statistics compare can weigh, its default first
STATS = ("count", "duration")


class EdgeStyle(str, Enum):
    DASHED = "dashed"   # left only
    DOTTED = "dotted"   # right only
    SOLID = "solid"     # both


def boldness_for(z: float) -> int:
    az = abs(z)
    if az < 0.5:
        return 1
    if az < 1:
        return 2
    if az < 2:
        return 3
    if az < 3:
        return 4
    return 5


@dataclass
class ComparisonEdge:
    src: NodeId
    dst: NodeId
    style: EdgeStyle
    boldness: int | None
    left_mean: float
    left_std: float
    right_mean: float
    z: float | None


@dataclass
class ComparisonNode:
    node_id: NodeId
    presence: str  # "left" | "right" | "both"
    boldness: int


@dataclass
class ComparisonGraph:
    nodes: dict[NodeId, ComparisonNode]
    edges: dict[tuple[NodeId, NodeId], ComparisonEdge]
    stat: str


def compare(left: RepresentativeGraph, right: RepresentativeGraph,
            stat: str = STATS[0]) -> ComparisonGraph:
    """Diff two representatives edge-wise.

    stat selects which per-edge statistic drives the boldness: episode
    counts (default) or waited durations.  z = (mean_right - mean_left) /
    std_left; a zero-variance baseline maps to boldness 1 when the means
    agree and 5 otherwise.
    """
    if stat not in STATS:
        raise ValueError(f"unknown stat {stat!r}")

    def stats_of(rep: RepresentativeGraph, key) -> tuple[float, float]:
        e = rep.edges[key]
        if stat == "count":
            return e.mean_count, e.std_count
        return e.mean_weight_ns, e.std_weight_ns

    edges: dict[tuple[NodeId, NodeId], ComparisonEdge] = {}
    for key in dict.fromkeys([*left.edges, *right.edges]):
        in_l, in_r = key in left.edges, key in right.edges
        if in_l and in_r:
            ml, sl = stats_of(left, key)
            mr, _ = stats_of(right, key)
            if sl == 0:
                z = 0.0 if mr == ml else math.inf
            else:
                z = (mr - ml) / sl
            edges[key] = ComparisonEdge(key[0], key[1], EdgeStyle.SOLID,
                                        boldness_for(z), ml, sl, mr,
                                        z if math.isfinite(z) else None)
        elif in_l:
            ml, sl = stats_of(left, key)
            edges[key] = ComparisonEdge(key[0], key[1], EdgeStyle.DASHED,
                                        None, ml, sl, 0.0, None)
        else:
            mr, _ = stats_of(right, key)
            edges[key] = ComparisonEdge(key[0], key[1], EdgeStyle.DOTTED,
                                        None, 0.0, 0.0, mr, None)
    nodes: dict[NodeId, ComparisonNode] = {}
    for nid in dict.fromkeys([*left.nodes, *right.nodes]):
        in_l, in_r = nid in left.nodes, nid in right.nodes
        nodes[nid] = ComparisonNode(nid, "both" if in_l and in_r else
                                    "left" if in_l else "right", 1)
    for edge in edges.values():
        if edge.boldness is None:
            continue
        for nid in (edge.src, edge.dst):
            node = nodes[nid]
            node.boldness = max(node.boldness, edge.boldness)
    return ComparisonGraph(nodes=nodes, edges=edges, stat=stat)


_NODE_STYLE = {"left": "dashed", "right": "dotted", "both": "solid"}


def comparison_to_dot(cg: ComparisonGraph) -> str:
    """DOT rendering: dashed/dotted/solid edge styles, penwidth = boldness."""
    lines = ["digraph comparison {", "  rankdir=TB;"]
    for nid in sorted(cg.nodes, key=node_id_str):
        node = cg.nodes[nid]
        lines.append(
            f"  {_quote(node_id_str(nid))} [shape={_DOT_SHAPES[node_kind(nid)]}, "
            f"style={_NODE_STYLE[node.presence]}, "
            f"label={_quote(node_label(nid))}];")
    for key in _edge_order(cg.edges):
        edge = cg.edges[key]
        pen = edge.boldness if edge.boldness is not None else 1
        lines.append(
            f"  {_quote(node_id_str(edge.src))} -> {_quote(node_id_str(edge.dst))} "
            f"[style={edge.style.value}, penwidth={pen}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def comparison_to_json_dict(cg: ComparisonGraph) -> dict:
    nodes = [{"id": node_id_str(nid), "kind": node_kind(nid).value,
              "label": node_label(nid), "presence": n.presence, "boldness": n.boldness}
             for nid, n in sorted(cg.nodes.items(), key=lambda kv: node_id_str(kv[0]))]
    edges = []
    for key in _edge_order(cg.edges):
        e = cg.edges[key]
        edges.append({"src": node_id_str(e.src), "dst": node_id_str(e.dst),
                      "style": e.style.value, "boldness": e.boldness,
                      "left_mean": e.left_mean, "left_std": e.left_std,
                      "right_mean": e.right_mean, "z": e.z})
    return {"stat": cg.stat, "nodes": nodes, "edges": edges}
