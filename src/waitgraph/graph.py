"""Waiting-dependency graph construction and export.

An edge src -> dst means "src waited on dst", weighted by the waited
nanoseconds and counting the contributing episodes.  The walk over the root
thread's execution states handles three waiting shapes:

  blocked on another thread   root -> [active syscall ->] waker thread,
                              then the waker's own graph over the blocked
                              interval is merged in;
  blocked on disk             root -> [syscall ->] DISK -> each thread whose
                              I/O the disk served during the wait, weighted
                              by service overlap;
  runnable (waiting for CPU)  root -> [syscall ->] CPU -> each thread that
                              occupied the last CPU this thread ran on.

Node identities inside one build: threads are (tid, comm), syscall nodes
belong to the waiting thread's context as (tid, name), and CPU/DISK are
per-graph singletons.  ``canonicalize`` re-keys threads by comm and
syscalls by name so graphs from different executions can be merged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import InvalidParameter
from .events import ExecutionSpan
from .states import (
    HANDOFF_REASONS,
    BlockReason,
    StateDatabase,
    StateKind,
    cpu_current_key,
    thread_cpu_key,
    thread_state_key,
    thread_syscall_key,
)

NodeId = tuple


def thread_node_id(tid: int, comm: str) -> NodeId:
    return ("thread", tid, comm)


def syscall_node_id(owner_tid: int, name: str) -> NodeId:
    return ("syscall", owner_tid, name)


def resource_node_id(label: str) -> NodeId:
    return ("resource", label)


CPU_NODE = resource_node_id("CPU")
DISK_NODE = resource_node_id("DISK")
_NO_DEVICES: frozenset[str] = frozenset()
# how many threads deep a wait chain is followed by default
MAX_DEPTH = 16
# the walk's per-interval tests, read as globals: an Enum member read
# through its class costs about 0.2 µs
_RUNNING, _RUNNABLE, _INTERRUPTED = (StateKind.RUNNING, StateKind.RUNNABLE,
                                     StateKind.INTERRUPTED)


def node_label(node_id: NodeId) -> str:
    kind = node_id[0]
    if kind == "thread":
        return f"{node_id[2]}-{node_id[1]}" if len(node_id) == 3 else node_id[1]
    if kind == "syscall":
        return node_id[2] if len(node_id) == 3 else node_id[1]
    return node_id[1]


@dataclass
class DepNode:
    node_id: NodeId
    total_ns: int = 0

    @property
    def label(self) -> str:
        return node_label(self.node_id)

    @property
    def total_us(self) -> int:
        return round(self.total_ns / 1000)


@dataclass
class DepEdge:
    src: NodeId
    dst: NodeId
    weight_ns: int
    count: int = 1
    devices: frozenset[str] = frozenset()

    @property
    def weight_us(self) -> int:
        return round(self.weight_ns / 1000)


@dataclass
class DepGraph:
    root_id: NodeId
    nodes: dict[NodeId, DepNode] = field(default_factory=dict)
    edges: dict[tuple[NodeId, NodeId], DepEdge] = field(default_factory=dict)
    span: ExecutionSpan | None = None
    cycle_detected: bool = False
    depth_truncated: bool = False

    @property
    def root(self) -> DepNode:
        return self.nodes[self.root_id]


def _device_label(key: str) -> str:
    """The device an occupancy key names: disk/sda/... -> sda, cpu/1/... -> cpu1."""
    family, dev, _ = key.split("/")
    return dev if family == "disk" else f"cpu{dev}"


def _merged_span_total(rows: list[tuple[int, int, str]]) -> int:
    """Total covered nanoseconds of (start, end, key) rows sorted by start,
    overlaps merged (a thread served on two devices at once must not count
    twice)."""
    total = 0
    cur_s = cur_e = None
    for start, end, _ in rows:
        if cur_e is None:
            cur_s, cur_e = start, end
        elif start <= cur_e:
            cur_e = max(cur_e, end)
        else:
            total += cur_e - cur_s
            cur_s, cur_e = start, end
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def ensure_node(graph: DepGraph, node_id: NodeId) -> DepNode:
    node = graph.nodes.get(node_id)
    if node is None:
        node = DepNode(node_id)
        graph.nodes[node_id] = node
    return node


def _fold_edge(edges: dict, src: NodeId, dst: NodeId, weight: int,
               count: int, devices: frozenset[str]) -> None:
    key = (src, dst)
    cur = edges.get(key)
    if cur is None:
        edges[key] = DepEdge(src, dst, weight, count, devices)
    else:
        cur.weight_ns += weight
        cur.count += count
        if devices:
            cur.devices = cur.devices | devices


def add_edge(graph: DepGraph, src: NodeId, dst: NodeId, weight_ns: int,
             count: int = 1, devices: frozenset[str] = _NO_DEVICES) -> None:
    """Insert an edge, summing weight and count with an existing (src, dst).

    Resource destinations accumulate incoming weight as their node total.
    """
    ensure_node(graph, src)
    node = ensure_node(graph, dst)
    _fold_edge(graph.edges, src, dst, weight_ns, count, devices)
    if dst[0] == "resource":
        node.total_ns += weight_ns


class _GraphBuilder:
    """Recursive walk over execution states, accumulating into one graph.

    Merging a freshly built sub-graph is edge-wise identical to adding its
    edges one by one, so the walk threads a single accumulator through the
    recursion instead of materializing throwaway graphs.  The walk reads
    the database through four names only: the clipped state, syscall and
    occupancy columns of ``range_columns``, ``last_value_before`` for the
    CPU a runnable thread last ran on, ``comm`` and ``disk_keys``.  It folds
    each edge from those columns, so it builds no StateValue and no
    throwaway DepEdge; a walk over a thread that never waits creates nothing.
    """

    def __init__(self, db: StateDatabase, max_depth: int):
        self.db = db
        self.max_depth = max_depth
        self.graph: DepGraph | None = None
        self.visited: set[tuple[int, int, int]] = set()
        self.stack_tids: list[int] = []

    def build(self, root_tid: int, ts_s: int, ts_e: int) -> DepGraph:
        self.graph = DepGraph(self._thread_id(root_tid))
        # the root enters one level above depth 0, so its walk runs at depth 0
        self._recurse(root_tid, ts_s, ts_e, -1)
        return self.graph

    def _thread_id(self, tid: int) -> NodeId:
        return thread_node_id(tid, self.db.comm(tid))

    def _recurse(self, tid: int, ws: int, we: int, depth: int) -> None:
        if we <= ws:
            return
        if tid in self.stack_tids:
            self.graph.cycle_detected = True
            return
        key = (tid, ws, we)
        if key in self.visited:
            return
        if depth + 1 > self.max_depth:
            self.graph.depth_truncated = True
            return
        self.visited.add(key)
        self.stack_tids.append(tid)
        ensure_node(self.graph, self._thread_id(tid)).total_ns += we - ws
        self._walk(tid, ws, we, depth + 1)
        self.stack_tids.pop()

    def _blame(self, resource: NodeId, tid: int, keys: list[str],
               t_a: int, t_b: int, depth: int) -> None:
        """resource -> every other thread that held one of the occupancy keys
        during [t_a, t_b), weighted by merged occupancy; each holder's graph
        over its occupancy window follows."""
        usage: dict[int, list[tuple[int, int, str]]] = {}
        for key in keys:
            starts, ends, holders = self.db.range_columns(key, t_a, t_b)
            for start, end, holder in zip(starts, ends, holders):
                if holder != tid:
                    usage.setdefault(holder, []).append((start, end, key))
        for utid in sorted(usage):
            rows = usage[utid]
            # by start only: rows of equal start keep their key order
            rows.sort(key=itemgetter(0))
            overlap = _merged_span_total(rows)
            if overlap <= 0:
                continue
            devs = frozenset(map(_device_label, {key for _, _, key in rows}))
            add_edge(self.graph, resource, self._thread_id(utid), overlap, 1, devs)
            self._recurse(utid, rows[0][0], rows[-1][1], depth)

    def _walk(self, tid: int, ts_s: int, ts_e: int, depth: int) -> None:
        graph, db = self.graph, self.db
        starts, ends, states = db.range_columns(thread_state_key(tid), ts_s, ts_e)
        me = None
        for start, end, st in zip(starts, ends, states):
            kind = st.kind
            if end <= start or kind is _RUNNING or kind is _INTERRUPTED:
                continue
            if me is None:
                me, syscalls_seen = self._thread_id(tid), set()
                sys_starts, sys_ends, sys_names = db.range_columns(
                    thread_syscall_key(tid), ts_s, ts_e)
            dur = end - start
            if kind is _RUNNABLE:
                target = CPU_NODE
            elif st.reason in HANDOFF_REASONS and st.waker_tid is not None:
                target = self._thread_id(st.waker_tid)
            elif st.reason is BlockReason.DISK:
                target = DISK_NODE
            else:
                # other blocked reasons (timer/network/unknown) name no
                # culprit thread or tracked resource: no edges.
                continue
            # me -> [active syscall ->] target, both edges weighted dur; the
            # syscall row holding start, if any, lies in the walked window
            i = bisect_right(sys_starts, start) - 1
            if i < 0 or sys_ends[i] <= start:
                add_edge(graph, me, target, dur)
            else:
                ctx = sys_names[i]
                sid = syscall_node_id(tid, ctx)
                if ctx not in syscalls_seen:
                    syscalls_seen.add(ctx)
                    ensure_node(graph, sid).total_ns += sum(
                        e - s for s, e, name in zip(sys_starts, sys_ends, sys_names)
                        if name == ctx)
                add_edge(graph, me, sid, dur)
                add_edge(graph, sid, target, dur)
            # then the graphs of whatever held the target during the wait
            if target is CPU_NODE:
                cpu = db.last_value_before(thread_cpu_key(tid), start)
                if cpu is not None:
                    self._blame(CPU_NODE, tid, [cpu_current_key(cpu)], start, end,
                                depth)
            elif target is DISK_NODE:
                self._blame(DISK_NODE, tid, db.disk_keys, start, end, depth)
            else:
                self._recurse(st.waker_tid, start, end, depth)


def build_depgraph(db: StateDatabase, root_tid: int, ts_s: int, ts_e: int,
                   max_depth: int = MAX_DEPTH) -> DepGraph:
    """Build the waiting-dependency graph of one thread over [ts_s, ts_e).

    A root thread absent from the range yields a graph with the root node
    only.  Recursion is guarded by a per-build visited set and a depth cap;
    mutual waits set cycle_detected instead of recursing forever.  Raises
    InvalidParameter for a negative max_depth, or for one so large that a
    wait chain reaching it overflows the interpreter's recursion limit.
    """
    if ts_s >= ts_e:
        raise ValueError("build_depgraph: ts_s must be < ts_e")
    if max_depth < 0:
        raise InvalidParameter(f"max_depth must be >= 0, got {max_depth}")
    try:
        return _GraphBuilder(db, max_depth).build(root_tid, ts_s, ts_e)
    except RecursionError as exc:
        raise InvalidParameter(f"max_depth {max_depth} lets the wait chain "
                               "recurse past Python's limit; lower it") from exc


def build_span_graph(db: StateDatabase, span: ExecutionSpan,
                     max_depth: int = MAX_DEPTH) -> DepGraph:
    g = build_depgraph(db, span.root_tid, span.t_start, span.t_end, max_depth)
    g.span = span
    return g


# -- cross-execution canonicalization ---------------------------------------

def canonicalize(graph: DepGraph) -> DepGraph:
    """Re-key nodes with execution-independent identities.

    Thread nodes become ("thread", comm) with the root first and remaining
    same-comm threads disambiguated as comm#2, comm#3 in ascending tid
    order; syscall nodes become ("syscall", name); resources are unchanged.
    Collapsed identities merge their totals and edges.
    """
    mapping: dict[NodeId, NodeId] = {}
    taken: dict[str, int] = {}
    thread_ids = [nid for nid in graph.nodes if nid[0] == "thread"]
    thread_ids.sort(key=lambda nid: (nid != graph.root_id, nid[1]))
    for nid in thread_ids:
        comm = nid[2]
        n = taken.get(comm, 0) + 1
        taken[comm] = n
        name = comm if n == 1 else f"{comm}#{n}"
        mapping[nid] = ("thread", name)
    for nid in graph.nodes:
        if nid[0] == "syscall":
            mapping[nid] = ("syscall", nid[2])
        elif nid[0] == "resource":
            mapping[nid] = nid
    out = DepGraph(root_id=mapping[graph.root_id], span=graph.span,
                   cycle_detected=graph.cycle_detected,
                   depth_truncated=graph.depth_truncated)
    for nid, node in graph.nodes.items():
        target = ensure_node(out, mapping[nid])
        target.total_ns += node.total_ns
    # resource totals travel with the nodes, so edges fold without them
    for edge in graph.edges.values():
        _fold_edge(out.edges, mapping[edge.src], mapping[edge.dst],
                   edge.weight_ns, edge.count, edge.devices)
    return out


# -- export ------------------------------------------------------------------

# a node id's tag -> its DOT shape
_DOT_SHAPES = {"thread": "box", "syscall": "ellipse", "resource": "diamond"}


def node_id_str(node_id: NodeId) -> str:
    return ":".join(str(p) for p in node_id)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_order(edges: dict) -> list:
    """An edge map's (src, dst) keys in render order, by their string ids."""
    return sorted(edges, key=lambda k: (node_id_str(k[0]), node_id_str(k[1])))


def to_dot(graph: DepGraph, percentages: bool = True,
           min_edge_us: int = 0) -> str:
    """Render a deterministic DOT digraph.

    Node labels carry the total microseconds; edge labels carry the waited
    microseconds and, when enabled, the share of the source node's total.
    min_edge_us hides (display only) edges below the threshold; it raises
    InvalidParameter when negative.
    """
    if min_edge_us < 0:
        raise InvalidParameter(f"min_edge_us must be >= 0, got {min_edge_us}")
    lines = ["digraph waits {", "  rankdir=TB;"]
    for node_id in sorted(graph.nodes, key=node_id_str):
        node = graph.nodes[node_id]
        label = f"{node_label(node_id)} ({node.total_us} µs)"
        shape = _DOT_SHAPES[node_id[0]]
        extra = ", penwidth=2" if node_id == graph.root_id else ""
        lines.append(f"  {_quote(node_id_str(node_id))} "
                     f"[shape={shape}, label={_quote(label)}{extra}];")
    for key in _edge_order(graph.edges):
        edge = graph.edges[key]
        if edge.weight_us < min_edge_us:
            continue
        label = f"{edge.weight_us} µs"
        if percentages:
            src_total = graph.nodes[edge.src].total_ns
            if src_total > 0:
                label += f" ({round(100 * edge.weight_ns / src_total)}%)"
        lines.append(f"  {_quote(node_id_str(edge.src))} -> "
                     f"{_quote(node_id_str(edge.dst))} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(graph: DepGraph) -> dict:
    """JSON-ready dump: {nodes: [...], edges: [...]} plus span metadata."""
    nodes = []
    for node_id in sorted(graph.nodes, key=node_id_str):
        node = graph.nodes[node_id]
        nodes.append({"id": node_id_str(node_id), "kind": node_id[0],
                      "label": node_label(node_id), "total_us": node.total_ns / 1000})
    edges = []
    for key in _edge_order(graph.edges):
        edge = graph.edges[key]
        rec = {"src": node_id_str(edge.src), "dst": node_id_str(edge.dst),
               "weight_us": edge.weight_ns / 1000, "count": edge.count}
        if edge.devices:
            rec["devices"] = sorted(edge.devices)
        edges.append(rec)
    out = {"root": node_id_str(graph.root_id), "nodes": nodes, "edges": edges,
           "cycle_detected": graph.cycle_detected,
           "depth_truncated": graph.depth_truncated}
    if graph.span is not None:
        out["span_id"] = graph.span.span_id
        out["range_ns"] = [graph.span.t_start, graph.span.t_end]
    return out
