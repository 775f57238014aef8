from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waitgraph.analysis import extract_features
from waitgraph.events import (
    EventKind,
    ExecutionSpan,
    TraceEvent,
    extract_spans,
    json_text,
)
from waitgraph.graph import (
    CPU_NODE,
    DISK_NODE,
    DepGraph,
    add_edge,
    build_depgraph,
    build_span_graph,
    canonicalize,
    ensure_node,
    thread_node_id,
    to_dot,
    to_json_dict,
)
from waitgraph.states import BlockReason, StateKind, build_state_db, thread_state_key
from waitgraph.synth import ScenarioSpec, generate
from conftest import slow_ids
from oracles import brute_force_edge_weights
from randtrace import random_trace


def ev(ts, cpu, tid, kind, **payload):
    return TraceEvent(ts, cpu, tid, f"w{tid}", kind, payload)


def switch(ts, prev, nxt, cpu=0, prev_state="runnable"):
    return ev(ts, cpu, prev, EventKind.SCHED_SWITCH,
              prev_tid=prev, prev_state=prev_state, next_tid=nxt)


def edge_weights(g: DepGraph) -> dict:
    return {k: e.weight_ns for k, e in g.edges.items()}


def edge_stats(g: DepGraph) -> dict:
    return {k: (e.weight_ns, e.count) for k, e in g.edges.items()}


# -- trivial shapes -----------------------------------------------------------


def test_fully_running_thread_gives_single_node():
    events = [
        switch(0, 9, 11),
        ev(10, 0, 11, EventKind.SPAN_BEGIN, span_id="s"),
        ev(510, 0, 11, EventKind.SPAN_END, span_id="s"),
        switch(520, 11, 9, prev_state="blocked"),
    ]
    db = build_state_db(events)
    g = build_depgraph(db, 11, 10, 510)
    assert len(g.nodes) == 1 and not g.edges
    assert g.root.total_ns == 500


def test_root_absent_from_range_gives_root_only():
    db = build_state_db([switch(0, 9, 11)])
    g = build_depgraph(db, 777, 100, 200)
    assert list(g.nodes) == [("thread", 777, "tid777")]
    assert not g.edges and g.root.total_ns == 100


# -- add_edge ------------------------------------------------------------------


def _empty(root=("thread", 1, "a")) -> DepGraph:
    g = DepGraph(root_id=root)
    ensure_node(g, root)
    return g


def test_add_same_edge_twice_sums_weight_and_count():
    g = _empty()
    a, b = thread_node_id(1, "a"), thread_node_id(2, "b")
    add_edge(g, a, b, 10_000)
    add_edge(g, a, b, 10_000)
    e = g.edges[(a, b)]
    assert e.weight_ns == 20_000 and e.count == 2


def test_add_into_empty_graph_creates_nodes():
    g = DepGraph(root_id=("thread", 1, "a"))
    add_edge(g, ("thread", 1, "a"), ("thread", 2, "b"), 5)
    assert len(g.nodes) == 2 and len(g.edges) == 1


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(1, 10_000)), max_size=60))
@settings(max_examples=60, deadline=None)
def test_add_edge_matches_multimap_sum(edges):
    g = _empty(("thread", 0, "w0"))
    oracle: dict[tuple, list[int]] = {}
    for s, d, w in edges:
        if s == d:
            continue
        src, dst = thread_node_id(s, f"w{s}"), thread_node_id(d, f"w{d}")
        add_edge(g, src, dst, w)
        oracle.setdefault((src, dst), []).append(w)
    assert edge_stats(g) == {k: (sum(v), len(v)) for k, v in oracle.items()}


# -- scenario structure ----------------------------------------------------------


def _slow_graph(fixture):
    ids = slow_ids(fixture["gt"])
    span = next(s for s in fixture["spans"] if s.span_id in ids)
    return build_span_graph(fixture["db"], span), span


def test_lock_slow_graph_attribution(lock_fixture):
    g, span = _slow_graph(lock_fixture)
    cg = canonicalize(g)
    root_total = cg.nodes[cg.root_id].total_ns
    assert root_total == span.duration_ns
    fcntl = ("syscall", "fcntl")
    assert fcntl in cg.nodes
    # the edge into the syscall node carries ~91% of the root time
    into = cg.edges[(cg.root_id, fcntl)]
    assert 0.88 <= into.weight_ns / root_total <= 0.94
    # ~82% of the syscall time fans out to peer threads
    task_out = sum(e.weight_ns for (s, d), e in cg.edges.items()
                   if s == fcntl and d[0] == "thread")
    assert 0.79 <= task_out / cg.nodes[fcntl].total_ns <= 0.85
    # waiting never exceeds elapsed time
    out = sum(e.weight_ns for (s, _), e in cg.edges.items() if s == cg.root_id)
    assert out <= span.duration_ns


def test_lock_fast_graph_is_contention_free(lock_fixture):
    ids = slow_ids(lock_fixture["gt"])
    span = next(s for s in lock_fixture["spans"] if s.span_id not in ids)
    g = build_span_graph(lock_fixture["db"], span)
    assert len(g.nodes) == 1 and not g.edges


def test_cpu_slow_graph_has_cpu_path(cpu_fixture):
    g, _ = _slow_graph(cpu_fixture)
    cg = canonicalize(g)
    root, cpu = cg.root_id, ("resource", "CPU")
    irq = ("thread", "irq/154-hpd")
    assert (root, cpu) in cg.edges and (cpu, irq) in cg.edges
    # the irq thread occupies effectively the whole runnable wait
    assert cg.edges[(cpu, irq)].weight_ns >= 0.95 * cg.edges[(root, cpu)].weight_ns


def test_disk_slow_graph_has_disk_path(disk_fixture):
    g, _ = _slow_graph(disk_fixture)
    cg = canonicalize(g)
    newfstat, disk = ("syscall", "newfstat"), ("resource", "DISK")
    grep = ("thread", "grep")
    assert (cg.root_id, newfstat) in cg.edges
    assert (newfstat, disk) in cg.edges
    assert (disk, grep) in cg.edges
    share = cg.edges[(disk, grep)].weight_ns / cg.nodes[newfstat].total_ns
    assert 0.40 <= share <= 0.46
    contenders = [d for (s, d) in cg.edges if s == disk]
    assert len(contenders) >= 3
    # fan-out weights never exceed the wait interval they explain
    wait = cg.edges[(newfstat, disk)].weight_ns
    assert all(cg.edges[(disk, d)].weight_ns <= wait for d in contenders)


def test_disk_slow_graph_edge_names_its_device(disk_fixture):
    cg = canonicalize(_slow_graph(disk_fixture)[0])
    edge = cg.edges[(("resource", "DISK"), ("thread", "grep"))]
    assert edge.devices == frozenset({"sda"})


def test_cpu_slow_graph_edge_names_its_cpu(cpu_fixture):
    cg = canonicalize(_slow_graph(cpu_fixture)[0])
    edge = cg.edges[(("resource", "CPU"), ("thread", "irq/154-hpd"))]
    assert edge.devices == frozenset({"cpu1"})


def test_disk_wait_served_on_two_devices_merges_overlap():
    A, B, IDLE = 11, 22, 97
    events = [
        switch(0, 98, A, cpu=0),
        switch(0, 99, B, cpu=1),
        switch(10, A, IDLE, cpu=0, prev_state="blocked"),
        # B is served on sdb over [15, 50) and on sda over [30, 70), [75, 85)
        ev(15, 1, B, EventKind.BLOCK_RQ_ISSUE, dev="sdb"),
        ev(30, 1, B, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(50, 1, B, EventKind.BLOCK_RQ_COMPLETE, dev="sdb"),
        ev(70, 1, B, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        ev(75, 1, B, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(85, 1, B, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        ev(88, 0, IDLE, EventKind.SOFTIRQ_ENTRY, vec=4),
        ev(90, 0, IDLE, EventKind.SCHED_WAKEUP, waker_tid=IDLE, wakee_tid=A,
           waker_context="softirq"),
        ev(90, 0, IDLE, EventKind.SOFTIRQ_EXIT, vec=4),
        switch(95, IDLE, A, cpu=0),
    ]
    g = build_depgraph(build_state_db(events), A, 0, 95)
    disk = ("resource", "DISK")
    assert g.edges[(thread_node_id(A, f"w{A}"), disk)].weight_ns == 80
    edge = g.edges[(disk, thread_node_id(B, f"w{B}"))]
    assert edge.devices == frozenset({"sda", "sdb"})
    # [15, 70) and [75, 85) merged: the sda/sdb overlap counts once
    assert edge.weight_ns == 65


def test_scenario_graphs_are_acyclic(lock_fixture, cpu_fixture, disk_fixture):
    for fixture in (lock_fixture, cpu_fixture, disk_fixture):
        for span in fixture["spans"]:
            g = build_span_graph(fixture["db"], span)
            assert not g.cycle_detected
            # Kahn toposort must consume every node
            indeg = {n: 0 for n in g.nodes}
            for (_, d) in g.edges:
                indeg[d] += 1
            queue = [n for n, k in indeg.items() if k == 0]
            seen = 0
            while queue:
                n = queue.pop()
                seen += 1
                for (s, d) in g.edges:
                    if s == n:
                        indeg[d] -= 1
                        if indeg[d] == 0:
                            queue.append(d)
            assert seen == len(g.nodes)


def test_mutual_wait_sets_cycle_flag():
    A, B, C, D, E = 11, 22, 33, 44, 55
    events = [
        switch(0, 98, A, cpu=0),
        switch(5, 99, B, cpu=1),
        switch(10, A, C, cpu=0, prev_state="blocked"),
        switch(12, B, D, cpu=1, prev_state="blocked"),
        # B's wait is attributed to A while A itself is blocked on B
        ev(40, 0, C, EventKind.SCHED_WAKEUP, waker_tid=A, wakee_tid=B,
           waker_context="task"),
        switch(45, C, B, cpu=0, prev_state="runnable"),
        ev(50, 0, B, EventKind.SCHED_WAKEUP, waker_tid=B, wakee_tid=A,
           waker_context="task"),
        switch(55, B, A, cpu=0, prev_state="runnable"),
        switch(90, A, E, cpu=0, prev_state="runnable"),
    ]
    db = build_state_db(events)
    g = build_depgraph(db, A, 0, 90)
    assert g.cycle_detected


# -- determinism and oracle ------------------------------------------------------


def test_identical_inputs_build_identical_dot(lock_fixture):
    g1, span = _slow_graph(lock_fixture)
    g2 = build_span_graph(lock_fixture["db"], span)
    assert to_dot(g1) == to_dot(g2)
    assert to_json_dict(g1) == to_json_dict(g2)


def test_dot_single_node_graph():
    db = build_state_db([switch(0, 9, 11), switch(500, 11, 9)])
    dot = to_dot(build_depgraph(db, 11, 0, 500))
    assert dot.startswith("digraph")
    assert dot.count("->") == 0
    assert "w11-11" in dot


def test_dot_slow_lock_percentage_labels(lock_fixture):
    g, _ = _slow_graph(lock_fixture)
    dot = to_dot(canonicalize(g))
    m = re.search(r'"thread:apache2" -> "syscall:fcntl" \[label="\d+ µs \((\d+)%\)"\]', dot)
    assert m, dot
    assert int(m.group(1)) >= 88


def test_dot_percentages_sum_at_most_100(lock_fixture, disk_fixture):
    for fixture in (lock_fixture, disk_fixture):
        g, _ = _slow_graph(fixture)
        for nid, node in g.nodes.items():
            out = sum(e.weight_ns for (s, _), e in g.edges.items() if s == nid)
            if node.total_ns:
                assert out <= node.total_ns + 1


def test_min_edge_filter_is_display_only(lock_fixture):
    g, _ = _slow_graph(lock_fixture)
    full = to_dot(g, min_edge_us=0)
    filtered = to_dot(g, min_edge_us=10_000_000)
    assert filtered.count("->") < full.count("->")
    assert len(g.edges) == full.count("->")


def _random_walk(seed: int, max_depth: int) -> tuple[DepGraph, dict]:
    """The graph of a random thread and window of a random trace, and the
    brute-force edge weights under the same depth cap."""
    rng = random.Random(seed)
    events = random_trace(seed=seed, n_events=rng.randint(200, 700))
    db = build_state_db(events)
    tids = db.thread_tids()
    root = rng.choice(tids)
    ts_s = rng.randint(db.t_min, db.t_max - 1)
    ts_e = rng.randint(ts_s + 1, db.t_max)
    return (build_depgraph(db, root, ts_s, ts_e, max_depth=max_depth),
            brute_force_edge_weights(db, root, ts_s, ts_e, max_depth=max_depth))


@pytest.mark.parametrize("seed, max_depth", [
    pytest.param(seed, depth, id=str(seed) if depth == 16 else f"{seed}-depth{depth}")
    for depth in (16, 2, 1) for seed in range(10)])
def test_edge_weights_match_brute_force(seed, max_depth):
    g, expected = _random_walk(seed, max_depth)
    assert edge_weights(g) == expected


def test_small_depth_caps_truncate_the_random_walks():
    # the capped cases above exercise the truncation branch of the walk
    assert any(_random_walk(seed, 1)[0].depth_truncated for seed in range(10))


# the root's states that name nothing it waited on, so produce no out-edge
_NO_EDGE_STATES = {(StateKind.RUNNING, None), (StateKind.INTERRUPTED, None),
                   (StateKind.BLOCKED, BlockReason.TIMER),
                   (StateKind.BLOCKED, BlockReason.NETWORK),
                   (StateKind.BLOCKED, BlockReason.UNKNOWN)}


def _assert_time_identities(db, g: DepGraph, root: int, ts_s: int, ts_e: int) -> None:
    """A syscall node hands on exactly the time waited through it, the
    root's edge-free time plus its out-edge weight is the part of the window
    its state covers, and the root's waits on CPU, DISK and threads, direct
    or through its syscall nodes, are the span features' waits."""
    out_w, in_w = {}, {}
    for (src, dst), edge in g.edges.items():
        out_w[src] = out_w.get(src, 0) + edge.weight_ns
        in_w[dst] = in_w.get(dst, 0) + edge.weight_ns
    for nid in g.nodes:
        if nid[0] == "syscall":
            assert in_w.get(nid, 0) == out_w.get(nid, 0), nid
    covered = edge_free = 0
    for start, end, st in zip(*db.range_columns(thread_state_key(root), ts_s, ts_e)):
        covered += end - start
        if (st.kind, st.reason) in _NO_EDGE_STATES:
            edge_free += end - start
    assert edge_free + out_w.get(g.root_id, 0) == covered
    waited = {"cpu": 0, "disk": 0, "threads": 0}
    for (src, dst), edge in g.edges.items():
        if (src == g.root_id or src[:2] == ("syscall", root)) and dst[0] != "syscall":
            target = {CPU_NODE: "cpu", DISK_NODE: "disk"}.get(dst, "threads")
            waited[target] += edge.weight_ns
    fv = extract_features(db, ExecutionSpan("window", root, ts_s, ts_e))
    assert waited == {"cpu": round(fv.cpu_wait_us * 1000),
                      "disk": round(fv.blocked_disk_us * 1000),
                      "threads": round((fv.blocked_task_us + fv.blocked_futex_us) * 1000)}


def test_graph_time_identities(lock_fixture, cpu_fixture, disk_fixture, mixed_fixture):
    for fixture in (lock_fixture, cpu_fixture, disk_fixture, mixed_fixture):
        for span in fixture["spans"]:
            _assert_time_identities(fixture["db"], build_span_graph(fixture["db"], span),
                                    span.root_tid, span.t_start, span.t_end)
    for seed in range(300):
        rng = random.Random(seed)
        db = build_state_db(random_trace(seed=seed, n_events=rng.randint(150, 1500)))
        tids = db.thread_tids()
        for _ in range(5):
            root = rng.choice(tids)
            ts_s = rng.randint(db.t_min, db.t_max - 1)
            ts_e = rng.randint(ts_s + 1, db.t_max)
            _assert_time_identities(db, build_depgraph(db, root, ts_s, ts_e),
                                    root, ts_s, ts_e)


class _ReadSpy:
    """A state database stand-in that records every name read from it."""

    def __init__(self, db):
        self._db = db
        self.names: set[str] = set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._db, name)


def test_walk_reads_the_state_db_only_as_clipped_columns(
        lock_fixture, cpu_fixture, disk_fixture, mixed_fixture):
    reads = set()
    for fixture in (lock_fixture, cpu_fixture, disk_fixture, mixed_fixture):
        spy = _ReadSpy(fixture["db"])
        for span in fixture["spans"]:
            assert to_json_dict(build_span_graph(spy, span)) == \
                to_json_dict(build_span_graph(fixture["db"], span))
        reads |= spy.names
    assert "range_columns" in reads
    assert reads <= {"range_columns", "last_value_before", "comm", "disk_keys"}


# -- canonicalization -------------------------------------------------------------


def test_canonicalize_disambiguates_same_comm():
    g = _empty(("thread", 50, "apache2"))
    add_edge(g, ("thread", 50, "apache2"), ("thread", 10, "apache2"), 7)
    add_edge(g, ("thread", 50, "apache2"), ("thread", 20, "apache2"), 5)
    cg = canonicalize(g)
    assert cg.root_id == ("thread", "apache2")
    assert set(cg.nodes) == {("thread", "apache2"), ("thread", "apache2#2"),
                             ("thread", "apache2#3")}
    # ordinals follow ascending tid among non-roots
    assert cg.edges[(("thread", "apache2"), ("thread", "apache2#2"))].weight_ns == 7


def test_canonicalize_merges_collapsed_syscalls():
    g = _empty(("thread", 1, "a"))
    add_edge(g, ("thread", 1, "a"), ("syscall", 1, "read"), 10)
    add_edge(g, ("syscall", 1, "read"), ("thread", 2, "b"), 10)
    add_edge(g, ("thread", 2, "b"), ("syscall", 2, "read"), 4)
    cg = canonicalize(g)
    assert ("syscall", "read") in cg.nodes
    assert cg.edges[(("thread", "a"), ("syscall", "read"))].weight_ns == 10
    assert cg.edges[(("thread", "b"), ("syscall", "read"))].weight_ns == 4


def test_dot_shapes_by_node_kind(disk_fixture):
    g, _ = _slow_graph(disk_fixture)
    dot = to_dot(g)
    assert "shape=box" in dot and "shape=ellipse" in dot and "shape=diamond" in dot


def test_json_dump_schema(lock_fixture):
    g, _ = _slow_graph(lock_fixture)
    dumped = to_json_dict(g)
    assert {"root", "nodes", "edges"} <= set(dumped)
    for node in dumped["nodes"]:
        assert {"id", "kind", "label", "total_us"} <= set(node)
    for edge in dumped["edges"]:
        assert {"src", "dst", "weight_us", "count"} <= set(edge)


# -- pinned outputs -----------------------------------------------------------------

# sha256 of to_dot, of to_json_dict (as json_text) and of to_dot of the
# canonical graph, each over every span of a 16-span trace in span order; a
# change to how the walk reads the state database must leave these unchanged
_PINNED_GRAPHS = {
    ("lock", 3): (
        "dc05c5aaf869e220721f8935c7a06f0a2b3b33c635ffe7b65dcf14ca1845ff5b",
        "c9c7e0ef5c9268b26b4e082ed04f10fca959d39f9f6aecfa283d3bfc07282c3e",
        "f3bff9206110494155d6c5080b5b22b33418b6f301e45b91d456d94fd2e92f63"),
    ("cpu", 4): (
        "90a8079b0afcc7010281710086738e5cc7063babdbb371d4027b53b7cbd8a1ab",
        "0aced2b50736574830457a99c0c31008a50323b8e51849089a0ffc188c7115b5",
        "e88f2357fc4d5f1a2d9e47853e620cd90f9fce209e602ad397e902ddce30a8cb"),
    ("disk", 5): (
        "cbcbac253dd113d4f30f5a194a1ca9f1136908e6795d91734413f40f8f28bca5",
        "ed4e68109abcc43ec3152ac545a962a59e7377300777632ddf1e122410d903e3",
        "5ec6832c8a667392e5fde3716404b94581e9247b882440ea3bdec478399094d0"),
    ("mixed", 6): (
        "584a7b01acf2ce7331f40c1b1448b1691354af6a29b7e3228a16334cfb8126ee",
        "831a28baa2f93694cb94508f55c055b6322f959a87601a14723f0c2119e4e1fd",
        "5368205d6c4e3a3fa2918ba144374b296068500b8a529c275fc8da8ff2a3c114"),
}


def _graph_digests(scenario: str, seed: int) -> tuple[str, str, str]:
    events, _ = generate(ScenarioSpec(scenario, seed=seed, n_spans=16))
    db = build_state_db(events)
    dots, dumps, canonical = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for span in extract_spans(events).spans:
        g = build_span_graph(db, span)
        dots.update(to_dot(g).encode())
        dumps.update(json_text(to_json_dict(g)).encode())
        canonical.update(to_dot(canonicalize(g)).encode())
    return dots.hexdigest(), dumps.hexdigest(), canonical.hexdigest()


@pytest.mark.parametrize("scenario, seed", list(_PINNED_GRAPHS))
def test_span_graphs_match_pinned_digests(scenario, seed):
    assert _graph_digests(scenario, seed) == _PINNED_GRAPHS[scenario, seed]


# sha256 of to_json_dict (as json_text) of 5 random (root, window) graphs of
# each random trace of seeds 0-99: unlike the synth pins these graphs carry
# DISK edges served on two devices and syscall nodes of several names
_PINNED_RANDOM_GRAPHS = "850345e55288b145b8466aab22e39bdb812e89b1c52fb1d1d3fd13d69cbdbf64"


def test_random_graphs_match_pinned_digest():
    dumps = hashlib.sha256()
    for seed in range(100):
        rng = random.Random(seed)
        db = build_state_db(random_trace(seed=seed, n_events=rng.randint(150, 1500)))
        tids = db.thread_tids()
        for _ in range(5):
            root = rng.choice(tids)
            ts_s = rng.randint(db.t_min, db.t_max - 1)
            ts_e = rng.randint(ts_s + 1, db.t_max)
            dumps.update(json_text(to_json_dict(build_depgraph(db, root, ts_s, ts_e)))
                         .encode())
    assert dumps.hexdigest() == _PINNED_RANDOM_GRAPHS
