from __future__ import annotations

import math
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waitgraph.analysis import (
    EdgeStyle,
    FEATURE_NAMES,
    boldness_for,
    cluster_spans,
    compare,
    extract_features,
    kmeans,
    normalize_features,
    representative,
)
from waitgraph.errors import EmptyCluster, RootConflict, TooFewSpans
from waitgraph.events import extract_spans
from waitgraph.graph import DepGraph, add_edge, ensure_node
from waitgraph.states import build_state_db, thread_syscall_key
from conftest import slow_ids
from oracles import lloyd_reference, objective, scan_span_features
from randtrace import random_trace


def test_all_running_span_has_zero_wait_features(lock_fixture):
    ids = slow_ids(lock_fixture["gt"])
    span = next(s for s in lock_fixture["spans"] if s.span_id not in ids)
    fv = extract_features(lock_fixture["db"], span)
    for name in FEATURE_NAMES:
        if name.startswith(("blocked_", "cpu_wait", "interrupted")):
            assert getattr(fv, name) == 0, name
    assert fv.total_us == span.duration_ns / 1000
    assert fv.page_faults > 0  # filler events land in the counters


def test_lock_slow_span_features_match_targets(lock_fixture):
    db = lock_fixture["db"]
    ids = slow_ids(lock_fixture["gt"])
    span = next(s for s in lock_fixture["spans"] if s.span_id in ids)
    fv = extract_features(db, span)
    fcntl_us = sum(sv.duration_ns for sv in
                   db.query_range(thread_syscall_key(span.root_tid),
                                  span.t_start, span.t_end)
                   if sv.value == "fcntl") / 1000
    assert fcntl_us > 0
    assert math.isclose(fv.blocked_task_us, 0.82 * fcntl_us, rel_tol=0.03)
    assert math.isclose(fv.total_us, 40_148, rel_tol=0.05)
    assert fv.blocked_task_count == 3  # one episode per peer round


def test_features_match_event_scan_oracle(lock_fixture, cpu_fixture, disk_fixture):
    for fixture in (lock_fixture, cpu_fixture, disk_fixture):
        for span in fixture["spans"][:6]:
            fv = asdict(extract_features(fixture["db"], span))
            expected = scan_span_features(fixture["events"], span)
            for name, value in expected.items():
                assert math.isclose(fv[name], value, rel_tol=1e-12), \
                    (span.span_id, name, fv[name], value)


def test_features_from_random_trace_spans():
    events = random_trace(seed=123, n_events=900, with_spans=True)
    db = build_state_db(events)
    for span in extract_spans(events).spans:
        fv = asdict(extract_features(db, span))
        expected = scan_span_features(events, span)
        for name, value in expected.items():
            assert math.isclose(fv[name], value, rel_tol=1e-12), (span, name)


# -- k-means -------------------------------------------------------------------


def test_kmeans_too_few_points():
    with pytest.raises(TooFewSpans):
        kmeans([[0.0], [1.0]], 3, seed=0)


def test_kmeans_n_equals_k_gives_singletons():
    points = [[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]
    assign, _, _ = kmeans(points, 3, seed=4)
    assert sorted(assign) == [0, 1, 2]


def test_kmeans_separated_groups_split_cleanly():
    rng = random.Random(2)
    points = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(30)]
    points += [[rng.uniform(10, 11), rng.uniform(10, 11)] for _ in range(30)]
    assign, _, _ = kmeans(points, 2, seed=0)
    assert len(set(assign[:30])) == 1 and len(set(assign[30:])) == 1
    assert assign[0] != assign[30]


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_matches_reference_lloyd(seed):
    rng = random.Random(seed)
    points = [[rng.uniform(0, 10) for _ in range(4)] for _ in range(200)]
    assign, _, _ = kmeans(points, 2, seed=seed)
    assert assign == lloyd_reference(points, 2, seed=seed)
    # two distinct points for k=3: the nearest-centroid pass leaves a
    # cluster empty, and both sides repair it by the same rule
    dup = [points[i % 2] for i in range(12)]
    assign, _, _ = kmeans(dup, 3, seed=seed)
    assert sorted(set(assign)) == [0, 1, 2]
    assert assign == lloyd_reference(dup, 3, seed=seed)


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_stops_when_empty_cluster_repairs_cycle(seed):
    # ties between the two distinct points let the repair undo itself, so
    # the assignment can alternate instead of settling
    rng = random.Random(seed)
    points = [[rng.uniform(0, 10) for _ in range(4)] for _ in range(2)]
    _, _, iterations = kmeans([points[i % 2] for i in range(12)], 3, seed=seed,
                              max_iter=100)
    assert iterations < 100


def test_kmeans_objective_non_increasing():
    rng = random.Random(7)
    points = [[rng.uniform(0, 10) for _ in range(3)] for _ in range(120)]
    # re-run the public function iteration-by-iteration via max_iter caps
    prev_obj = None
    for it in range(1, 15):
        assign, _, n_iter = kmeans(points, 3, seed=1, max_iter=it)
        obj = objective(points, assign, 3)
        if prev_obj is not None:
            assert obj <= prev_obj + 1e-9
        prev_obj = obj
        if n_iter < it:
            break


def test_normalization_makes_units_irrelevant():
    rng = random.Random(3)
    base = [[rng.uniform(0, 5), rng.uniform(0, 2000)] for _ in range(60)]
    scaled = [[p[0] * 1000.0, p[1]] for p in base]  # ns instead of µs
    a1, _, _ = kmeans(normalize_features(base), 2, seed=9)
    a2, _, _ = kmeans(normalize_features(scaled), 2, seed=9)
    assert a1 == a2


def test_cluster_spans_lock_fixture_matches_ground_truth(lock_fixture):
    db = lock_fixture["db"]
    feats = {s.span_id: extract_features(db, s) for s in lock_fixture["spans"]}
    clustering = cluster_spans(feats, k=2, seed=0)
    truth = slow_ids(lock_fixture["gt"])
    groups = {0: set(), 1: set()}
    for sid, c in clustering.assignments.items():
        groups[c].add(sid)
    assert truth in (groups[0], groups[1])


# -- representative -------------------------------------------------------------


def _graph_from(edges, root=("thread", "r")) -> DepGraph:
    g = DepGraph(root_id=root)
    ensure_node(g, root)
    for src, dst, w, c in edges:
        add_edge(g, src, dst, w, c)
    return g


R = ("thread", "r")
X = ("thread", "x")
Y = ("syscall", "s")


def test_representative_of_empty_cluster_raises():
    with pytest.raises(EmptyCluster):
        representative([])


def test_representative_of_graphs_with_two_roots_raises():
    other = ("thread", "other")
    with pytest.raises(RootConflict, match="cluster mixes roots"):
        representative([_graph_from([(R, X, 50, 1)]),
                        _graph_from([(other, X, 50, 1)], root=other)])


def test_representative_of_one_graph_is_itself_with_zero_std():
    g = _graph_from([(R, Y, 100, 2), (Y, X, 80, 1)])
    rep = representative([g])
    assert rep.n_graphs == 1
    e = rep.edges[(R, Y)]
    assert e.mean_weight_ns == 100 and e.std_weight_ns == 0
    assert e.mean_count == 2 and e.std_count == 0


def test_representative_of_identical_graphs_has_zero_std():
    g1 = _graph_from([(R, X, 50, 1)])
    g2 = _graph_from([(R, X, 50, 1)])
    rep = representative([g1, g2])
    e = rep.edges[(R, X)]
    assert e.mean_weight_ns == 50 and e.std_weight_ns == 0 and e.std_count == 0


@pytest.mark.parametrize("seed", range(5))
def test_representative_stats_match_direct_recomputation(seed):
    rng = random.Random(seed)
    nodes = [R, X, Y, ("thread", "z"), ("resource", "CPU")]
    graphs = []
    for _ in range(5):
        edges = []
        for _ in range(rng.randint(1, 6)):
            src, dst = rng.sample(nodes, 2)
            edges.append((src, dst, rng.randint(1, 1000), rng.randint(1, 4)))
        graphs.append(_graph_from(edges))
    rep = representative(graphs)
    keys = {k for g in graphs for k in g.edges}
    assert set(rep.edges) == keys
    for key in keys:
        weights = [g.edges[key].weight_ns if key in g.edges else 0 for g in graphs]
        counts = [g.edges[key].count if key in g.edges else 0 for g in graphs]
        mw = sum(weights) / 5
        sw = math.sqrt(sum((w - mw) ** 2 for w in weights) / 5)
        mc = sum(counts) / 5
        sc = math.sqrt(sum((c - mc) ** 2 for c in counts) / 5)
        e = rep.edges[key]
        assert math.isclose(e.mean_weight_ns, mw)
        assert math.isclose(e.std_weight_ns, sw)
        assert math.isclose(e.mean_count, mc)
        assert math.isclose(e.std_count, sc)
        assert e.present_in == sum(1 for g in graphs if key in g.edges)


# -- compare ---------------------------------------------------------------------


def test_compare_identical_representatives_all_solid_boldness_one():
    graphs = [_graph_from([(R, Y, 100, 2), (Y, X, 80, 1)]) for _ in range(3)]
    rep = representative(graphs)
    cg = compare(rep, rep)
    assert cg.edges
    for e in cg.edges.values():
        assert e.style is EdgeStyle.SOLID and e.boldness == 1
    for n in cg.nodes.values():
        assert n.presence == "both" and n.boldness == 1


def test_compare_right_only_edge_is_dotted_and_swap_exchanges_styles():
    left = representative([_graph_from([(R, X, 10, 1)])])
    right = representative([_graph_from([(R, X, 10, 1), (R, Y, 30, 2)])])
    cg = compare(left, right)
    assert cg.edges[(R, Y)].style is EdgeStyle.DOTTED
    swapped = compare(right, left)
    assert swapped.edges[(R, Y)].style is EdgeStyle.DASHED
    dashed = {k for k, e in cg.edges.items() if e.style is EdgeStyle.DASHED}
    dotted = {k for k, e in cg.edges.items() if e.style is EdgeStyle.DOTTED}
    sw_dashed = {k for k, e in swapped.edges.items() if e.style is EdgeStyle.DASHED}
    sw_dotted = {k for k, e in swapped.edges.items() if e.style is EdgeStyle.DOTTED}
    assert dashed == sw_dotted and dotted == sw_dashed


def test_compare_z_of_five_gives_boldness_five():
    # left mean 10 with std 2, right mean 20 -> z = 5
    lefts = [_graph_from([(R, X, 1, c)]) for c in (8, 10, 12)]  # std(counts)~1.63
    left = representative(lefts)
    # force the documented numbers directly through the boldness map
    assert boldness_for((20 - 10) / 2) == 5
    rights = [_graph_from([(R, X, 1, 20)])]
    cg = compare(left, representative(rights))
    e = cg.edges[(R, X)]
    assert e.style is EdgeStyle.SOLID and e.boldness == 5


def test_zero_std_baseline():
    left = representative([_graph_from([(R, X, 10, 3)])])
    same = representative([_graph_from([(R, X, 99, 3)])])     # same count
    diff = representative([_graph_from([(R, X, 10, 4)])])     # different count
    assert compare(left, same).edges[(R, X)].boldness == 1
    assert compare(left, diff).edges[(R, X)].boldness == 5


@given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0.01, 100),
                          st.floats(0, 1000)), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_boldness_monotone_in_z(stats):
    zs = [abs((mr - ml) / sl) for ml, sl, mr in stats]
    bold = [boldness_for(z) for z in zs]
    order = sorted(range(len(zs)), key=lambda i: zs[i])
    for a, b in zip(order, order[1:]):
        assert bold[a] <= bold[b]


def test_cluster_spans_rejects_k_below_two(lock_fixture):
    from waitgraph.errors import InvalidParameter
    feats = {s.span_id: extract_features(lock_fixture["db"], s)
             for s in lock_fixture["spans"]}
    with pytest.raises(InvalidParameter):
        cluster_spans(feats, k=1, seed=0)


def test_every_span_assigned_to_nearest_centroid(lock_fixture):
    feats = {s.span_id: extract_features(lock_fixture["db"], s)
             for s in lock_fixture["spans"]}
    clustering = cluster_spans(feats, k=2, seed=3)
    span_ids = sorted(feats)
    norm = normalize_features([feats[s].as_list() for s in span_ids])
    for sid, point in zip(span_ids, norm):
        dists = [sum((x - y) ** 2 for x, y in zip(point, c))
                 for c in clustering.centroids]
        assert dists[clustering.assignments[sid]] == min(dists)
