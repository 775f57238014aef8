"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from waitgraph.analysis import (
    EdgeStyle,
    boldness_for,
    cluster_spans,
    compare,
    extract_features,
    representative,
)
from waitgraph.cli import main
from waitgraph.events import extract_spans, read_trace
from waitgraph.graph import build_depgraph, build_span_graph, canonicalize
from waitgraph.states import build_state_db
from waitgraph.synth import ScenarioSpec, generate, generate_files
from oracles import brute_force_edge_weights, linear_query_range, thread_tids
from randtrace import random_trace


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS", flush=True)


def _pipeline(spec: ScenarioSpec):
    events, gt = generate(spec)
    db = build_state_db(events)
    spans = extract_spans(events).spans
    slow = {s["span_id"] for s in gt["spans"] if s["label"] == "slow"}
    return events, gt, db, spans, slow


def test_criterion_1_lock_contention_reproduction():
    with criterion(1, "lock-contention reproduction"):
        t0 = time.perf_counter()
        spec = ScenarioSpec("lock_contention", seed=7, n_spans=200)
        events, gt, db, spans, slow = _pipeline(spec)
        assert len(spans) == 200
        groups = {True: [], False: []}
        for span in spans:
            g = canonicalize(build_span_graph(db, span))
            groups[span.span_id in slow].append(g)
        slow_rep = representative(groups[True])
        fast_rep = representative(groups[False])
        fcntl = ("syscall", "fcntl")
        root = slow_rep.root_id

        root_total = slow_rep.nodes[root].mean_total_ns
        fcntl_total = slow_rep.nodes[fcntl].mean_total_ns
        assert fcntl_total / root_total >= 0.85, \
            f"fcntl node holds {fcntl_total / root_total:.3f} of root time"

        task_out = sum(e.mean_weight_ns for (s, d), e in slow_rep.edges.items()
                       if s == fcntl and d[0] == "thread")
        assert task_out / fcntl_total >= 0.79, \
            f"blocked-on-task edges hold {task_out / fcntl_total:.3f} of fcntl"

        assert fcntl not in fast_rep.nodes, "fast representative shows fcntl"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"200-span reproduction took {elapsed:.1f}s"


def test_criterion_2_cpu_contention_reproduction():
    with criterion(2, "cpu-contention reproduction"):
        spec = ScenarioSpec("cpu_contention", seed=5, n_spans=60)
        events, gt, db, spans, slow = _pipeline(spec)
        slow_tot, fast_tot = [], []
        for span in spans:
            if span.span_id in slow:
                g = canonicalize(build_span_graph(db, span))
                root, cpu = g.root_id, ("resource", "CPU")
                irq = ("thread", "irq/154-hpd")
                assert (root, cpu) in g.edges, "missing root->CPU edge"
                assert (cpu, irq) in g.edges, "missing CPU->irq-handler edge"
                slow_tot.append(span.duration_ns)
            else:
                fast_tot.append(span.duration_ns)
        ratio = (sum(slow_tot) / len(slow_tot)) / (sum(fast_tot) / len(fast_tot))
        assert abs(ratio - 9.0) <= 0.9, f"slow:fast ratio {ratio:.2f} not 9:1 +-10%"


def test_criterion_3_disk_contention_reproduction():
    with criterion(3, "disk-contention reproduction"):
        spec = ScenarioSpec("disk_contention", seed=11, n_spans=60)
        events, gt, db, spans, slow = _pipeline(spec)
        checked = 0
        for span in spans:
            if span.span_id not in slow:
                continue
            g = canonicalize(build_span_graph(db, span))
            newfstat, disk = ("syscall", "newfstat"), ("resource", "DISK")
            grep = ("thread", "grep")
            assert (g.root_id, newfstat) in g.edges, "missing root->newfstat"
            assert (newfstat, disk) in g.edges, "missing newfstat->DISK"
            assert (disk, grep) in g.edges, "missing DISK->grep"
            share = g.edges[(disk, grep)].weight_ns / g.nodes[newfstat].total_ns
            assert abs(share - 0.43) <= 0.03, f"grep share {share:.3f} not 43% +-3%"
            others = [d for (s, d) in g.edges if s == disk and d != grep]
            assert len(others) >= 2, "fewer than 2 extra contending threads"
            checked += 1
        assert checked > 0


def test_criterion_4_state_db_oracle_equivalence():
    with criterion(4, "state DB query oracle equivalence"):
        for seed in range(50):
            rng = random.Random(seed)
            events = random_trace(seed=seed, n_events=rng.randint(400, 2500))
            assert len(events) <= 10_000
            db = build_state_db(events)
            keys = db.keys()
            for _ in range(30):
                key = rng.choice(keys)
                t_a = rng.randint(db.t_min, db.t_max - 1)
                t_b = rng.randint(t_a + 1, db.t_max + 50)
                got = db.query_range(key, t_a, t_b)
                assert got == linear_query_range(db, key, t_a, t_b), \
                    (seed, key, t_a, t_b)


def test_criterion_5_graph_weight_oracle_equivalence():
    with criterion(5, "graph weight oracle equivalence"):
        for seed in range(50):
            rng = random.Random(1000 + seed)
            events = random_trace(seed=seed, n_events=rng.randint(150, 1000))
            assert len(events) <= 1_010
            db = build_state_db(events)
            root = rng.choice(thread_tids(db))
            ts_s = rng.randint(db.t_min, db.t_max - 1)
            ts_e = rng.randint(ts_s + 1, db.t_max)
            g = build_depgraph(db, root, ts_s, ts_e)
            got = {k: e.weight_ns for k, e in g.edges.items()}
            expected = brute_force_edge_weights(db, root, ts_s, ts_e)
            assert got == expected, (seed, root, ts_s, ts_e)


def test_criterion_6_clustering_ground_truth_agreement():
    with criterion(6, "two-group clustering agreement"):
        spec = ScenarioSpec("lock_contention", seed=7, n_spans=60)
        events, gt, db, spans, slow = _pipeline(spec)
        totals = [s.duration_ns for s in spans]
        assert max(totals) / min(totals) >= 10.0
        feats = {s.span_id: extract_features(db, s) for s in spans}
        for seed in range(20):
            clustering = cluster_spans(feats, k=2, seed=seed)
            got = {sid for sid, c in clustering.assignments.items() if c == 0}
            other = set(clustering.assignments) - got
            assert slow in (got, other), f"seed {seed} disagrees with ground truth"


def test_criterion_7_comparison_algebra():
    with criterion(7, "comparison algebra and boldness monotonicity"):
        spec = ScenarioSpec("lock_contention", seed=7, n_spans=40)
        events, gt, db, spans, slow = _pipeline(spec)
        slow_graphs = [canonicalize(build_span_graph(db, s))
                       for s in spans if s.span_id in slow]
        fast_graphs = [canonicalize(build_span_graph(db, s))
                       for s in spans if s.span_id not in slow]
        rep_slow = representative(slow_graphs)
        rep_fast = representative(fast_graphs)

        self_cmp = compare(rep_slow, rep_slow)
        assert self_cmp.edges
        for e in self_cmp.edges.values():
            assert e.style is EdgeStyle.SOLID, "self-compare produced non-solid edge"
            assert e.boldness == 1, "self-compare boldness above 1"

        ab = compare(rep_fast, rep_slow)
        ba = compare(rep_slow, rep_fast)
        dashed_ab = {k for k, e in ab.edges.items() if e.style is EdgeStyle.DASHED}
        dotted_ab = {k for k, e in ab.edges.items() if e.style is EdgeStyle.DOTTED}
        dashed_ba = {k for k, e in ba.edges.items() if e.style is EdgeStyle.DASHED}
        dotted_ba = {k for k, e in ba.edges.items() if e.style is EdgeStyle.DOTTED}
        assert dashed_ab == dotted_ba and dotted_ab == dashed_ba

        rng = random.Random(99)
        stats = [(rng.uniform(0, 100), rng.uniform(0.01, 20), rng.uniform(0, 100))
                 for _ in range(1000)]
        zs = sorted(abs((mr - ml) / sl) for ml, sl, mr in stats)
        bolds = [boldness_for(z) for z in zs]
        assert all(b1 <= b2 for b1, b2 in zip(bolds, bolds[1:]))
        assert all(1 <= b <= 5 for b in bolds)


def test_criterion_8_single_pass_and_cli_determinism(tmp_path):
    with criterion(8, "single-pass build and CLI byte determinism"):
        spec = ScenarioSpec("lock_contention", seed=7, n_spans=24)
        events, _ = generate(spec)
        db = build_state_db(events)
        assert db.events_consumed == len(events), "event touched more than once"

        outputs: dict[str, list[bytes]] = {}
        for run in ("one", "two"):
            d = tmp_path / run
            assert main(["synth", "--scenario", "lock", "--seed", "7",
                         "--spans", "24", "--out-dir", str(d)]) == 0
            trace = str(d / "trace.jsonl")
            gt = json.loads((d / "ground_truth.json").read_text())
            slow = next(s["span_id"] for s in gt["spans"] if s["label"] == "slow")
            assert main(["graph", trace, "--span", slow,
                         "--out", str(d / "g.dot"), "--json", str(d / "g.json")]) == 0
            assert main(["cluster", trace, "--k", "2", "--seed", "0",
                         "--out", str(d / "r.json")]) == 0
            report = json.loads((d / "r.json").read_text())
            clusters = sorted({rec["cluster"] for rec in report["spans"]})
            assert main(["compare", trace, "--report", str(d / "r.json"),
                         "--left", str(clusters[0]), "--right", str(clusters[1]),
                         "--out", str(d / "c.dot"), "--json", str(d / "c.json")]) == 0
            assert main(["inspect", trace, "--key", "cpu/",
                         "--out", str(d / "i.txt")]) == 0
            for name in ("trace.jsonl", "ground_truth.json", "g.dot", "g.json",
                         "r.json", "c.dot", "c.json", "i.txt"):
                outputs.setdefault(name, []).append((d / name).read_bytes())
        for name, (a, b) in outputs.items():
            assert a == b, f"{name} differs between identical runs"


def test_criterion_9_desk_scale_throughput(tmp_path):
    with criterion(9, "desk-scale throughput"):
        spec = ScenarioSpec("lock_contention", seed=1, n_spans=100,
                            filler_events=10_050)
        trace_path = tmp_path / "big.jsonl"
        generate_files(spec, trace_path, tmp_path / "gt.json")

        t0 = time.perf_counter()
        events = read_trace(trace_path)
        t_read = time.perf_counter() - t0
        assert len(events) >= 1_000_000, f"only {len(events)} events generated"

        t1 = time.perf_counter()
        db = build_state_db(events)
        spans = extract_spans(events).spans
        assert len(spans) == 100
        for span in spans:
            build_span_graph(db, span)
        t_analysis = time.perf_counter() - t1

        total = t_read + t_analysis
        print(f"\n  {len(events)} events: read {t_read:.1f}s, "
              f"analysis {t_analysis:.1f}s "
              f"(analysis/read ratio {t_analysis / t_read:.2f}), "
              f"total {total:.1f}s", flush=True)
        assert total < 60.0, f"end-to-end took {total:.1f}s"
