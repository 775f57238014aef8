"""Command line interface.

Subcommands: synth, graph, cluster, compare, inspect.  Exit codes:
0 success, 2 usage/validation error, 3 span or cluster not found,
4 internal invariant breach.  All randomness flows from --seed; identical
inputs and flags produce byte-identical outputs.  graph, cluster, compare
and inspect keep the trace's fold in a TRACE.wgstate sidecar that only
saves time (see _load_pipeline).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
from pathlib import Path

from . import analysis, events, graph, states, synth
from .errors import InputError, InvalidParameter, TraceAnalysisError
from .events import (atomic_output, atomic_write_text, extract_spans, iter_trace,
                     json_text)
from .events import read_trace  # noqa: F401  (bench/test_bench.py looks it up here)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_INTERNAL = 4


class _NotFound(Exception):
    pass


# A command's fold is kept in the sidecar TRACE.wgstate: a header line
# (magic, sha256 of the trace bytes, of the source below and of the body)
# and the states._encode_state body.  Any mismatch or unreadable sidecar
# means a fold as if there were none; deleting the file is always safe.
_SIDECAR_MAGIC = b"waitgraph-state"
_SIDECAR_SOURCES = (events.__file__, states.__file__, __file__)


def _sidecar_prefix(raw) -> bytes | None:
    """The header a sidecar of the open trace must start with, or None
    when the trace or the source cannot be read."""
    trace, source = hashlib.sha256(), hashlib.sha256()
    try:
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            trace.update(chunk)
        for path in _SIDECAR_SOURCES:
            source.update(Path(path).read_bytes())
    except OSError:
        return None
    return b"%s %s %s " % (_SIDECAR_MAGIC, trace.hexdigest().encode(),
                           source.hexdigest().encode())


def _read_sidecar(path: Path, prefix: bytes):
    """The state DB of a sidecar whose header matches, else None."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a directory, or a pipe whose open() would block
        with open(path, "rb") as fh:
            head = fh.readline(len(prefix) + 65)
            if not head.startswith(prefix):
                return None
            body = fh.read()
    except OSError:
        return None
    if head[len(prefix):] != hashlib.sha256(body).hexdigest().encode() + b"\n":
        return None
    try:
        # the body is ASCII: drop its bytes so only the str is held while parsed
        text = body.decode("ascii")
        del body
        return states._decode_state(text)
    except (ValueError, TypeError, LookupError, AttributeError, RecursionError):
        return None  # a body with a valid checksum that this code never wrote


def _write_sidecar(path: Path, prefix: bytes, db) -> None:
    body = states._encode_state(db)
    try:
        with atomic_output(path) as fh:
            fh.write(prefix + hashlib.sha256(body).hexdigest().encode() + b"\n")
            fh.write(body)
    except OSError:
        pass  # a read-only directory, a directory in the way: no cache


def _load_pipeline(trace_path: str):
    """The trace's state DB, span markers included.  It comes from the
    sidecar when that matches the trace bytes and this code; otherwise the
    trace is folded in one streaming pass and, if the fold succeeds, the
    sidecar is rewritten.  Non-regular files (pipes) are always folded."""
    sidecar = Path(trace_path + ".wgstate")
    with open(trace_path, "rb") as raw:
        prefix = None
        if stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            prefix = _sidecar_prefix(raw)
            restored = _read_sidecar(sidecar, prefix) if prefix else None
            if restored is not None:
                return restored
            raw.seek(0)
        db = states.build_state_db(iter_trace(raw))
    if prefix is not None:
        _write_sidecar(sidecar, prefix, db)
    return db


def cmd_synth(args) -> int:
    spec = synth.ScenarioSpec(
        scenario=args.scenario, seed=args.seed, n_spans=args.spans,
        slow_fraction=args.slow_fraction, workers=args.workers,
        fast_us=args.fast_us, slowdown=args.slowdown,
        filler_events=args.filler_events, jitter=args.jitter)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".jsonl.gz" if args.gz else ".jsonl"
    trace_path = out_dir / f"trace{suffix}"
    gt_path = out_dir / "ground_truth.json"
    synth.generate_files(spec, trace_path, gt_path)
    print(f"wrote {trace_path} and {gt_path}")
    return EXIT_OK


def cmd_graph(args) -> int:
    db = _load_pipeline(args.trace)
    extraction = extract_spans(db.markers)
    span = next((s for s in extraction.spans if s.span_id == args.span), None)
    if span is None:
        raise _NotFound(f"span {args.span!r} not found in {args.trace}")
    g = graph.build_span_graph(db, span, max_depth=args.max_depth)
    if args.canonical:
        g = graph.canonicalize(g)
    dot = graph.to_dot(g, percentages=not args.no_percentages,
                       min_edge_us=args.min_edge_us)
    atomic_write_text(args.out, dot)
    if args.json:
        atomic_write_text(args.json, json_text(graph.to_json_dict(g)))
    root = g.root
    print(f"span {span.span_id}: root {root.label} total {root.total_us} µs, "
          f"{len(g.nodes)} nodes, {len(g.edges)} edges")
    return EXIT_OK


def cmd_cluster(args) -> int:
    db = _load_pipeline(args.trace)
    extraction = extract_spans(db.markers)
    feats = {s.span_id: analysis.extract_features(db, s) for s in extraction.spans}
    clustering = analysis.cluster_spans(feats, args.k, args.seed)
    report = analysis.clustering_report_dict(clustering, feats)
    atomic_write_text(args.out, json_text(report))
    sizes = [sum(1 for c in clustering.assignments.values() if c == i)
             for i in range(args.k)]
    print(f"clustered {len(feats)} spans into k={args.k} "
          f"(sizes {', '.join(map(str, sizes))}) -> {args.out}")
    return EXIT_OK


def _report_clusters(path: str) -> dict[int, list[str]]:
    """Span ids per cluster id from a `cluster` report.

    Raises InvalidParameter when the file is not JSON or lacks the
    ``spans`` list of {"span_id": str, "cluster": int} records.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
        raise InvalidParameter(f"{path}: not a JSON cluster report: {exc}") from exc
    spans = report.get("spans") if isinstance(report, dict) else None
    if not isinstance(spans, list):
        raise InvalidParameter(f"{path}: cluster report has no 'spans' list")
    by_cluster: dict[int, list[str]] = {}
    for i, rec in enumerate(spans):
        if not isinstance(rec, dict) or type(rec.get("cluster")) is not int \
                or not isinstance(rec.get("span_id"), str):
            raise InvalidParameter(
                f"{path}: spans[{i}] needs an integer 'cluster' and a string 'span_id'")
        by_cluster.setdefault(rec["cluster"], []).append(rec["span_id"])
    return by_cluster


def cmd_compare(args) -> int:
    db = _load_pipeline(args.trace)
    extraction = extract_spans(db.markers)
    by_cluster = _report_clusters(args.report)
    spans_by_id = {s.span_id: s for s in extraction.spans}
    reps = []
    for cluster_id in (args.left, args.right):
        ids = by_cluster.get(cluster_id)
        if not ids:
            raise _NotFound(f"cluster {cluster_id} has no spans in {args.report}")
        graphs = []
        for sid in sorted(ids):
            span = spans_by_id.get(sid)
            if span is None:
                raise _NotFound(f"span {sid!r} from report not in trace")
            graphs.append(graph.canonicalize(
                graph.build_span_graph(db, span, max_depth=args.max_depth)))
        reps.append(analysis.representative(graphs))
    cg = analysis.compare(reps[0], reps[1], stat=args.stat)
    atomic_write_text(args.out, analysis.comparison_to_dot(cg))
    if args.json:
        atomic_write_text(args.json, json_text(analysis.comparison_to_json_dict(cg)))
    styles = [e.style.value for e in cg.edges.values()]
    print(f"compared clusters {args.left} vs {args.right}: "
          f"{styles.count('solid')} solid, {styles.count('dashed')} dashed, "
          f"{styles.count('dotted')} dotted -> {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    db = _load_pipeline(args.trace)
    t_a = args.from_ns if args.from_ns is not None else db.t_min
    t_b = args.to_ns if args.to_ns is not None else db.t_max + 1
    if t_a >= t_b:
        raise InvalidParameter(f"--from {t_a} must be below --to {t_b}")
    counter_keys = {states.thread_counter_key(tid, counter): (tid, counter)
                    for tid in db.comms for counter in states.COUNTERS
                    if db.counter_steps(tid, counter)[0]}
    lines = []
    for key in sorted([*db.keys(), *counter_keys]):
        if args.key and not key.startswith(args.key):
            continue
        if key in counter_keys:
            rows = db.counter_range(*counter_keys[key], t_a, t_b)
        else:
            rows = db.query_range(key, t_a, t_b)
        for sv in rows:
            lines.append(f"{key}\t[{sv.start}, {sv.end})\t{sv.value}")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waitgraph",
        description="Reconstruct thread states from kernel-style traces and "
                    "localize off-CPU latency with waiting-dependency graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario trace")
    p.add_argument("--scenario", required=True, choices=synth.SCENARIO_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spans", type=int, default=20)
    p.add_argument("--slow-fraction", type=float, default=0.5)
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--fast-us", type=float, default=None)
    p.add_argument("--slowdown", type=float, default=None)
    p.add_argument("--filler-events", type=int, default=24)
    p.add_argument("--jitter", type=float, default=0.015)
    p.add_argument("--gz", action="store_true", help="gzip the trace file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("graph", help="build one span's dependency graph")
    p.add_argument("trace")
    p.add_argument("--span", required=True)
    p.add_argument("--out", required=True, help="DOT output path")
    p.add_argument("--json", default=None, help="also dump the graph as JSON")
    p.add_argument("--canonical", action="store_true",
                   help="re-key nodes by comm/syscall name")
    p.add_argument("--no-percentages", action="store_true")
    p.add_argument("--min-edge-us", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=16)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cluster", help="extract features and k-means group spans")
    p.add_argument("trace")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON report path")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("compare", help="diff two cluster representative graphs")
    p.add_argument("trace")
    p.add_argument("--report", required=True, help="cluster report JSON")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--stat", choices=["count", "duration"], default="count")
    p.add_argument("--out", required=True, help="DOT output path")
    p.add_argument("--json", default=None)
    p.add_argument("--max-depth", type=int, default=16)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect", help="dump state database slices")
    p.add_argument("trace")
    p.add_argument("--key", default=None, help="key prefix filter")
    p.add_argument("--from", dest="from_ns", type=int, default=None)
    p.add_argument("--to", dest="to_ns", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except TraceAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
