"""Command line interface.

Subcommands: synth, graph, cluster, compare, inspect.  Exit codes:
0 success, 2 usage/validation error, 3 span or cluster not found,
4 internal invariant breach.  All randomness flows from --seed; identical
inputs and flags produce byte-identical outputs.  graph, cluster, compare
and inspect keep the trace's fold in a TRACE.wgstate sidecar that only
saves time (see _load_pipeline).  A command imports the analysis and synth
modules only if it uses them, and only its own subcommand gets its
arguments (see build_parser).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import stat
import sys
from array import array
from dataclasses import fields
from pathlib import Path

from . import events, graph, states
from .errors import InputError, InvalidParameter, OverlappingSpan, TraceAnalysisError
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
# and the states._encode_state body, a JSON index line and an int64 blob.
# Any mismatch, unreadable sidecar or body that does not decode means a
# fold as if there were none; deleting the file is always safe.  A fold
# with a value beyond int64, or a key that holds a newline, writes no
# sidecar.
_SIDECAR_MAGIC = b"waitgraph-state"
_SIDECAR_SOURCES = (events.__file__, states.__file__, __file__)


def _sidecar_prefix(raw) -> bytes | None:
    """The header a sidecar of the open trace must start with, or None
    when the trace or the source cannot be read."""
    source = hashlib.sha256()
    try:
        trace = hashlib.file_digest(raw, "sha256")
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
            index = fh.readline()
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            blob = array("q", [0]) * (size // 8)
            if fh.readinto(blob) != size:
                return None  # not a whole number of int64s, or cut short
    except OSError:
        return None
    digest = hashlib.sha256(index)
    digest.update(blob)
    if head[len(prefix):] != digest.hexdigest().encode() + b"\n":
        return None
    try:
        return states._decode_state(index, blob)
    except (ValueError, TypeError, LookupError, RecursionError):
        return None  # a body with a valid checksum that this code never wrote


def _write_sidecar(path: Path, prefix: bytes, db) -> None:
    try:
        index, blob = states._encode_state(db)
    except (OverflowError, ValueError):
        return  # a value beyond int64, a key with a newline: the next command folds again
    digest = hashlib.sha256(index)
    digest.update(blob)
    try:
        with atomic_output(path) as fh:
            fh.write(prefix + digest.hexdigest().encode() + b"\n")
            fh.write(index)
            fh.write(blob)
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


def _load_spans(trace_path: str):
    """The trace's state DB (see _load_pipeline) and its completed spans by
    id.  Raises OverlappingSpan when two completed spans share an id."""
    db = _load_pipeline(trace_path)
    spans = {}
    for span in extract_spans(db.markers).spans:
        first = spans.setdefault(span.span_id, span)
        if first is not span:
            raise OverlappingSpan(f"span {span.span_id!r} is used twice: it begins "
                                  f"at ts={first.t_start} and at ts={span.t_start}")
    return db, spans


def cmd_synth(args) -> int:
    from . import synth

    spec = synth.ScenarioSpec(**{f.name: getattr(args, f.name)
                                 for f in fields(synth.ScenarioSpec)})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".jsonl.gz" if args.gz else ".jsonl"
    trace_path = out_dir / f"trace{suffix}"
    gt_path = out_dir / "ground_truth.json"
    synth.generate_files(spec, trace_path, gt_path)
    print(f"wrote {trace_path} and {gt_path}")
    return EXIT_OK


def cmd_graph(args) -> int:
    db, spans = _load_spans(args.trace)
    span = spans.get(args.span)
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
    from . import analysis

    db, spans = _load_spans(args.trace)
    feats = {sid: analysis.extract_features(db, s) for sid, s in spans.items()}
    clustering = analysis.cluster_spans(feats, args.k, args.seed)
    report = analysis.clustering_report_dict(clustering, feats)
    atomic_write_text(args.out, json_text(report))
    sizes = [0] * args.k
    for cluster_id in clustering.assignments.values():
        sizes[cluster_id] += 1
    print(f"clustered {len(feats)} spans into k={args.k} "
          f"(sizes {', '.join(map(str, sizes))}) -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import analysis

    db, spans = _load_spans(args.trace)
    by_cluster = analysis.read_clustering_report(args.report)
    reps = []
    for cluster_id in (args.left, args.right):
        ids = by_cluster.get(cluster_id)
        if not ids:
            raise _NotFound(f"cluster {cluster_id} has no spans in {args.report}")
        graphs = []
        for sid in sorted(ids):
            span = spans.get(sid)
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
    text = "".join(f"{sv.key}\t[{sv.start}, {sv.end})\t{sv.value}\n"
                   for sv in db.slices(args.key or "", t_a, t_b))
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    from . import synth

    spec = synth.ScenarioSpec  # each synth flag sets the field it names
    p.add_argument("--scenario", required=True, choices=synth.SCENARIO_NAMES)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--spans", type=int, default=spec.n_spans, dest="n_spans",
                   metavar="SPANS")
    p.add_argument("--slow-fraction", type=float, default=spec.slow_fraction)
    p.add_argument("--workers", type=int, default=spec.workers)
    p.add_argument("--fast-us", type=float, default=spec.fast_us)
    p.add_argument("--slowdown", type=float, default=spec.slowdown)
    p.add_argument("--filler-events", type=int, default=spec.filler_events)
    p.add_argument("--jitter", type=float, default=spec.jitter)
    p.add_argument("--gz", action="store_true", help="gzip the trace file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)


def _graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace")
    p.add_argument("--span", required=True)
    p.add_argument("--out", required=True, help="DOT output path")
    p.add_argument("--json", default=None, help="also dump the graph as JSON")
    p.add_argument("--canonical", action="store_true",
                   help="re-key nodes by comm/syscall name")
    p.add_argument("--no-percentages", action="store_true")
    p.add_argument("--min-edge-us", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=graph.MAX_DEPTH)
    p.set_defaults(func=cmd_graph)


def _cluster_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON report path")
    p.set_defaults(func=cmd_cluster)


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    from . import analysis

    p.add_argument("trace")
    p.add_argument("--report", required=True, help="cluster report JSON")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--stat", choices=analysis.STATS, default=analysis.STATS[0])
    p.add_argument("--out", required=True, help="DOT output path")
    p.add_argument("--json", default=None)
    p.add_argument("--max-depth", type=int, default=graph.MAX_DEPTH)
    p.set_defaults(func=cmd_compare)


def _inspect_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace")
    p.add_argument("--key", default=None, help="key prefix filter")
    p.add_argument("--from", dest="from_ns", type=int, default=None)
    p.add_argument("--to", dest="to_ns", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)


# subcommand -> (its help, what adds its arguments)
_SUBCOMMANDS = {
    "synth": ("generate a synthetic scenario trace", _synth_arguments),
    "graph": ("build one span's dependency graph", _graph_arguments),
    "cluster": ("extract features and k-means group spans", _cluster_arguments),
    "compare": ("diff two cluster representative graphs", _compare_arguments),
    "inspect": ("dump state database slices", _inspect_arguments),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command line parser.  Given the argv it is to parse, only the
    subcommand that argv runs gets its arguments, and so imports only what
    they need; every subcommand still lists with its help.  The parser
    reads argv exactly as one that gives every subcommand its arguments."""
    run = None
    if argv is not None:
        # the top-level parser has no option that takes a value, so the
        # first argument that is not an option names the subcommand
        run = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="waitgraph",
        description="Reconstruct thread states from kernel-style traces and "
                    "localize off-CPU latency with waiting-dependency graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if argv is None or name == run:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
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
