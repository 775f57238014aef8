from __future__ import annotations

import errno
import gzip
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import zlib
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waitgraph import cli, errors, states
from waitgraph.analysis import extract_features, representative
from waitgraph.cli import main
from waitgraph.graph import build_span_graph, canonicalize
from waitgraph.states import COUNTERS, build_state_db
from waitgraph.events import (EventKind, atomic_output, extract_spans, iter_trace,
                              read_trace, write_trace)
from waitgraph.synth import ScenarioSpec, generate
from conftest import SRC, damaged_gzips, zlib_whole_lines
from oracles import counter_lines_by_scan
from randtrace import random_trace


@pytest.fixture(scope="module")
def lock_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("lockrun")
    rc = main(["synth", "--scenario", "lock", "--seed", "7", "--spans", "24",
               "--out-dir", str(out)])
    assert rc == 0
    return out


def _gt(lock_dir: Path) -> dict:
    return json.loads((lock_dir / "ground_truth.json").read_text())


def test_synth_writes_trace_and_ground_truth(lock_dir):
    assert (lock_dir / "trace.jsonl").exists()
    assert (lock_dir / "ground_truth.json").exists()
    events = read_trace(lock_dir / "trace.jsonl")
    assert len(extract_spans(events).spans) == 24


def test_synth_rerun_is_byte_identical(lock_dir, tmp_path):
    rc = main(["synth", "--scenario", "lock", "--seed", "7", "--spans", "24",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trace.jsonl").read_bytes() == \
        (lock_dir / "trace.jsonl").read_bytes()
    assert (tmp_path / "ground_truth.json").read_bytes() == \
        (lock_dir / "ground_truth.json").read_bytes()


def test_synth_bad_fraction_exits_2(tmp_path, capsys):
    rc = main(["synth", "--scenario", "lock", "--slow-fraction", "1.5",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_synth_gz_round_trips(tmp_path):
    rc = main(["synth", "--scenario", "cpu", "--seed", "3", "--spans", "4",
               "--gz", "--out-dir", str(tmp_path)])
    assert rc == 0
    trace = tmp_path / "trace.jsonl.gz"
    assert trace.read_bytes()[:2] == b"\x1f\x8b"
    events = read_trace(trace)
    assert len(extract_spans(events).spans) == 4


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--scenario", "lock", "--frobnicate", "1",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_graph_fast_span_single_node_dot(lock_dir, tmp_path):
    fast = next(s["span_id"] for s in _gt(lock_dir)["spans"] if s["label"] == "fast")
    out = tmp_path / "fast.dot"
    rc = main(["graph", str(lock_dir / "trace.jsonl"), "--span", fast,
               "--out", str(out)])
    assert rc == 0
    dot = out.read_text()
    assert dot.count("->") == 0 and "apache2" in dot


@pytest.mark.parametrize("canonical", [False, True], ids=["plain", "canonical"])
def test_graph_slow_span_fcntl_label(lock_dir, tmp_path, capsys, canonical):
    slow = next(s["span_id"] for s in _gt(lock_dir)["spans"] if s["label"] == "slow")
    out = tmp_path / "slow.dot"
    jout = tmp_path / "slow.json"
    rc = main(["graph", str(lock_dir / "trace.jsonl"), "--span", slow,
               "--out", str(out), "--json", str(jout),
               *(["--canonical"] if canonical else [])])
    assert rc == 0
    dot = out.read_text()
    m = re.search(r'-> "syscall:(\d+:)?fcntl" \[label="\d+ µs \((\d+)%\)"\]', dot)
    assert m and int(m.group(2)) >= 88, dot
    assert (m.group(1) is None) == canonical, dot  # canonical ids carry no tid
    dumped = json.loads(jout.read_text())
    assert any(n["label"] == "fcntl" for n in dumped["nodes"])
    assert "total" in capsys.readouterr().out


def test_graph_missing_span_exits_3(lock_dir, tmp_path, capsys):
    rc = main(["graph", str(lock_dir / "trace.jsonl"), "--span", "nope",
               "--out", str(tmp_path / "x.dot")])
    assert rc == 3
    assert "not found" in capsys.readouterr().err


# every error class of errors.py, raised by a command, and its exit code
_EXIT_BY_ERROR = [
    (errors.InputError("bad input"), 2),
    (errors.MalformedRecord(3, "bad ts/cpu/tid/comm field"), 2),
    (errors.UnknownEventKind(3, "sched_banana"), 2),
    (errors.NonMonotonicTimestamp(3, 5, 9), 2),
    (errors.NestingViolation("ts=5: syscall_exit(read) on tid 1"), 2),
    (errors.SwitchConflict("ts=5: cpu 0 runs tid 1"), 2),
    (errors.UnmatchedEnd("span 'x' ended at ts=5 with no begin"), 2),
    (errors.OverlappingSpan("span 'x' re-opened at ts=5"), 2),
    (errors.EmptySpan("span 'x' ends at ts=5"), 2),
    (errors.TooFewSpans("k=3 exceeds 2 points"), 2),
    (errors.InvalidParameter("--from 5 must be below --to 5"), 2),
    (errors.RootConflict("cluster mixes roots"), 4),
    (errors.EmptyCluster("representative of zero graphs"), 4),
    (errors.TraceAnalysisError("invariant breached"), 4),
    (OSError(errno.ENOENT, "No such file or directory"), 2),
    (cli._NotFound("span 'x' not found"), 3),
]


def test_exit_code_table_names_every_error_class():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TraceAnalysisError)}
    assert classes <= {type(exc) for exc, _ in _EXIT_BY_ERROR}


@pytest.mark.parametrize("exc, code", _EXIT_BY_ERROR,
                         ids=[type(exc).__name__ for exc, _ in _EXIT_BY_ERROR])
def test_error_raised_by_a_command_exits_with_its_code(tmp_path, monkeypatch,
                                                       capsys, exc, code):
    def failing(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_inspect", failing)
    assert main(["inspect", str(tmp_path / "trace.jsonl")]) == code
    assert capsys.readouterr() == ("", f"error: {exc}\n")


def test_readme_library_example_runs(lock_dir, tmp_path, monkeypatch, capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1] \
        .split("```", 1)[0]
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "trace.jsonl").write_bytes(
        (lock_dir / "trace.jsonl").read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    assert capsys.readouterr().out.startswith("digraph")


def test_graph_determinism(lock_dir, tmp_path):
    slow = next(s["span_id"] for s in _gt(lock_dir)["spans"] if s["label"] == "slow")
    outs = []
    for name in ("a.dot", "b.dot"):
        out = tmp_path / name
        assert main(["graph", str(lock_dir / "trace.jsonl"), "--span", slow,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cluster_matches_ground_truth_and_is_deterministic(lock_dir, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["cluster", str(lock_dir / "trace.jsonl"), "--k", "2",
               "--seed", "0", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    truth = {s["span_id"] for s in _gt(lock_dir)["spans"] if s["label"] == "slow"}
    by_cluster = {0: set(), 1: set()}
    for rec in report["spans"]:
        by_cluster[rec["cluster"]].add(rec["span_id"])
    assert truth in (by_cluster[0], by_cluster[1])
    second = tmp_path / "report2.json"
    assert main(["cluster", str(lock_dir / "trace.jsonl"), "--k", "2",
                 "--seed", "0", "--out", str(second)]) == 0
    assert second.read_bytes() == report_path.read_bytes()


# sha256 of the cluster report and the compare JSON of a 200-span lock trace:
# k-means and the representative statistics sum floats, and these bytes must
# not depend on the Python version
_PINNED_REPORT = "46044fa3ab58cd558ce3e6b8df4ee547d602833b40c07c69d880fc2153bb023a"
_PINNED_COMPARISON = "5317b5a7118c85042ef23c431a057c13ae7393444db5a37a830b9c40266d4dc5"


def test_cluster_and_compare_bytes_match_pinned_digests(tmp_path):
    assert main(["synth", "--scenario", "lock", "--seed", "7", "--spans", "200",
                 "--out-dir", str(tmp_path)]) == 0
    trace, report, comparison = (str(tmp_path / "trace.jsonl"), tmp_path / "r.json",
                                 tmp_path / "c.json")
    assert main(["cluster", trace, "--k", "2", "--seed", "0", "--out", str(report)]) == 0
    assert main(["compare", trace, "--report", str(report), "--left", "0",
                 "--right", "1", "--stat", "duration", "--out", str(tmp_path / "c.dot"),
                 "--json", str(comparison)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == _PINNED_REPORT
    assert hashlib.sha256(comparison.read_bytes()).hexdigest() == _PINNED_COMPARISON


def test_cluster_too_few_spans_exits_2(lock_dir, tmp_path, capsys):
    rc = main(["cluster", str(lock_dir / "trace.jsonl"), "--k", "99",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def cluster_report(lock_dir, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cl") / "report.json"
    assert main(["cluster", str(lock_dir / "trace.jsonl"), "--k", "2",
                 "--seed", "0", "--out", str(path)]) == 0
    return path


def _cluster_of(report_path: Path, label: str, gt: dict) -> int:
    report = json.loads(report_path.read_text())
    wanted = {s["span_id"] for s in gt["spans"] if s["label"] == label}
    for rec in report["spans"]:
        if rec["span_id"] in wanted:
            return rec["cluster"]
    raise AssertionError(label)


@pytest.mark.parametrize("stat", ["count", "duration"])
def test_compare_cluster_with_itself_all_solid(lock_dir, cluster_report, tmp_path,
                                               stat):
    slow_cl = _cluster_of(cluster_report, "slow", _gt(lock_dir))
    out = tmp_path / "self.dot"
    jout = tmp_path / "self.json"
    rc = main(["compare", str(lock_dir / "trace.jsonl"),
               "--report", str(cluster_report),
               "--left", str(slow_cl), "--right", str(slow_cl),
               "--stat", stat, "--out", str(out), "--json", str(jout)])
    assert rc == 0
    diff = json.loads(jout.read_text())
    assert diff["stat"] == stat
    assert diff["edges"], "slow cluster must produce edges"
    assert all(e["style"] == "solid" and e["boldness"] == 1
               for e in diff["edges"])
    # every slow lock span waits the same number of times, for jittered times
    assert all((e["left_std"] > 0) == (stat == "duration") for e in diff["edges"])


def test_compare_fast_vs_slow_marks_fcntl(lock_dir, cluster_report, tmp_path):
    gt = _gt(lock_dir)
    fast_cl = _cluster_of(cluster_report, "fast", gt)
    slow_cl = _cluster_of(cluster_report, "slow", gt)
    out = tmp_path / "cmp.dot"
    jout = tmp_path / "cmp.json"
    rc = main(["compare", str(lock_dir / "trace.jsonl"),
               "--report", str(cluster_report),
               "--left", str(fast_cl), "--right", str(slow_cl),
               "--out", str(out), "--json", str(jout)])
    assert rc == 0
    diff = json.loads(jout.read_text())
    fcntl_edges = [e for e in diff["edges"] if "fcntl" in e["src"] or "fcntl" in e["dst"]]
    assert fcntl_edges
    assert all(e["style"] == "dotted" or (e["boldness"] or 0) >= 4
               for e in fcntl_edges)
    dot = out.read_text()
    assert "style=dotted" in dot


def test_compare_swapped_order_swaps_styles(lock_dir, cluster_report, tmp_path):
    gt = _gt(lock_dir)
    fast_cl = _cluster_of(cluster_report, "fast", gt)
    slow_cl = _cluster_of(cluster_report, "slow", gt)
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    for left, right, jout in ((fast_cl, slow_cl, j1), (slow_cl, fast_cl, j2)):
        assert main(["compare", str(lock_dir / "trace.jsonl"),
                     "--report", str(cluster_report),
                     "--left", str(left), "--right", str(right),
                     "--out", str(tmp_path / "x.dot"), "--json", str(jout)]) == 0
    one = {(e["src"], e["dst"]): e["style"] for e in json.loads(j1.read_text())["edges"]}
    two = {(e["src"], e["dst"]): e["style"] for e in json.loads(j2.read_text())["edges"]}
    flip = {"dashed": "dotted", "dotted": "dashed", "solid": "solid"}
    assert two == {k: flip[v] for k, v in one.items()}


def test_compare_missing_cluster_exits_3(lock_dir, cluster_report, tmp_path, capsys):
    rc = main(["compare", str(lock_dir / "trace.jsonl"),
               "--report", str(cluster_report), "--left", "0", "--right", "9",
               "--out", str(tmp_path / "x.dot")])
    assert rc == 3
    capsys.readouterr()


def test_inspect_deterministic_output(lock_dir, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        rc = main(["inspect", str(lock_dir / "trace.jsonl"),
                   "--key", "thread/10000/", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert "thread/10000/state" in a.read_text()


def _counter_lines(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line.split("\t")[0].endswith(COUNTERS)]


def test_inspect_counter_lines_match_event_scan(lock_dir, capsys):
    trace = str(lock_dir / "trace.jsonl")
    events = read_trace(trace)
    t_max = events[-1].ts
    assert main(["inspect", trace, "--key", "thread/"]) == 0
    full = _counter_lines(capsys.readouterr().out)
    assert full and full == counter_lines_by_scan(events, 0, t_max + 1)
    # a window whose bounds both fall strictly inside counter steps
    stamps = sorted({ev.ts for ev in events if ev.kind is EventKind.PAGE_FAULT})
    t_a, t_b = stamps[10] + 1, stamps[-10] + 1
    assert main(["inspect", trace, "--key", "thread/",
                 "--from", str(t_a), "--to", str(t_b)]) == 0
    window = _counter_lines(capsys.readouterr().out)
    assert window == counter_lines_by_scan(events, t_a, t_b)
    assert any(f"[{t_a}, " in line for line in window)
    assert any(f", {t_b})" in line for line in window)


def test_counters_beyond_int64(tmp_path, capsys, monkeypatch):
    big = 2 ** 64
    records = [
        {"kind": "span_begin", "span_id": "s0", "ts": big},
        {"kind": "io_read", "bytes": big, "ts": big + 1},
        {"kind": "span_end", "span_id": "s0", "ts": big + 2},
        {"kind": "page_fault", "ts": big + 3},
    ]
    trace = tmp_path / "big.jsonl"
    trace.write_text("".join(
        json.dumps({"cpu": 0, "tid": 5, "comm": "w", **rec}) + "\n"
        for rec in records))
    events = read_trace(trace)
    span, = extract_spans(events).spans
    assert extract_features(build_state_db(events), span).bytes_read == big
    folds = _count_folds(monkeypatch)
    for run in (1, 2):
        assert main(["inspect", str(trace), "--key", "thread/5/bytes_read"]) == 0
        assert capsys.readouterr().out == \
            f"thread/5/bytes_read\t[{big + 1}, {big + 3})\t{big}\n"
        # the sidecar's columns are int64: no sidecar, so every run folds
        assert not _sidecar(trace).exists() and len(folds) == run


def test_outputs_follow_the_umask(lock_dir, tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["synth", "--scenario", "lock", "--seed", "1", "--spans", "2",
                     "--out-dir", str(tmp_path)]) == 0
        out = tmp_path / "g.dot"
        assert main(["graph", str(lock_dir / "trace.jsonl"), "--span", "s0000",
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for path in (tmp_path / "trace.jsonl", tmp_path / "ground_truth.json", out):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


def test_module_entry_point_runs(tmp_path):
    env = {"PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "waitgraph.cli", "synth", "--scenario", "cpu",
         "--seed", "1", "--spans", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trace.jsonl").exists()


# -- what a command loads, and the parser it builds -----------------------------

# run as `python -c _COMMAND ARGV...`: main's exit code, and the last line
# of stdout lists the waitgraph modules loaded
_COMMAND = """
import json, sys
from waitgraph.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("waitgraph"))))
sys.exit(code)
"""


def _fresh(*argv: str) -> list[str]:
    """The waitgraph modules a command loads in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _COMMAND, *argv], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_graph_and_inspect_load_neither_analysis_nor_synth(small_lock_dir, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes((small_lock_dir / "trace.jsonl").read_bytes())
    graph = ["graph", str(trace), "--span", "s0000", "--out", str(tmp_path / "g.dot")]
    inspect = ["inspect", str(trace), "--out", str(tmp_path / "i.txt")]
    loaded = ["waitgraph", "waitgraph.cli", "waitgraph.errors", "waitgraph.events",
              "waitgraph.graph", "waitgraph.states"]
    assert _fresh(*graph) == loaded  # folds and writes the sidecar
    assert _sidecar(trace).exists()
    assert _fresh(*graph) == _fresh(*inspect) == loaded  # restored


def test_synth_cluster_and_compare_run_in_a_fresh_interpreter(tmp_path):
    trace, report = tmp_path / "trace.jsonl", tmp_path / "report.json"
    assert "waitgraph.synth" in _fresh("synth", "--scenario", "lock", "--seed", "7",
                                       "--spans", "12", "--out-dir", str(tmp_path))
    assert "waitgraph.analysis" in _fresh("cluster", str(trace), "--out", str(report))
    assert "waitgraph.analysis" in _fresh(
        "compare", str(trace), "--report", str(report), "--left", "0", "--right", "1",
        "--stat", "duration", "--out", str(tmp_path / "diff.dot"))
    assert (tmp_path / "diff.dot").read_text().startswith("digraph")


# the names `import waitgraph` exports, as `from waitgraph import *` bound them
# when the package imported every module up front
_PUBLIC_NAMES = [
    "BlockReason", "Clustering", "ComparisonGraph", "DepEdge", "DepGraph", "DepNode",
    "EdgeStyle", "EmptyCluster", "EmptySpan", "EventKind", "ExecutionSpan",
    "FEATURE_NAMES", "FeatureVector", "InputError", "InvalidParameter",
    "MalformedRecord", "NestingViolation", "NonMonotonicTimestamp", "OverlappingSpan",
    "RepresentativeGraph", "RootConflict", "ScenarioSpec", "SpanExtraction",
    "StateDatabase", "StateKind", "StateValue", "SwitchConflict", "ThreadState",
    "TooFewSpans", "TraceAnalysisError", "TraceEvent", "UnknownEventKind",
    "UnmatchedEnd", "add_edge", "analysis", "build_depgraph", "build_span_graph",
    "build_state_db", "canonicalize", "cluster_spans", "clustering_report_dict",
    "compare", "comparison_to_dot", "comparison_to_json_dict", "errors", "events",
    "extract_features", "extract_spans", "generate", "generate_files", "graph",
    "iter_events", "iter_trace", "kmeans", "normalize_features",
    "read_clustering_report", "read_trace", "representative", "states", "synth",
    "to_dot", "to_json_dict", "write_trace",
]

# run in a fresh interpreter, where the analysis and synth names are not loaded
_NAMES_CHECK = """
import sys
import waitgraph
names = sys.argv[1:]
assert "waitgraph.analysis" not in sys.modules and "waitgraph.synth" not in sys.modules
assert sorted(waitgraph.__all__) == names, waitgraph.__all__
assert set(names) <= set(dir(waitgraph))
# first use by attribute, and by from-import
assert waitgraph.kmeans is sys.modules["waitgraph.analysis"].kmeans
from waitgraph import ScenarioSpec
assert ScenarioSpec is sys.modules["waitgraph.synth"].ScenarioSpec
for name in names:
    bound = {}
    exec(f"from waitgraph import {name}", bound)
    assert bound[name] is getattr(waitgraph, name), name
star = {}
exec("from waitgraph import *", star)
assert sorted(set(star) - {"__builtins__"}) == names
try:
    waitgraph.nope
except AttributeError as exc:
    assert "'nope'" in str(exc), exc
else:
    raise AssertionError("waitgraph.nope resolved")
try:
    from waitgraph import nope
except ImportError as exc:
    assert "'nope'" in str(exc), exc
else:
    raise AssertionError("from waitgraph import nope bound a name")
"""


def test_public_names_resolve_every_way():
    proc = subprocess.run([sys.executable, "-c", _NAMES_CHECK, *_PUBLIC_NAMES],
                          capture_output=True, text=True, env={"PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr


_PARSER_ARGV = [
    ["--help"],
    *([command, "--help"]
      for command in ("synth", "graph", "cluster", "compare", "inspect")),
    ["synth", "--scenario", "nope", "--out-dir", "x"],
    ["compare", "t", "--report", "r", "--left", "0", "--right", "1", "--out", "o",
     "--stat", "nope"],
    ["graph", "t", "--out", "o"],
    [], ["nope"], ["--", "graph", "--help"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=lambda argv: " ".join(argv) or "none")
def test_parser_prints_what_an_eager_parser_prints(argv):
    """main gives only the subcommand it runs its arguments; its help and
    usage errors are byte for byte those of a parser that gives every
    subcommand its arguments, in this interpreter's argparse."""
    def parse(parse_args) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exit:
            parse_args(list(argv))
        return exit.value.code, out.getvalue(), err.getvalue()
    lazy = parse(main)
    assert lazy == parse(cli.build_parser().parse_args)
    assert lazy[1] or lazy[2]


def test_singleton_cluster_representative_equals_canonical_graph(lock_dir):
    events = read_trace(lock_dir / "trace.jsonl")
    db = build_state_db(events)
    spans = extract_spans(events).spans
    span = spans[0]
    cg = canonicalize(build_span_graph(db, span))
    rep = representative([cg])
    assert set(rep.edges) == set(cg.edges)
    for key, e in rep.edges.items():
        assert e.mean_weight_ns == cg.edges[key].weight_ns
        assert e.mean_count == cg.edges[key].count
    for nid, node in rep.nodes.items():
        assert node.mean_total_ns == cg.nodes[nid].total_ns


def test_inspect_to_stdout(lock_dir, capsys):
    rc = main(["inspect", str(lock_dir / "trace.jsonl"), "--key", "disk/"])
    assert rc == 0
    assert capsys.readouterr().out == ""  # lock scenario touches no disk
    rc = main(["inspect", str(lock_dir / "trace.jsonl"), "--key", "cpu/"])
    assert rc == 0
    assert "cpu/0/current_tid" in capsys.readouterr().out


def test_cluster_report_schema(cluster_report):
    report = json.loads(cluster_report.read_text())
    assert {"k", "seed", "features", "spans", "centroids"} <= set(report)
    assert report["k"] == 2
    for rec in report["spans"]:
        assert {"span_id", "cluster", "vector"} <= set(rec)
        assert len(rec["vector"]) == len(report["features"])


def test_comparison_dot_has_penwidth(lock_dir, cluster_report, tmp_path):
    gt = _gt(lock_dir)
    fast_cl = _cluster_of(cluster_report, "fast", gt)
    slow_cl = _cluster_of(cluster_report, "slow", gt)
    out = tmp_path / "c.dot"
    assert main(["compare", str(lock_dir / "trace.jsonl"),
                 "--report", str(cluster_report),
                 "--left", str(fast_cl), "--right", str(slow_cl),
                 "--out", str(out)]) == 0
    assert "penwidth=" in out.read_text()


# -- malformed input exits 2 with an error line, never a traceback -------------


def _exits_2(argv: list[str], capsys) -> str:
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ")
    return err


def _compare_argv(lock_dir: Path, report: Path, out: Path) -> list[str]:
    return ["compare", str(lock_dir / "trace.jsonl"), "--report", str(report),
            "--left", "0", "--right", "1", "--out", str(out)]


def test_compare_empty_report_exits_2(lock_dir, tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text("{}")
    err = _exits_2(_compare_argv(lock_dir, report, tmp_path / "x.dot"), capsys)
    assert "spans" in err


@pytest.mark.parametrize("text", ["clusters: 0, 1\n",
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["not_json", "too_deep"])
def test_compare_non_json_report_exits_2(lock_dir, tmp_path, capsys, text):
    report = tmp_path / "r.json"
    report.write_text(text)
    _exits_2(_compare_argv(lock_dir, report, tmp_path / "x.dot"), capsys)


@pytest.mark.parametrize("field", ["span_id", "cluster"])
def test_compare_report_record_missing_field_exits_2(lock_dir, cluster_report,
                                                     tmp_path, capsys, field):
    report = json.loads(cluster_report.read_text())
    del report["spans"][1][field]
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(report))
    err = _exits_2(_compare_argv(lock_dir, bad, tmp_path / "x.dot"), capsys)
    assert "spans[1]" in err


@pytest.mark.parametrize("other_cluster", [False, True], ids=["same_cluster", "across"])
def test_compare_report_listing_a_span_twice_exits_2(lock_dir, cluster_report, tmp_path,
                                                     capsys, other_cluster):
    report = json.loads(cluster_report.read_text())
    copy = dict(report["spans"][0])
    if other_cluster:
        copy["cluster"] = 1 - copy["cluster"]
    report["spans"].append(copy)
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(report))
    err = _exits_2(_compare_argv(lock_dir, bad, tmp_path / "x.dot"), capsys)
    assert repr(copy["span_id"]) in err


def test_directory_as_trace_exits_2(tmp_path, capsys):
    _exits_2(["graph", str(tmp_path), "--span", "s0000",
              "--out", str(tmp_path / "x.dot")], capsys)


def test_output_under_regular_file_exits_2(lock_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _exits_2(["graph", str(lock_dir / "trace.jsonl"), "--span", "s0000",
              "--out", str(blocker / "sub" / "x.dot")], capsys)


def _graph_argv(lock_dir: Path, out: Path) -> list[str]:
    return ["graph", str(lock_dir / "trace.jsonl"), "--span", "s0000", "--out", str(out)]


def _reference_dot(lock_dir: Path, tmp_path: Path) -> bytes:
    ref = tmp_path / "ref" / "g.dot"
    assert main(_graph_argv(lock_dir, ref)) == 0
    return ref.read_bytes()


@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "symlink_to_fifo"])
def test_out_writes_through_a_fifo(lock_dir, tmp_path, via_link):
    expected = _reference_dot(lock_dir, tmp_path)
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    out = fifo
    if via_link:
        out = tmp_path / "g.dot"
        out.symlink_to(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as fh:
            got.append(fh.read())
    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        assert main(_graph_argv(lock_dir, out)) == 0
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # nothing opened the FIFO: let the reader go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert out.is_symlink() == via_link
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted({"ref", "g.fifo", out.name})


def test_out_through_a_symlink_replaces_its_target(lock_dir, tmp_path):
    expected = _reference_dot(lock_dir, tmp_path)
    target = tmp_path / "target.dot"
    target.write_text("old\n")
    link = tmp_path / "g.dot"
    link.symlink_to(target.name)
    assert main(_graph_argv(lock_dir, link)) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.dot", "ref", "target.dot"]


def test_out_directory_exits_2_naming_only_it(lock_dir, tmp_path, capsys):
    out = tmp_path / "g.dot"
    out.mkdir()
    err = _exits_2(_graph_argv(lock_dir, out), capsys)
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: " \
                  f"{str(out)!r}\n"
    assert list(tmp_path.iterdir()) == [out] and not list(out.iterdir())


def test_non_utf8_trace_exits_2_with_line(lock_dir, tmp_path, capsys):
    lines = (lock_dir / "trace.jsonl").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"comm":"', b'"comm":"\xff', 1)
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b"".join(lines))
    err = _exits_2(["graph", str(trace), "--span", "s0000",
                    "--out", str(tmp_path / "x.dot")], capsys)
    assert "line 3" in err


def test_graph_negative_max_depth_exits_2(lock_dir, tmp_path, capsys):
    out = tmp_path / "x.dot"
    err = _exits_2(["graph", str(lock_dir / "trace.jsonl"), "--span", "s0000",
                    "--max-depth", "-1", "--out", str(out)], capsys)
    assert "max_depth" in err
    assert not out.exists()


def test_wait_chain_deeper_than_recursion_limit_exits_2(tmp_path, capsys):
    # tid k blocks and hands the cpu to k + 1; then each thread wakes the
    # one before it, so the walk from tid 1 recurses once per chain link
    n = 700
    records = [{"ts": 1, "kind": "span_begin", "span_id": "x"}]
    for k in range(1, n):
        records.append({"ts": 1 + k, "tid": k, "kind": "sched_switch", "prev_tid": k,
                        "prev_state": "blocked", "next_tid": k + 1})
    for i, k in enumerate(range(n - 1, 0, -1)):
        ts = n + 1 + 2 * i
        records.append({"ts": ts, "tid": k + 1, "kind": "sched_wakeup",
                        "waker_tid": k + 1, "wakee_tid": k, "waker_context": "task"})
        records.append({"ts": ts + 1, "tid": k + 1, "kind": "sched_switch",
                        "prev_tid": k + 1, "prev_state": "blocked", "next_tid": k})
    records.append({"ts": 3 * n, "kind": "span_end", "span_id": "x"})
    trace = _jsonl(tmp_path, *records)
    out = tmp_path / "x.dot"
    err = _exits_2(["graph", str(trace), "--span", "x", "--max-depth", "1000",
                    "--out", str(out)], capsys)
    assert "max_depth" in err
    assert not out.exists()
    assert main(["graph", str(trace), "--span", "x", "--out", str(out)]) == 0


def test_graph_negative_min_edge_us_exits_2(lock_dir, tmp_path, capsys):
    out = tmp_path / "x.dot"
    err = _exits_2(["graph", str(lock_dir / "trace.jsonl"), "--span", "s0000",
                    "--min-edge-us", "-1", "--out", str(out)], capsys)
    assert "min_edge_us" in err
    assert not out.exists()


@pytest.mark.parametrize("bounds", [("10", "5"), ("7", "7")], ids=["reversed", "empty"])
def test_inspect_from_not_below_to_exits_2(lock_dir, capsys, bounds):
    err = _exits_2(["inspect", str(lock_dir / "trace.jsonl"),
                    "--from", bounds[0], "--to", bounds[1]], capsys)
    assert "--from" in err


def _jsonl(tmp_path: Path, *records: dict) -> Path:
    trace = tmp_path / "t.jsonl"
    trace.write_text("".join(
        json.dumps({"cpu": 0, "tid": 1, "comm": "w", **rec}) + "\n"
        for rec in records))
    return trace


def test_inspect_ignores_unmatched_span_markers(tmp_path, capsys):
    trace = _jsonl(tmp_path, {"ts": 1, "kind": "page_fault"},
                   {"ts": 2, "kind": "span_end", "span_id": "x"},
                   {"ts": 3, "kind": "page_fault"})
    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "thread/1/state\t[1, 3)\trunning\n" in out
    assert "thread/1/pagefaults\t[1, 3)\t1\n" in out


def test_orphan_syscall_exit_exits_2_with_ts(tmp_path, capsys):
    trace = _jsonl(tmp_path, {"ts": 5, "kind": "syscall_exit", "name": "read"})
    err = _exits_2(["graph", str(trace), "--span", "s0000",
                    "--out", str(tmp_path / "x.dot")], capsys)
    assert "ts=5" in err and "tid 1" in err
    assert not _sidecar(trace).exists()  # a failed fold caches nothing


@pytest.mark.parametrize("line", [
    '{"ts":' + "9" * 5000 + ',"cpu":0,"tid":1,"comm":"w","kind":"page_fault"}\n',
    "[" * 100_000 + "\n"], ids=["long_integer", "too_deep"])
def test_undecodable_trace_line_exits_2_with_line(tmp_path, capsys, line):
    trace = tmp_path / "t.jsonl"
    trace.write_text(line)
    err = _exits_2(["graph", str(trace), "--span", "s0000",
                    "--out", str(tmp_path / "x.dot")], capsys)
    assert "line 1" in err


@pytest.mark.parametrize("command", ["graph", "cluster"])
def test_zero_length_span_exits_2_with_ts(tmp_path, capsys, command):
    trace = _jsonl(tmp_path, {"ts": 7, "kind": "span_begin", "span_id": "s0000"},
                   {"ts": 7, "kind": "span_end", "span_id": "s0000"})
    argv = [command, str(trace), "--out", str(tmp_path / "x.out")]
    err = _exits_2(argv + (["--span", "s0000"] if command == "graph" else []),
                   capsys)
    assert "'s0000'" in err and "ts=7" in err


@pytest.mark.parametrize("command", ["graph", "cluster", "compare"])
def test_reused_span_id_exits_2_naming_both_begins(tmp_path, capsys, command):
    markers = [("span_begin", "a", 10), ("span_end", "a", 30), ("span_begin", "b", 40),
               ("span_end", "b", 50), ("span_begin", "a", 60), ("span_end", "a", 90)]
    trace = _jsonl(tmp_path, *({"ts": ts, "kind": kind, "span_id": sid}
                               for kind, sid, ts in markers))
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"spans": [{"span_id": "a", "cluster": 0},
                                            {"span_id": "b", "cluster": 1}]}))
    out = tmp_path / "x.out"
    extra = {"graph": ["--span", "a"], "cluster": [],
             "compare": ["--report", str(report), "--left", "0", "--right", "1"]}
    err = _exits_2([command, str(trace), "--out", str(out), *extra[command]], capsys)
    assert "'a'" in err and "ts=10" in err and "ts=60" in err
    assert not out.exists()
    assert main(["inspect", str(trace)]) == 0


@pytest.mark.parametrize("flag", ["--fast-us", "--slowdown"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e306", "1e308"])
def test_synth_non_finite_float_exits_2(tmp_path, capsys, flag, value):
    err = _exits_2(["synth", "--scenario", "lock", "--spans", "2", flag, value,
                    "--out-dir", str(tmp_path)], capsys)
    assert flag[2:].replace("-", "_") in err
    assert not (tmp_path / "trace.jsonl").exists()


@pytest.mark.parametrize("damage", ["cut", "flipped", "magic"])
@pytest.mark.parametrize("command", [["inspect"], ["graph", "--span", "s0000"]],
                         ids=["inspect", "graph"])
def test_damaged_gzip_trace_exits_2_and_writes_no_sidecar(tmp_path, capsys, command,
                                                          damage):
    assert main(["synth", "--scenario", "lock", "--spans", "4", "--gz",
                 "--out-dir", str(tmp_path)]) == 0
    trace = tmp_path / "trace.jsonl.gz"
    trace.write_bytes(damaged_gzips(trace.read_bytes())[damage])
    capsys.readouterr()
    out = tmp_path / "x.out"
    err = _exits_2([command[0], str(trace), *command[1:], "--out", str(out)], capsys)
    assert "gzip stream" in err
    assert not out.exists()
    assert not (tmp_path / "trace.jsonl.gz.wgstate").exists()


@pytest.mark.parametrize("start", [200, 400, 1000])
def test_gzip_corrupt_mid_stream_names_the_first_line_not_decoded_whole(tmp_path, capsys,
                                                                        start):
    assert main(["synth", "--scenario", "lock", "--seed", "1", "--spans", "4", "--gz",
                 "--out-dir", str(tmp_path)]) == 0
    trace = tmp_path / "trace.jsonl.gz"
    packed = bytearray(trace.read_bytes())
    for i in range(start, start + 50):
        packed[i] ^= 0xFF
    trace.write_bytes(packed)
    with pytest.raises(zlib.error):
        zlib.decompress(packed, 31)
    whole = zlib_whole_lines(bytes(packed))
    n_whole = whole.count(b"\n")
    assert n_whole >= 3
    # the lines decoded whole fail as they would in a plain trace; if
    # they pass, the next line fails on the gzip stream
    try:
        build_state_db(iter_trace(whole))
        expected = f"line {n_whole + 1}: gzip stream: "
    except errors.InputError as exc:
        expected = f"{exc}\n"
    capsys.readouterr()
    out = tmp_path / "x.dot"
    err = _exits_2(["graph", str(trace), "--span", "s0000", "--out", str(out)], capsys)
    assert err.startswith(f"error: {expected}")
    assert not out.exists()
    assert not _sidecar(trace).exists()


def test_synth_spans_too_short_for_the_plan_exit_2_and_write_nothing(tmp_path, capsys):
    # the fast lock span would exit its syscall before entering it
    err = _exits_2(["synth", "--scenario", "lock", "--fast-us", "1", "--filler-events",
                    "0", "--slow-fraction", "0", "--spans", "4",
                    "--out-dir", str(tmp_path)], capsys)
    assert "ts=4507" in err and "ts=4906" in err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def small_lock_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("small")
    assert main(["synth", "--scenario", "lock", "--seed", "3", "--spans", "2",
                 "--filler-events", "0", "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def small_mixed_dir(tmp_path_factory) -> Path:
    # lock, cpu and disk spans: the irq, softirq and hrtimer families nest here
    out = tmp_path_factory.mktemp("small_mixed")
    assert main(["synth", "--scenario", "mixed", "--seed", "3", "--spans", "6",
                 "--filler-events", "0", "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("scenario", ["lock", "mixed"])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_mutated_trace_never_escapes_exit_codes(small_lock_dir, small_mixed_dir,
                                                scenario, data):
    out = small_lock_dir if scenario == "lock" else small_mixed_dir
    trace = bytearray((out / "trace.jsonl").read_bytes())
    positions = st.integers(0, len(trace) - 1)
    for pos, byte in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)),
                                        min_size=1, max_size=3)):
        trace[pos] = byte
    path = out / "mutated.jsonl"
    path.write_bytes(bytes(trace))
    rc = main(["graph", str(path), "--span", "s0000",
               "--out", str(out / "mutated.dot")])
    assert rc in (0, 2, 3)


@pytest.fixture(scope="module")
def small_report(small_lock_dir) -> bytes:
    path = small_lock_dir / "report.json"
    assert main(["cluster", str(small_lock_dir / "trace.jsonl"), "--k", "2",
                 "--out", str(path)]) == 0
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_mutated_report_never_escapes_exit_codes(small_lock_dir, small_report, data):
    report = bytearray(small_report)
    positions = st.integers(0, len(report) - 1)
    for pos, byte in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)),
                                        min_size=1, max_size=3)):
        report[pos] = byte
    path = small_lock_dir / "mutated_report.json"
    path.write_bytes(bytes(report))
    rc = main(_compare_argv(small_lock_dir, path, small_lock_dir / "mutated_cmp.dot"))
    assert rc in (0, 2, 3)


# -- the state sidecar: a cache that never changes what a command does ---------


def _sidecar(trace: Path) -> Path:
    return Path(f"{trace}.wgstate")


def _count_folds(monkeypatch) -> list[int]:
    folds = []
    fold = states.build_state_db

    def counted(events):
        folds.append(1)
        return fold(events)
    monkeypatch.setattr(states, "build_state_db", counted)
    return folds


def _run(argv: list[str], outputs: list[Path]) -> tuple:
    """Exit code, stdout, stderr and output bytes of one command."""
    for path in outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), \
        [path.read_bytes() if path.exists() else None for path in outputs]


def _assert_same_state(db, ref, events) -> None:
    """db holds the state of ref, and both hold the completed spans that
    extract_spans finds in events, by id in begin order."""
    assert db.keys() == ref.keys()
    for key in ref.keys():
        assert db.intervals(key) == ref.intervals(key), key
    assert list(db.comms.items()) == list(ref.comms.items())
    for tid in ref.comms:
        for counter in COUNTERS:
            assert db.counter_steps(tid, counter) == ref.counter_steps(tid, counter)
    assert (db.t_min, db.t_max, db.events_consumed) == \
        (ref.t_min, ref.t_max, ref.events_consumed)
    assert db.disk_keys == ref.disk_keys
    completed = extract_spans(events).spans
    spans = {span.span_id: span for span in completed}
    assert len(spans) == len(completed)  # no id is reused
    assert db.spans() == ref.spans() == spans
    assert list(db.spans()) == list(ref.spans()) == list(spans)


@pytest.mark.parametrize("name", ["lock", "disk", "cpu", "mixed",
                                  "randtrace0", "randtrace1", "randtrace2"])
def test_sidecar_restores_the_folded_state(tmp_path, monkeypatch, name):
    if name.startswith("randtrace"):
        events = random_trace(int(name[-1]), 700, with_spans=True)
    else:
        events = generate(ScenarioSpec(name, seed=5, n_spans=12))[0]
    trace = tmp_path / "trace.jsonl"
    write_trace(events, trace)
    ref = build_state_db(events)
    if name.startswith("randtrace"):
        assert len(ref.disk_keys) == 2
    folds = _count_folds(monkeypatch)
    _assert_same_state(cli._load_pipeline(str(trace)), ref, events)
    assert _sidecar(trace).exists()
    _assert_same_state(cli._load_pipeline(str(trace)), ref, events)
    assert len(folds) == 1


def test_key_with_a_newline_writes_no_sidecar(tmp_path, monkeypatch):
    # a device name may hold any character; the sidecar cannot name its key
    trace = _jsonl(tmp_path, {"ts": 1, "kind": "span_begin", "span_id": "x"},
                   {"ts": 2, "kind": "block_rq_issue", "dev": "sd\na"},
                   {"ts": 3, "kind": "block_rq_complete", "dev": "sd\na"},
                   {"ts": 4, "kind": "span_end", "span_id": "x"})
    folds = _count_folds(monkeypatch)
    outputs = [tmp_path / "x.json"]
    for command in (["inspect", str(trace)],
                    ["graph", str(trace), "--span", "x", "--out", str(tmp_path / "x.dot"),
                     "--json", str(outputs[0])]):
        cold = _run(command, outputs)
        assert cold[0] == 0 and not _sidecar(trace).exists()
        assert _run(command, outputs) == cold
    assert "disk/sd\na/active_tid" in _run(["inspect", str(trace)], [])[1]
    assert len(folds) == 5


@pytest.mark.parametrize("command", ["graph", "cluster", "compare", "inspect"])
def test_sidecar_outputs_identical_cold_warm_and_deleted(lock_dir, tmp_path,
                                                         monkeypatch, command):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes((lock_dir / "trace.jsonl").read_bytes())
    report = tmp_path / "report.json"
    if command == "compare":
        assert main(["cluster", str(trace), "--out", str(report)]) == 0
        _sidecar(trace).unlink()
    outputs = [tmp_path / "a.out", tmp_path / "b.out"]
    argv = {
        "graph": ["--span", "s0003", "--out", str(outputs[0]), "--json", str(outputs[1])],
        "cluster": ["--k", "2", "--out", str(outputs[0])],
        "compare": ["--report", str(report), "--left", "0", "--right", "1",
                    "--out", str(outputs[0]), "--json", str(outputs[1])],
        "inspect": ["--key", "thread/"],
    }[command]
    folds = _count_folds(monkeypatch)
    cold = _run([command, str(trace), *argv], outputs)
    assert cold[0] == 0 and len(folds) == 1
    assert _run([command, str(trace), *argv], outputs) == cold
    assert len(folds) == 1
    _sidecar(trace).unlink()
    assert _run([command, str(trace), *argv], outputs) == cold
    assert len(folds) == 2


def test_sidecar_invalidated_by_rewriting_the_trace_in_place(small_lock_dir, tmp_path):
    trace = tmp_path / "trace.jsonl"
    original = (small_lock_dir / "trace.jsonl").read_bytes()
    trace.write_bytes(original)
    argv = ["graph", str(trace), "--span", "s0000", "--out", str(tmp_path / "g.dot")]
    outputs = [tmp_path / "g.dot"]
    before = _run(argv, outputs)
    stat_before = trace.stat()
    # same size and mtime, other bytes: only the content hash can tell
    rewritten = original.replace(b'"comm":"apache2"', b'"comm":"apache3"')
    assert rewritten != original and len(rewritten) == len(original)
    trace.write_bytes(rewritten)
    os.utime(trace, ns=(stat_before.st_atime_ns, stat_before.st_mtime_ns))
    after = _run(argv, outputs)
    assert after[0] == 0 and "apache3" in after[1] and after != before
    fresh = tmp_path / "fresh.jsonl"
    fresh.write_bytes(rewritten)
    assert _run(["graph", str(fresh), "--span", "s0000",
                 "--out", str(tmp_path / "g.dot")], outputs) == after
    assert _sidecar(trace).read_bytes() == _sidecar(fresh).read_bytes()


# span markers as (kind, span id, ts), and the span error they make
_SPAN_ERROR_TRACES = {
    "orphan_end": ([("end", "x", 2)],
                   errors.UnmatchedEnd, "span 'x' ended at ts=2 with no begin"),
    "reopened": ([("begin", "x", 2), ("begin", "x", 3), ("end", "x", 4)],
                 errors.OverlappingSpan, "span 'x' re-opened at ts=3"),
    "reused": ([("begin", "x", 2), ("end", "x", 3), ("begin", "x", 4), ("end", "x", 5)],
               errors.OverlappingSpan,
               "span 'x' is used twice: it begins at ts=2 and at ts=4"),
    "zero_length": ([("begin", "x", 2), ("end", "x", 2)],
                    errors.EmptySpan, "span 'x' ends at ts=2, not after its begin at ts=2"),
    # every marker is matched before ids are compared, wherever the reuse is
    "bad_marker_before_duplicate": (
        [("begin", "x", 2), ("end", "x", 2), ("begin", "y", 3), ("end", "y", 4),
         ("begin", "y", 5), ("end", "y", 6)],
        errors.EmptySpan, "span 'x' ends at ts=2, not after its begin at ts=2"),
    "duplicate_before_bad_marker": (
        [("begin", "y", 2), ("end", "y", 3), ("begin", "y", 4), ("end", "y", 5),
         ("end", "x", 6)],
        errors.UnmatchedEnd, "span 'x' ended at ts=6 with no begin"),
}


@pytest.mark.parametrize("case", _SPAN_ERROR_TRACES)
def test_span_error_is_cached_but_still_fails_graph(tmp_path, monkeypatch, case):
    markers, error, message = _SPAN_ERROR_TRACES[case]
    trace = _jsonl(tmp_path, {"ts": 1, "kind": "page_fault"},
                   *({"ts": ts, "kind": f"span_{kind}", "span_id": sid}
                     for kind, sid, ts in markers),
                   {"ts": 9, "kind": "page_fault"})
    with pytest.raises(error, match=re.escape(message)):
        build_state_db(read_trace(trace)).spans()
    folds = _count_folds(monkeypatch)
    graph = ["graph", str(trace), "--span", "x", "--out", str(tmp_path / "x.dot")]
    cold = _run(graph, [])
    assert cold[0] == 2 and cold[2] == f"error: {message}\n"
    written = _sidecar(trace).stat()
    assert _run(graph, []) == cold
    assert _sidecar(trace).stat().st_ino == written.st_ino  # not rewritten
    inspect = _run(["inspect", str(trace)], [])
    assert inspect[0] == 0 and "thread/1/state\t[1, 9)\trunning\n" in inspect[1]
    assert len(folds) == 1
    _sidecar(trace).unlink()
    assert _run(["inspect", str(trace)], []) == inspect
    assert len(folds) == 2


def test_sidecar_is_byte_deterministic(small_lock_dir, tmp_path):
    sidecars = []
    for name in ("a", "b"):
        trace = tmp_path / name / "trace.jsonl"
        trace.parent.mkdir()
        trace.write_bytes((small_lock_dir / "trace.jsonl").read_bytes())
        assert main(["inspect", str(trace), "--key", "cpu/"]) == 0
        sidecars.append(_sidecar(trace).read_bytes())
    assert sidecars[0] == sidecars[1]


def _swap_header_field(sidecar: bytes, index: int) -> bytes:
    """The sidecar with one digest of its header replaced."""
    head, body = sidecar.split(b"\n", 1)
    fields = head.split(b" ")
    fields[index] = hashlib.sha256(b"another").hexdigest().encode()
    return b" ".join(fields) + b"\n" + body


_BAD_SIDECARS = {
    "missing": lambda path, good: path.unlink(),
    "empty": lambda path, good: path.write_bytes(b""),
    "truncated": lambda path, good: path.write_bytes(good[:len(good) // 2]),
    "mutated": lambda path, good: path.write_bytes(
        good[:-9] + bytes([good[-9] ^ 1]) + good[-8:]),
    "stale": lambda path, good: path.write_bytes(_swap_header_field(good, 1)),
    "older_format": lambda path, good: path.write_bytes(_swap_header_field(good, 2)),
    "directory": lambda path, good: (path.unlink(), path.mkdir()),
    "unreadable": lambda path, good: (path.unlink(), path.symlink_to(path.name)),
    "fifo": lambda path, good: (path.unlink(), os.mkfifo(path)),
}


@pytest.mark.parametrize("condition", [*_BAD_SIDECARS, "unwritable"])
def test_bad_sidecar_folds_as_if_absent(small_lock_dir, tmp_path, monkeypatch,
                                        condition):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes((small_lock_dir / "trace.jsonl").read_bytes())
    outputs = [tmp_path / "g.dot"]
    argv = ["graph", str(trace), "--span", "s0001", "--out", str(outputs[0])]
    expected = _run(argv, outputs)
    good = _sidecar(trace).read_bytes()
    if condition == "unwritable":
        _sidecar(trace).unlink()

        def refuse_sidecar(path):
            if str(path).endswith(".wgstate"):
                raise OSError(errno.EROFS, "Read-only file system", str(path))
            return atomic_output(path)
        monkeypatch.setattr(cli, "atomic_output", refuse_sidecar)
    else:
        _BAD_SIDECARS[condition](_sidecar(trace), good)
    folds = _count_folds(monkeypatch)
    assert _run(argv, outputs) == expected
    assert len(folds) == 1
    if condition == "directory":
        assert _sidecar(trace).is_dir()
    elif condition == "unwritable":
        assert not _sidecar(trace).exists()
    else:
        assert _sidecar(trace).read_bytes() == good


@pytest.fixture(scope="module")
def sidecar_case(small_lock_dir) -> tuple:
    """The small lock trace in its own directory, its sidecar and the
    result of `graph` with no sidecar."""
    trace = small_lock_dir / "cached" / "trace.jsonl"
    trace.parent.mkdir()
    trace.write_bytes((small_lock_dir / "trace.jsonl").read_bytes())
    outputs = [trace.parent / "g.dot"]
    argv = ["graph", str(trace), "--span", "s0000", "--out", str(outputs[0])]
    expected = _run(argv, outputs)
    return argv, outputs, _sidecar(trace).read_bytes(), expected


@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_mutated_sidecar_never_changes_the_result(sidecar_case, data):
    argv, outputs, good, expected = sidecar_case
    sidecar = bytearray(good)
    positions = st.integers(0, len(sidecar) - 1)
    for pos, byte in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)),
                                        min_size=1, max_size=3)):
        sidecar[pos] = byte
    _sidecar(Path(argv[1])).write_bytes(bytes(sidecar))
    assert _run(argv, outputs) == expected


def _split_sidecar(sidecar: bytes) -> tuple[list[bytes], dict, array]:
    """The header fields, the decoded index and the int64 blob of a sidecar."""
    head, rest = sidecar.split(b"\n", 1)
    index, body = rest.split(b"\n", 1)
    blob = array("q", body)
    if sys.byteorder == "big":
        blob.byteswap()
    return head.split(b" "), json.loads(index), blob


def _forge_sidecar(fields: list[bytes], index: bytes, body: bytes) -> bytes:
    """A sidecar with the given body under a checksum that matches it."""
    digest = hashlib.sha256(index + body).hexdigest().encode()
    return b" ".join([*fields[:-1], digest]) + b"\n" + index + body


def _forge(edit):
    """A forgery that applies edit(index, blob) to the decoded body."""
    def forge(good: bytes) -> bytes:
        fields, index, blob = _split_sidecar(good)
        edit(index, blob)
        if sys.byteorder == "big":
            blob.byteswap()
        return _forge_sidecar(fields, json.dumps(index, sort_keys=True,
                                                 separators=(",", ":")).encode() + b"\n",
                              blob.tobytes())
    return forge


def _sections(index: dict, blob: array) -> dict[str, int]:
    """Where sections of the blob start (see states._encode_state): after
    t_min, t_max, events_consumed and the counters' numbers of tids."""
    n_keys = sum(map(len, index["keys"]))
    comm_tids = 3 + len(COUNTERS)
    rows = comm_tids + len(index["comms"])
    counters = rows + n_keys
    spans = counters + 2 * sum(blob[3:comm_tids])
    starts = spans + 3 * len(index["spans"])
    return {"comm_tids": comm_tids, "rows": rows, "counters": counters, "spans": spans,
            "value_index": starts + 2 * sum(blob[rows:counters])}


def _set_value_index(value_of):
    def edit(index, blob):
        blob[_sections(index, blob)["value_index"]] = value_of(index)
    return edit


def _longer_last_column(index, blob):
    blob[_sections(index, blob)["counters"] - 1] += 1  # the last key's row count


def _negative_length(index, blob):
    rows = _sections(index, blob)["rows"]
    blob[rows + 1] += blob[rows] + 1  # the total stays that of the blob
    blob[rows] = -1


def _pagefault_tids(*tids, steps: bool):
    """An edit that gives the pagefaults counter, which the small lock trace
    leaves empty, these tids with one row each, and that row's stamp and
    total at the blob's end if steps."""
    def edit(index, blob):
        at = _sections(index, blob)["counters"]
        assert blob[3] == 0 and COUNTERS[0] == "pagefaults"
        blob[3] = len(tids)
        blob[at:at] = array("q", [*tids, *[1] * len(tids)])
        if steps:
            blob.extend([1] * 2 * len(tids))
    return edit


def _set_blob(section: str, offset: int, value_of):
    def edit(index, blob):
        at = _sections(index, blob)[section] + offset
        blob[at] = value_of(blob, at)
    return edit


def _negative_counter_size(index, blob):
    """The first counter claims -1 tids, so its two cuts step back over the
    last two key row counts, and the second claims the one tid and row
    count those hold, whose steps go at the blob's end: every other
    section stays where it was."""
    assert blob[3:5].tolist() == [0, 0]
    rows = blob[_sections(index, blob)["counters"] - 1]
    blob[3:5] = array("q", [-1, 1])
    blob.extend([1] * 2 * rows)


def _empty_first_span(index, blob):
    at, n = _sections(index, blob)["spans"], len(index["spans"])
    blob[at + 2 * n] = blob[at + n]  # its end is its start


def _span_error(name: str):
    """An edit that drops every span and stores a span error of class name."""
    def edit(index, blob):
        at = _sections(index, blob)["spans"]
        del blob[at:at + 3 * len(index["spans"])]
        index["spans"] = []
        index["span_error"] = [name, "span 'x' ended at ts=2 with no begin"]
    return edit


def _swap_bounds(index, blob):
    blob[0], blob[1] = blob[1], blob[0]


def _key(family: int, i: int, key_of):
    def edit(index, blob):
        keys = index["keys"][family]
        keys[i] = key_of(keys)
    return edit


def _keys_out_of_order(index, blob):
    keys = index["keys"][0]
    keys[0], keys[1] = keys[1], keys[0]


def _truncated_to_odd_bytes(good: bytes) -> bytes:
    fields, _, _ = _split_sidecar(good)
    index, body = good.split(b"\n", 1)[1].split(b"\n", 1)
    return _forge_sidecar(fields, index + b"\n", body[:-3])


def _index_not_json(good: bytes) -> bytes:
    fields, _, _ = _split_sidecar(good)
    body = good.split(b"\n", 2)[2]
    return _forge_sidecar(fields, b"{not json\n", body)


# Each case breaks one check of states._decode_state and keeps the body
# otherwise valid.  The small lock trace's first int-valued key is
# cpu/0/current_tid and its last thread/900/cpu; it has two syscall keys,
# two comm tids, two spans and no counter steps.
_FORGED_SIDECARS = {
    "interval_column_past_blob": _forge(_longer_last_column),
    "counter_column_past_blob": _forge(_pagefault_tids(1, steps=False)),
    "negative_length": _forge(_negative_length),
    "value_index_negative": _forge(_set_value_index(lambda index: -1)),
    "value_index_past_table": _forge(_set_value_index(
        lambda index: sum(map(len, index["values"])))),
    # the first key is int-valued; the table's next part holds syscall names
    "value_index_in_another_family": _forge(_set_value_index(
        lambda index: len(index["values"][0]))),
    "int_value_not_int": _forge(lambda index, blob: index["values"][0].__setitem__(0, "x")),
    "key_in_another_family": _forge(_key(0, -1, lambda keys: "thread/900/syscall")),
    "state_key_without_tid": _forge(_key(2, -1, lambda keys: "thread/x/state")),
    "blob_not_int64s": _truncated_to_odd_bytes,
    "index_not_json": _index_not_json,
    "thread_state": _forge(
        lambda index, blob: index["values"][2].append(["blocked", None, None])),
    "syscall_key_outside_thread": _forge(_key(1, 0, lambda keys: "proc" + keys[0][6:])),
    "key_with_newline": _forge(_key(0, 0, lambda keys: f"{keys[0]}\n{keys[0]}")),
    "keys_out_of_order": _forge(_keys_out_of_order),
    "key_repeated": _forge(_key(0, 2, lambda keys: keys[1])),
    "four_key_families": _forge(lambda index, blob: index["keys"].append([])),
    "comm_tid_repeated": _forge(_set_blob("comm_tids", 1, lambda blob, at: blob[at - 1])),
    "counter_tid_repeated": _forge(_pagefault_tids(1, 1, steps=True)),
    "counter_size_negative": _forge(_negative_counter_size),
    "bounds_reversed": _forge(_swap_bounds),
    "blob_without_header": _forge(lambda index, blob: blob.__delitem__(slice(None))),
    "key_not_str": _forge(_key(0, 0, lambda keys: 7)),
    "comm_not_str": _forge(lambda index, blob: index["comms"].__setitem__(0, 7)),
    "span_id_not_str": _forge(lambda index, blob: index["spans"].__setitem__(0, 7)),
    "span_id_repeated": _forge(lambda index, blob: index["spans"].__setitem__(
        1, index["spans"][0])),
    "span_empty": _forge(_empty_first_span),
    # _span_error("UnmatchedEnd") is a valid body
    "span_error_unknown_class": _forge(_span_error("KeyError")),
    "span_error_with_spans": _forge(lambda index, blob: index.__setitem__(
        "span_error", ["UnmatchedEnd", "span 'x' ended at ts=2 with no begin"])),
    "span_column_cut_short": _forge(lambda index, blob: blob.__delitem__(
        _sections(index, blob)["spans"] + 3 * len(index["spans"]) - 1)),
}


@pytest.mark.parametrize("forgery", _FORGED_SIDECARS)
def test_forged_sidecar_with_valid_checksum_folds_as_if_absent(small_lock_dir, tmp_path,
                                                               monkeypatch, forgery):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes((small_lock_dir / "trace.jsonl").read_bytes())
    outputs = [tmp_path / "g.dot"]
    argv = ["graph", str(trace), "--span", "s0001", "--out", str(outputs[0])]
    expected = _run(argv, outputs)
    good = _sidecar(trace).read_bytes()
    # the helpers rebuild an untouched sidecar byte for byte, so a forgery
    # differs from the good sidecar by its one edit alone
    assert _forge(lambda index, blob: None)(good) == good
    forged = _FORGED_SIDECARS[forgery](good)
    assert forged != good
    _sidecar(trace).write_bytes(forged)
    folds = _count_folds(monkeypatch)
    assert _run(argv, outputs) == expected
    assert len(folds) == 1
    assert _sidecar(trace).read_bytes() == good


class _Recording(dict):
    """A dict that records every key looked up."""

    def __init__(self, data, seen: set):
        super().__init__(data)
        self.seen = seen

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_restored_state_decodes_only_the_keys_a_graph_reads(tmp_path, monkeypatch):
    events, gt = generate(ScenarioSpec("disk", seed=4, n_spans=200))
    trace = tmp_path / "trace.jsonl"
    write_trace(events, trace)
    span_id = next(s["span_id"] for s in gt["spans"] if s["label"] == "slow")
    argv = ["graph", str(trace), "--span", span_id, "--out", str(tmp_path / "g.dot")]
    assert main(argv) == 0
    restored = []
    decode = states._decode_state

    def keep(index, blob):
        restored.append(decode(index, blob))
        assert restored[-1]._intervals._cut == {}  # nothing decoded up front
        assert all(c._cut == {} for c in restored[-1]._counters.values())
        return restored[-1]
    monkeypatch.setattr(states, "_decode_state", keep)
    assert main(argv) == 0
    db, = restored
    # the same walk over the fold, recording the keys it looks up
    ref = build_state_db(events)
    seen_keys, seen_tids = set(), set()
    ref._intervals = _Recording(ref._intervals, seen_keys)
    ref._counters = {c: _Recording(cols, seen_tids) for c, cols in ref._counters.items()}
    span = next(s for s in extract_spans(events).spans if s.span_id == span_id)
    build_span_graph(ref, span)
    decoded = set(db._intervals._cut)
    assert decoded == seen_keys & set(ref.keys())
    assert set().union(*(c._cut for c in db._counters.values())) <= seen_tids
    assert 0 < len(decoded) < len(ref.keys()) / 10


def test_warm_inspect_cuts_only_the_keys_it_lists(tmp_path, capsys, monkeypatch):
    events, _ = generate(ScenarioSpec("lock", seed=4, n_spans=30))
    trace = tmp_path / "trace.jsonl"
    write_trace(events, trace)
    argv = ["inspect", str(trace), "--key", "cpu/"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    restored = []
    decode = states._decode_state

    def keep(index, blob):
        restored.append(decode(index, blob))
        return restored[-1]
    monkeypatch.setattr(states, "_decode_state", keep)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    db, = restored
    cut = set(db._intervals._cut)
    assert cut and all(key.startswith("cpu/") for key in cut)
    assert any(db._counters.values()) and not any(c._cut for c in db._counters.values())


def test_inspect_reads_a_trace_from_a_pipe(small_lock_dir):
    trace = small_lock_dir / "trace.jsonl"
    env = {"PYTHONPATH": str(SRC)}
    from_file = subprocess.run(
        [sys.executable, "-m", "waitgraph.cli", "inspect", str(trace)],
        capture_output=True, env=env)
    assert from_file.returncode == 0 and from_file.stdout
    for data in (trace.read_bytes(), gzip.compress(trace.read_bytes())):
        piped = subprocess.run(
            [sys.executable, "-m", "waitgraph.cli", "inspect", "/dev/stdin"],
            input=data, capture_output=True, env=env)
        assert (piped.returncode, piped.stdout, piped.stderr) == \
            (0, from_file.stdout, from_file.stderr)
