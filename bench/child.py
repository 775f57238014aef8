"""One step of a benchmark repetition, run in a fresh process.

    python3 bench/child.py '<job json>'

The job names a step (`setup`, `pipeline`, `cli` or `hostref`), its
inputs, whether to trace, and the path of the JSON result file the step
writes.  Running each step in its own process gives it its own peak RSS
and a cold interpreter, as a user invoking the tool would have.
waitgraph is imported from the PYTHONPATH the parent sets.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from layertrace import Tracer, maxrss_mb


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_text(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def run_setup(job: dict, tracer: Tracer | None) -> dict:
    """Generate the workload's trace and ground truth from its seed."""
    from waitgraph import events, synth

    spec = synth.ScenarioSpec(job["scenario"], seed=job["seed"], **job["params"])
    trace, gt_path = job["trace"], job["ground_truth"]
    t0 = perf_counter()
    if tracer is None:
        synth.generate_files(spec, trace, gt_path)
    else:
        gt: list[dict] = []
        with tracer.span("synth.iter_events", stage=True):
            evs = list(synth.iter_events(spec, gt))
        with tracer.span("synth.write_trace", stage=True):
            events.write_trace(evs, trace)
            Path(gt_path).write_text(
                _json_text(synth.ground_truth_dict(spec, gt)), encoding="utf-8")
    return {"setup_s": perf_counter() - t0}


def run_pipeline(job: dict, tracer: Tracer | None) -> dict:
    """The library report: trace file to rendered graphs, clusters and diff.

    Each step is one operation; the first that raises ends the pipeline
    (its error is returned) and the outputs written so far stay.
    """
    from waitgraph import analysis, events, graph, states
    from waitgraph.errors import TraceAnalysisError

    out = Path(job["out_dir"])
    stage = (lambda name: tracer.span(f"stage.{name}", stage=True)) if tracer \
        else (lambda name: nullcontext())
    res: dict = {"ops": [], "digests": {}}
    lat_ms: list[float] = []
    ctx: dict = {}

    def read_trace():
        ctx["events"] = events.read_trace(job["trace"])

    def build_state_db():
        ctx["db"] = states.build_state_db(ctx["events"])

    def extract_spans():
        ctx["extraction"] = events.extract_spans(ctx["events"])

    def span_graphs():
        db, graphs = ctx["db"], []
        for span in ctx["extraction"].spans:
            t = perf_counter()
            graphs.append(graph.build_span_graph(db, span))
            lat_ms.append((perf_counter() - t) * 1000.0)
        ctx["graphs"] = graphs

    def extract_features():
        db = ctx["db"]
        ctx["features"] = {s.span_id: analysis.extract_features(db, s)
                           for s in ctx["extraction"].spans}

    def cluster_spans():
        ctx["clustering"] = analysis.cluster_spans(ctx["features"], 2, 0)

    def compare():
        ctx["canonical"] = [graph.canonicalize(g) for g in ctx["graphs"]]
        by_id = {g.span.span_id: g for g in ctx["canonical"]}
        members: dict[int, list[str]] = {}
        for sid, cl in sorted(ctx["clustering"].assignments.items()):
            members.setdefault(cl, []).append(sid)
        reps = [analysis.representative([by_id[s] for s in members[c]])
                for c in (0, 1)]
        ctx["comparison"] = analysis.compare(reps[0], reps[1])

    def render():
        canonical = ctx.get("canonical") or [graph.canonicalize(g)
                                             for g in ctx["graphs"]]
        texts = {"graphs.dot": "".join(graph.to_dot(g) for g in canonical),
                 "clusters.json": _json_text(analysis.clustering_report_dict(
                     ctx["clustering"], ctx["features"]))}
        if "comparison" in ctx:
            cg = ctx["comparison"]
            texts["diff.dot"] = analysis.comparison_to_dot(cg)
            texts["diff.json"] = _json_text(analysis.comparison_to_json_dict(cg))
        for name, text in texts.items():
            (out / name).write_text(text, encoding="utf-8")
            res["digests"][name] = _digest(text)

    steps = (read_trace, build_state_db, extract_spans, span_graphs,
             extract_features, cluster_spans, compare, render)
    t0 = perf_counter()
    for step in steps:
        name = step.__name__
        ts = perf_counter()
        try:
            with stage(name):
                step()
        except (TraceAnalysisError, ValueError, KeyError) as exc:
            res["ops"].append({"op": name, "ok": False,
                               "error": f"{type(exc).__name__}: {exc}"})
            if name == "compare":
                continue    # the span graphs and clusters still render
            break
        res["ops"].append({"op": name, "ok": True, "s": perf_counter() - ts})
        if name == "extract_spans":
            res["ingest_s"] = perf_counter() - t0
    res["report_s"] = perf_counter() - t0
    if tracer is None and "graphs" in ctx:
        # Further passes over every span, outside report_s, until the latency
        # sample covers latency_s of build time: one short pass would be
        # timed within a fraction of a second of the host's speed.
        db, spent_ms = ctx["db"], sum(lat_ms)
        while spent_ms < job["latency_s"] * 1000.0:
            for span in ctx["extraction"].spans:
                t = perf_counter()
                graph.build_span_graph(db, span)
                lat_ms.append((perf_counter() - t) * 1000.0)
                spent_ms += lat_ms[-1]
    res["span_graph_ms"] = lat_ms

    # Output checks, outside the timed and traced region.
    if tracer is not None:
        tracer.remove()
    evs, db, ex = ctx.get("events"), ctx.get("db"), ctx.get("extraction")
    checks = res["checks"] = {}
    if evs is not None:
        checks["events_read"] = len(evs) == job["expected_events"]
    if db is not None:
        checks["events_consumed"] = db.events_consumed == job["expected_events"]
    if ex is not None:
        checks["spans"] = (len(ex.spans) == job["expected_spans"]
                           and not ex.open_spans)
        first = next((s for s in ex.spans if s.span_id == job["drill_span"]), None)
        if first is not None and db is not None:
            # the CLI `graph` drill-down of this span must render the same DOT
            res["digests"]["drill.dot"] = _digest(graph.to_dot(
                graph.build_span_graph(db, first)))
    return res


def run_cli(job: dict, tracer: Tracer | None) -> dict:
    """One `waitgraph` command through waitgraph.cli.main."""
    from waitgraph import cli

    argv = job["argv"]
    with tracer.span(f"cli.{argv[0]}", stage=True) if tracer else nullcontext():
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code}


def run_hostref(job: dict, tracer: Tracer | None) -> dict:
    """The host-speed reference: a fixed stdlib-only ingest of JSON lines.

    It parses trace-like lines, keeps every event (a working set of tens of
    MB, like read_trace's), folds them into per-key series and sorts each,
    so it slows down with the host the way the pipeline's ingest does.  It
    uses no waitgraph code and is the same for every seed and commit.
    The lines are read from job["lines"] (run.py write_hostref_lines).
    """
    lines = Path(job["lines"]).read_text(encoding="utf-8").splitlines()
    t0 = perf_counter()
    evs = [json.loads(line) for line in lines]
    series: dict = {}
    for ev in evs:
        series.setdefault((ev["tid"], ev["kind"]), []).append((ev["ts"], ev["v"], ev))
    for points in series.values():
        points.sort(key=lambda p: -p[0])
    return {"host_ref_s": perf_counter() - t0, "series": len(series)}


STEPS = {"setup": run_setup, "pipeline": run_pipeline, "cli": run_cli,
         "hostref": run_hostref}


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = Tracer() if job["traced"] else None
    if tracer is not None:
        tracer.install()
    try:
        res = STEPS[job["step"]](job, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    res["maxrss_mb"] = maxrss_mb()
    if tracer is not None:
        res["layers"] = tracer.layer_metrics()
        res["spans"] = [sp.record(job["rep"]) for sp in tracer.spans]
        res["stages"] = {sp.name: {"s": sp.end - sp.start, "gc.pause_s": sp.gc_s,
                                   "gc.collections": sp.gc_n,
                                   "maxrss_mb": sp.maxrss_mb}
                         for sp in tracer.spans if sp.maxrss_mb is not None}
    Path(job["result"]).write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
