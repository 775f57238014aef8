"""waitgraph benchmark: one workload, one seed, a fixed measuring window.

    python3 bench/run.py --workload disk_graphs --seed 1 --seconds 45 --trace 0

Run from the repository root; waitgraph is imported from ./src.  The
benchmark generates the workload's trace from --seed, sets it up three
times (setup_s is their median), then repeats the workload's session
closed-loop with a single client until --seconds have passed: each
repetition starts when the previous one has ended, and every step of a
repetition runs in a fresh child process, so peak RSS is that step's own.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions; the traced ones wrap each layer's public functions
(bench/layertrace.py) and give the per-layer metrics, and the difference
of the two is the tracing overhead.

Between every two timed steps a fixed host-speed reference runs in its own
child (child.py run_hostref).  Each timing sample is scaled by
HOST_REF_NOMINAL_S / (the mean of the four references nearest to it, two
before and two after), so that the shared host's slow changes of speed
cancel; medians and tails are taken over the scaled samples, and the
report keeps the unscaled samples and medians.

Every metric is printed by name and unit; the last line of standard output
is one JSON object {correct, attempted, failed, metrics}.  A detailed report
(machine stamp, sample counts, tails, per-stage GC and RSS, operation log)
and, with --trace 1, the recorded spans are written under .bench_work/.
Timings are those of the host the benchmark ran on, not of any device.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK = ROOT / ".bench_work"
SETUPS = 3
RUN_DEADLINE_S = 170      # every child is stopped by then, so a run ends in time
KMEANS_K, KMEANS_SEED = 2, 0
DRILL_SPAN = "s0000"
DRILLS = 2                # CLI drill-downs per library repetition
# The host-speed reference (child.py run_hostref) runs between every two
# timed steps.  Each timed sample is scaled by HOST_REF_NOMINAL_S / (the mean
# of the four references nearest to it, two before and two after): the shared
# host's speed moves by 10-50 % within seconds to minutes, and the reference
# moves with it.  Four references rather than two halve the noise the
# reference's own variation adds to each sample.
HOST_REF_LINES = 80_000
HOST_REF_NOMINAL_S = 0.45


@dataclass(frozen=True)
class Workload:
    scenario: str
    params: dict
    session: str          # "library": report through the library API;
                          # "cli": report as the README's three CLI commands
    why: str
    latency_s: float = 0.0    # build time the span_graph_ms_* sample covers


WORKLOADS = {
    "counters_120k": Workload(
        "lock", {"n_spans": 200, "filler_events": 600, "slow_fraction": 0.25},
        "library",
        "counter-heavy lock trace (~122k events, 97% counter intervals): "
        "ingest is >95% of report_s, graphs <1%; parse and fold changes show "
        "here, graph changes must not",
        latency_s=1.5),
    "disk_graphs": Workload(
        "disk", {"n_spans": 4_000, "slow_fraction": 0.25}, "library",
        "4000 disk spans: graph walks and states range queries dominate "
        "report_s and grow with the square of the span count; ingest "
        "changes barely show"),
    "mixed_cli": Workload(
        "mixed", {"n_spans": 3_000}, "cli",
        "mixed trace through the README's cluster/graph/compare session: each "
        "command re-parses the trace; compare exits 4 (RootConflict) and "
        "counts as failed"),
}

END_TO_END = {                      # name -> unit
    "setup_s": "s",
    "report_s": "s",
    "drilldown_s": "s",
    "ingest_events_per_s": "1/s",
    "span_graph_ms_p50": "ms",
    "span_graph_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

_STATE_QUERIES = ("query_range", "query_at", "disk_usage_by_thread",
                  "cpu_usage_by_thread", "counter_delta")
PER_LAYER = {
    "events.read_trace.s": "s", "events.read_trace.events": "count",
    "events.bytes": "bytes", "events.extract_spans.s": "s",
    "events.spans": "count",
    "states.build_state_db.s": "s", "states.intervals": "count",
    "states.counter_intervals": "count", "states.counter_share": "ratio",
    "states.keys": "count",
    **{f"states.{m}.{k}": u for m in _STATE_QUERIES
       for k, u in (("calls", "count"), ("s", "s"))},
    "graph.build_span_graph.calls": "count", "graph.build_span_graph.s": "s",
    "graph.build_span_graph.self_s": "s", "graph.nodes": "count",
    "graph.edges": "count", "graph.cycles": "count",
    "graph.depth_truncated": "count", "graph.canonicalize.s": "s",
    "graph.to_dot.s": "s",
    "analysis.extract_features.s": "s", "analysis.cluster_spans.s": "s",
    "analysis.kmeans.iterations": "count", "analysis.cluster_agreement": "ratio",
    "analysis.representative.s": "s", "analysis.compare.s": "s",
    "analysis.comparison_to_dot.s": "s",
    "cli.graph.s": "s", "cli.graph.exit": "code",
    "synth.iter_events.s": "s", "synth.write_trace.s": "s",
    "gc.collections": "count", "gc.pause_s": "s", "maxrss_mb": "MB",
    "trace.overhead_s": "s", "trace.accounted_share": "ratio",
}

# p99.9 is left out: on the counter workload's 25,000 latency samples it is
# where the garbage collector's full collections land, and it moved by 10x
# from one repetition to the next.
TAIL_PERCENTILES = (99.0, 90.0)


# -- statistics -----------------------------------------------------------------

def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of n samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10),
                None)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def summarize(values: list[float]) -> dict:
    p = tail_percentile(len(values))
    return {"median": statistics.median(values), "n": len(values),
            "samples": values, "tail_p": p,
            "tail": percentile(values, p) if p is not None else None}


# -- child processes ------------------------------------------------------------

@dataclass
class Step:
    wall_s: float
    exit: int
    result: dict
    log: str


class Runner:
    """Runs child steps and keeps the operation log of one benchmark run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.ops: list[dict] = []
        self.checks_failed: list[str] = []
        self._n = 0
        self._deadline = perf_counter() + RUN_DEADLINE_S

    def spawn(self, job: dict) -> Step:
        self._n += 1
        result_path = self.workdir / f"result-{self._n}.json"
        log_path = self.workdir / f"log-{self._n}.txt"
        job = {**job, "result": str(result_path)}
        with open(log_path, "wb") as log:
            t0 = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), json.dumps(job)], cwd=ROOT,
                    env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self._deadline - t0))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = -9
            wall = perf_counter() - t0
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        text = log_path.read_text(errors="replace").strip()
        return Step(wall, code, result, text[-400:])

    def op(self, rep: int, name: str, ok: bool, error: str | None = None) -> None:
        self.ops.append({"rep": rep, "op": name, "ok": ok, "error": error})

    def check(self, rep: int, op: str, what: str, ok: bool) -> None:
        """Record an output check; a failed one also fails operation `op`."""
        if ok:
            return
        self.checks_failed.append(f"rep {rep}: {op}: {what}")
        for o in reversed(self.ops):
            if o["rep"] == rep and o["op"] == op:
                o["ok"], o["error"] = False, o["error"] or f"check failed: {what}"
                return


# -- one benchmark run ---------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    pipe_ref: int = 0      # index of the host reference before each timed step
    report_ref: int = 0
    report_s: float = 0.0
    drills: list = field(default_factory=list)   # (wall s, reference index)
    ingest_events_per_s: float | None = None
    span_graph_ms: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    cli: dict = field(default_factory=dict)      # command -> (wall s, exit)
    stages: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class BenchRun:
    def __init__(self, name: str, wl: Workload, seed: int, workdir: Path):
        self.name, self.wl, self.seed = name, wl, seed
        self.workdir = workdir
        self.runner = Runner(workdir)
        self.trace = workdir / "trace.jsonl"
        self.gt = workdir / "ground_truth.json"
        self.expected_events = 0
        self.reference: dict = {}
        self.host_ref_s: list[float] = []
        self.setup_refs: list[int] = []
        self.host_ref_lines = workdir / "hostref.jsonl"
        write_hostref_lines(self.host_ref_lines, HOST_REF_LINES)

    def host_ref(self, rep: int) -> int:
        """Run the host-speed reference once; return its index."""
        st = self.runner.spawn({"step": "hostref", "traced": False, "rep": rep,
                                "lines": str(self.host_ref_lines)})
        if st.exit != 0 or "host_ref_s" not in st.result:
            raise SystemExit(f"host reference failed: {st.log}")
        self.host_ref_s.append(st.result["host_ref_s"])
        return len(self.host_ref_s) - 1

    def speed(self, k: int) -> float:
        """Host-speed factor of a step between references k and k + 1."""
        return HOST_REF_NOMINAL_S / statistics.mean(
            self.host_ref_s[max(0, k - 1):k + 3])

    # setup -----------------------------------------------------------------

    def setup(self, traced: bool) -> list[Step]:
        steps = []
        for i in range(SETUPS):
            self.setup_refs.append(self.host_ref(-1 - i))
            st = self.runner.spawn({
                "step": "setup", "traced": traced, "rep": -1 - i,
                "scenario": self.wl.scenario, "seed": self.seed,
                "params": self.wl.params, "trace": str(self.trace),
                "ground_truth": str(self.gt)})
            ok = st.exit == 0 and "setup_s" in st.result
            self.runner.op(-1 - i, "setup", ok, None if ok else st.log)
            if not ok:
                raise SystemExit(f"setup failed: {st.log}")
            steps.append(st)
        with open(self.trace, "rb") as fh:
            self.expected_events = sum(1 for line in fh if line.strip())
        return steps

    # repetitions -------------------------------------------------------------

    def _pipeline(self, rep: Rep, i: int, out: Path, traced: bool) -> Step:
        out = out / "lib"
        out.mkdir()
        st = self.runner.spawn({
            "step": "pipeline", "traced": traced, "rep": i,
            "trace": str(self.trace), "out_dir": str(out),
            "expected_events": self.expected_events,
            "expected_spans": self.wl.params["n_spans"],
            "latency_s": self.wl.latency_s,
            "drill_span": DRILL_SPAN})
        res = st.result
        if st.exit != 0 or not res:
            self.runner.op(i, "pipeline", False, f"exit {st.exit}: {st.log}")
            return st
        for o in res["ops"]:
            self.runner.op(i, o["op"], o["ok"], o.get("error"))
        for op, what in (("read_trace", "events_read"),
                         ("build_state_db", "events_consumed"),
                         ("extract_spans", "spans")):
            self.runner.check(i, op, what, res["checks"].get(what, True))
        for name, digest in res["digests"].items():
            rep.digests[("span_graphs" if name == "drill.dot" else "render", name)] = digest
        if "ingest_s" in res:
            rep.ingest_events_per_s = self.expected_events / res["ingest_s"]
        rep.span_graph_ms = res["span_graph_ms"]
        rep.peak_rss_mb = max(rep.peak_rss_mb, res["maxrss_mb"])
        return st

    def _cli(self, rep: Rep, i: int, out: Path, traced: bool, argv: list[str],
             outputs: tuple[str, ...]) -> Step:
        command = argv[0]
        st = self.runner.spawn({"step": "cli", "traced": traced, "rep": i,
                                "argv": argv})
        code = st.result.get("exit", st.exit)
        ok = st.exit == 0 and code == 0
        op = f"cli.{command}"
        self.runner.op(i, op, ok, None if ok else f"exit {code}: {st.log}")
        for name in outputs:
            path = out / name
            if path.exists():
                rep.digests[(op, name)] = _file_digest(path)
            elif ok:
                self.runner.check(i, op, f"wrote {name}", False)
        rep.cli[command] = (st.wall_s, code)
        if st.result:
            rep.peak_rss_mb = max(rep.peak_rss_mb, st.result["maxrss_mb"])
        return st

    def repetition(self, i: int, traced: bool) -> Rep:
        out = self.workdir / f"rep{i}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        rep = Rep(traced)
        trace = str(self.trace)
        graph_argv = ["graph", trace, "--span", DRILL_SPAN,
                      "--out", str(out / "g.dot"), "--json", str(out / "g.json")]
        if self.wl.session == "library":
            rep.pipe_ref = rep.report_ref = self.host_ref(i)
            report = [self._pipeline(rep, i, out, traced)]
            rep.report_s = report[0].result.get("report_s", report[0].wall_s)
            for _ in range(DRILLS):
                ref = self.host_ref(i)
                drill = self._cli(rep, i, out, traced, graph_argv,
                                  ("g.dot", "g.json"))
                rep.drills.append((drill.wall_s, ref))
                self._check_drill(rep, i)
        else:
            rep.report_ref = self.host_ref(i)
            t0 = perf_counter()
            report = [
                self._cli(rep, i, out, traced,
                          ["cluster", trace, "--k", str(KMEANS_K), "--seed",
                           str(KMEANS_SEED), "--out", str(out / "clusters.json")],
                          ("clusters.json",)),
                self._cli(rep, i, out, traced, graph_argv, ("g.dot", "g.json")),
                self._cli(rep, i, out, traced,
                          ["compare", trace, "--report", str(out / "clusters.json"),
                           "--left", "0", "--right", "1",
                           "--out", str(out / "diff.dot"),
                           "--json", str(out / "diff.json")],
                          ("diff.dot", "diff.json")),
            ]
            rep.report_s = perf_counter() - t0
            rep.drills.append((report[1].wall_s, rep.report_ref))
            rep.pipe_ref = self.host_ref(i)
            self._pipeline(rep, i, out, traced)
            self._check_drill(rep, i)
        self._check_digests(rep, i)
        if traced:
            lib = self.wl.session == "library"
            self._collect_layers(rep, report,
                                 (out / "lib" if lib else out) / "clusters.json")
        return rep

    def _check_drill(self, rep: Rep, i: int) -> None:
        """The latest CLI drill-down's DOT must equal the library's to_dot."""
        d = rep.digests
        lib, cli = ("span_graphs", "drill.dot"), ("cli.graph", "g.dot")
        if lib in d and cli in d:
            self.runner.check(i, "cli.graph", "DOT equals the library's to_dot",
                              d[lib] == d[cli])

    def _check_digests(self, rep: Rep, i: int) -> None:
        d = rep.digests
        if not self.reference:
            self.reference = dict(d)
            return
        for key in sorted(set(d) | set(self.reference)):
            self.runner.check(i, key[0], f"{key[1]} matches the first repetition",
                              d.get(key) == self.reference.get(key))

    def _collect_layers(self, rep: Rep, report: list[Step], clusters: Path) -> None:
        layers: dict = {}
        for st in report:
            for k, v in st.result.get("layers", {}).items():
                layers[k] = layers.get(k, 0) + v
            rep.stages.update(st.result.get("stages", {}))
            rep.spans.extend(st.result.get("spans", []))
        layers["maxrss_mb"] = max(st.result.get("maxrss_mb", 0.0) for st in report)
        ivs = layers.get("states.intervals", 0)
        layers["states.counter_share"] = (
            layers.get("states.counter_intervals", 0) / ivs if ivs else 0.0)
        wall, code = rep.cli.get("graph", (0.0, -1))
        layers["cli.graph.s"], layers["cli.graph.exit"] = wall, code
        layers["analysis.cluster_agreement"] = self._agreement(clusters)
        rep.layers = layers

    def _agreement(self, report_path: Path) -> float:
        """Best-permutation agreement of k=2 clusters with fast/slow labels."""
        if not report_path.exists():
            return 0.0
        clusters = {r["span_id"]: r["cluster"]
                    for r in json.loads(report_path.read_text())["spans"]}
        labels = {s["span_id"]: s["label"]
                  for s in json.loads(self.gt.read_text())["spans"]}
        same = sum(1 for sid, c in clusters.items()
                   if (c == 1) == (labels.get(sid) == "slow"))
        return max(same, len(clusters) - same) / max(1, len(clusters))


def write_hostref_lines(path: Path, n: int) -> None:
    """The host-speed reference's input: n trace-like JSON lines, fixed."""
    import random

    rng = random.Random(0)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(json.dumps(
                {"ts": i * 1000, "cpu": i % 2, "tid": rng.randrange(64),
                 "comm": f"proc{rng.randrange(64)}",
                 "kind": rng.choice(("io_write", "sched_switch", "ctr")),
                 "v": rng.randrange(1 << 16)}, separators=(",", ":")) + "\n")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- entry point ----------------------------------------------------------------

def machine_stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "platform": platform.platform(),
            "git_commit": git_commit(),
            "timing_note": "wall times on this host (shared, unpinned "
                           "CPUs), not of any device"}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(name: str, wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Set up and measure one workload; return the full report."""
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(BenchRun(name, wl, seed, workdir), seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(br: BenchRun, seconds: float, traced: bool) -> dict:
    setups = br.setup(traced)
    reps: list[Rep] = []
    t0 = perf_counter()
    while True:
        # trace mode alternates untraced and traced repetitions
        rep_traced = traced and len(reps) % 2 == 1
        reps.append(br.repetition(len(reps), rep_traced))
        if perf_counter() - t0 >= seconds and (not traced or len(reps) >= 2):
            break
    br.host_ref(len(reps))      # closes the last timed step's bracket

    def timing(samples: list[tuple[float, int]], rate: bool = False) -> dict:
        """Summary of (value, reference index) pairs, each host-scaled."""
        s = summarize([v / br.speed(k) if rate else v * br.speed(k)
                       for v, k in samples])
        s["unscaled_samples"] = [v for v, _ in samples]
        s["unscaled_median"] = statistics.median(s["unscaled_samples"])
        return s

    runner = br.runner
    attempted = len(runner.ops)
    failed = sum(1 for o in runner.ops if not o["ok"])
    plain = [r for r in reps if not r.traced]
    e2e = {
        "setup_s": timing([(s.result["setup_s"], k)
                           for s, k in zip(setups, br.setup_refs)]),
        "report_s": timing([(r.report_s, r.report_ref) for r in plain]),
        "drilldown_s": timing([d for r in plain for d in r.drills]),
        "peak_rss_mb": summarize([r.peak_rss_mb for r in plain]),
        "error_rate": {"median": failed / attempted, "n": attempted,
                       "failed": failed},
        "host_ref_s": summarize(br.host_ref_s),
    }
    rates = [(r.ingest_events_per_s, r.pipe_ref) for r in plain
             if r.ingest_events_per_s]
    if rates:
        e2e["ingest_events_per_s"] = timing(rates, rate=True)
    lat = [(r.span_graph_ms, r.pipe_ref) for r in plain if r.span_graph_ms]
    if lat:
        n = min(len(x) for x, _ in lat)
        p = tail_percentile(n)
        e2e["span_graph_ms_p50"] = timing([(percentile(x, 50), k) for x, k in lat])
        e2e["span_graph_ms_tail"] = timing([(percentile(x, p or 100), k)
                                            for x, k in lat])
        e2e["span_graph_ms_tail"]["per_rep_percentile"] = p
        e2e["span_graph_ms_tail"]["min_samples_per_rep"] = n
    report = {
        "workload": br.name, "seed": br.seed, "kmeans": [KMEANS_K, KMEANS_SEED],
        "scenario": br.wl.scenario, "params": br.wl.params,
        "session": br.wl.session, "why": br.wl.why, "seconds": seconds,
        "traced": traced, "events": br.expected_events,
        "host_ref_nominal_s": HOST_REF_NOMINAL_S,
        "repetitions": len(reps), "machine": machine_stamp(),
        "end_to_end": e2e, "operations": runner.ops,
        "checks_failed": runner.checks_failed,
        "cli": {cmd: [r.cli[cmd] for r in plain if cmd in r.cli]
                for cmd in ("cluster", "graph", "compare")},
    }
    if traced:
        report.update(_layer_report(br, setups, reps, plain))
    report["result"] = {
        "correct": not runner.checks_failed, "attempted": attempted,
        "failed": failed, "metrics": _result_metrics(report, traced)}
    return report


def _layer_report(br: BenchRun, setups: list[Step], reps: list[Rep],
                  plain: list[Rep]) -> dict:
    traced_reps = [r for r in reps if r.traced]
    layers = {k: statistics.median(r.layers.get(k, 0) for r in traced_reps)
              for k in sorted({k for r in traced_reps for k in r.layers})}
    for k in ("synth.iter_events.s", "synth.write_trace.s"):
        stage = k.rsplit(".", 1)[0]
        layers[k] = statistics.median(
            s.result["stages"][stage]["s"] for s in setups)
    traced_report = statistics.median(r.report_s for r in traced_reps)
    layers["trace.overhead_s"] = traced_report - statistics.median(
        r.report_s for r in plain)
    layers["trace.traced_report_s"] = traced_report
    layers["trace.accounted_share"] = layers.get("trace.layer_sum_s", 0.0) / traced_report
    cli_traced = {cmd: [r.cli[cmd] for r in traced_reps if cmd in r.cli]
                  for cmd in ("cluster", "graph", "compare")}
    for cmd, runs in cli_traced.items():
        if runs:
            layers[f"cli.{cmd}.s"] = statistics.median(w for w, _ in runs)
            layers[f"cli.{cmd}.exit"] = runs[-1][1]
    return {"per_layer": layers, "stages": traced_reps[-1].stages,
            "spans": [s for r in traced_reps for s in r.spans]}


def _result_metrics(report: dict, traced: bool) -> dict:
    if traced:
        layers = report["per_layer"]
        return {n: {"value": layers.get(n, 0), "unit": u} for n, u in PER_LAYER.items()}
    e2e = report["end_to_end"]
    return {n: {"value": e2e[n]["median"], "unit": u}
            for n, u in END_TO_END.items() if n in e2e}


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"# waitgraph benchmark: workload {report['workload']} seed "
          f"{report['seed']} ({report['scenario']} {report['params']}, "
          f"{report['events']} events, {report['session']} session)")
    print(f"# {m['nproc']} CPUs, {m['cpu_model']}, Python {m['python']}, "
          f"commit {m['git_commit']}; {m['timing_note']}")
    print(f"# {report['repetitions']} repetitions in {report['seconds']} s "
          f"window, trace={int(report['traced'])}; timings scaled to a host on "
          f"which the reference takes {report['host_ref_nominal_s']} s")
    for name, s in report["end_to_end"].items():
        unit = {**END_TO_END, "host_ref_s": "s"}.get(name, "ratio")
        tail = (f", p{s['tail_p']:g} {s['tail']:.6g}" if s.get("tail_p") else "")
        if "unscaled_median" in s:
            tail += f", unscaled {s['unscaled_median']:.6g}"
        print(f"{name:<28} {s['median']:.6g} {unit}  (median of n={s['n']}{tail})")
    for name, v in report.get("per_layer", {}).items():
        print(f"{name:<36} {v:.6g} {PER_LAYER.get(name, '')}")
    for o in report["operations"]:
        if not o["ok"]:
            print(f"# failed op rep {o['rep']} {o['op']}: {o['error']}"[:300])
    for c in report["checks_failed"]:
        print(f"# check failed: {c}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "waitgraph" / "__init__.py").is_file():
        print(f"error: no waitgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = run(args.workload, WORKLOADS[args.workload], args.seed,
                 args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
