"""Tiny-size self-test of the benchmark.

    python3 -m pytest bench -q

Runs every workload shape on a few spans, untraced and traced, and checks
that the result line carries every metric named in BENCHMARK.json with
its unit, that tracing leaves no wrapper behind, and that the benchmark
refuses to run without the waitgraph sources.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys

import pytest

import run
from layertrace import Tracer

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {"counters_120k": {"n_spans": 6, "filler_events": 20},
        "disk_graphs": {"n_spans": 8},
        "mixed_cli": {"n_spans": 9}}


def test_benchmark_json_names_what_the_runner_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["why"] for w in spec["workloads"]] == \
        [run.WORKLOADS[w["name"]].why for w in spec["workloads"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("traced", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, traced):
    wl = run.WORKLOADS[name]
    tiny = dataclasses.replace(wl, params={**wl.params, **TINY[name]})
    result = run.run(name, tiny, seed=3, seconds=0, traced=traced)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if traced else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_tracer_removes_its_wrappers():
    import waitgraph.cli  # noqa: F401  (load every module the tracer patches)
    from waitgraph.states import StateDatabase

    def snapshot():
        mods = {n: m for n, m in sys.modules.items()
                if n == "waitgraph" or n.startswith("waitgraph.")}
        attrs = {(n, a): getattr(m, a) for n, m in mods.items() for a in dir(m)}
        attrs.update({("StateDatabase", a): getattr(StateDatabase, a)
                      for a in dir(StateDatabase)})
        return attrs, list(gc.callbacks)

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert waitgraph.cli.read_trace is not before[0][("waitgraph.cli", "read_trace")]
        assert StateDatabase.query_range is not \
            before[0][("StateDatabase", "query_range")]
        assert tracer._on_gc in gc.callbacks
    finally:
        tracer.remove()
    after = snapshot()
    assert after[1] == before[1]
    changed = [k for k in before[0] if after[0].get(k) is not before[0][k]
               and not k[1].startswith("__")]
    assert changed == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "disk_graphs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
