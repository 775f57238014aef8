from __future__ import annotations

import hashlib
import io
import math
import re

import pytest

from waitgraph.analysis import extract_features
from waitgraph.errors import InvalidParameter
from waitgraph.events import extract_spans, read_trace, write_trace
from waitgraph.states import build_state_db, thread_syscall_key
from waitgraph.synth import _MAX_SPAN_NS, ScenarioSpec, generate, generate_files
from conftest import slow_ids


def _trace_bytes(spec: ScenarioSpec) -> bytes:
    events, _ = generate(spec)
    buf = io.StringIO()
    write_trace(events, buf)
    return buf.getvalue().encode()


def test_zero_contention_probability_all_fast():
    spec = ScenarioSpec("lock", seed=3, n_spans=12, slow_fraction=0.0)
    _, gt = generate(spec)
    assert all(s["label"] == "fast" for s in gt["spans"])
    assert all(s["injected_cause"] == "none" for s in gt["spans"])


def test_same_spec_twice_is_byte_identical():
    spec_a = ScenarioSpec("mixed", seed=21, n_spans=15)
    spec_b = ScenarioSpec("mixed", seed=21, n_spans=15)
    assert _trace_bytes(spec_a) == _trace_bytes(spec_b)


def test_different_seeds_differ():
    a = _trace_bytes(ScenarioSpec("lock", seed=1, n_spans=5))
    b = _trace_bytes(ScenarioSpec("lock", seed=2, n_spans=5))
    assert a != b


_SCENARIOS = ("lock", "cpu", "disk", "mixed")
# spans this short put some scenarios' events out of order or below 0
_SHORT = {"all_fast_1us": dict(fast_us=1, slow_fraction=0, filler_events=0),
          "all_slow_1us": dict(fast_us=1, slow_fraction=1, filler_events=0),
          "all_slow_20us": dict(fast_us=20, slow_fraction=1, filler_events=0),
          "all_slow_1us_filler": dict(fast_us=1, slow_fraction=1, filler_events=1),
          "tiny_1ns": dict(fast_us=0.001),
          "tiny_1ns_slow": dict(fast_us=0.001, slow_fraction=1, filler_events=0)}


@pytest.mark.parametrize("scenario, params", [
    *(pytest.param(scenario, {}, id=scenario) for scenario in _SCENARIOS),
    *(pytest.param(scenario, params, id=f"{scenario}-{name}")
      for name, params in _SHORT.items() for scenario in _SCENARIOS)])
def test_generated_traces_pass_validation(scenario, params):
    spec = ScenarioSpec(scenario, seed=13, n_spans=10, **params)
    try:
        raw = _trace_bytes(spec)
    except InvalidParameter as exc:
        # too short for the scenario's plan: refused while generating, naming
        # a timestamp
        assert params and re.search(r"spans too short .*\bts=\d", str(exc))
        return
    events = read_trace(raw)          # reader validation of each record
    build_state_db(events)            # the fold accepts the nesting
    extraction = extract_spans(events)
    assert len(extraction.spans) == 10
    assert not extraction.open_spans


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameter):
        ScenarioSpec("lock", slow_fraction=1.5)
    with pytest.raises(InvalidParameter):
        ScenarioSpec("lock", slow_fraction=-0.1)
    with pytest.raises(InvalidParameter):
        ScenarioSpec("nope")
    with pytest.raises(InvalidParameter):
        ScenarioSpec("lock", n_spans=0)
    with pytest.raises(InvalidParameter):
        ScenarioSpec("lock", slowdown=0.5)


@pytest.mark.parametrize("scenario", ["lock", "disk"])
def test_slow_span_beyond_the_bound_is_refused(scenario):
    # a float partition of a span this long would loop for ages
    with pytest.raises(InvalidParameter, match=r"fast_us \* slowdown"):
        ScenarioSpec(scenario, slowdown=1e300)


@pytest.mark.parametrize("scenario", ["lock", "disk", "cpu"])
def test_slow_spans_up_to_the_bound_generate(scenario):
    default = ScenarioSpec(scenario)
    longest = default._span_ns()[0] * (1 + default.jitter)
    spec = ScenarioSpec(scenario, seed=3, n_spans=4, slow_fraction=1.0,
                        slowdown=_MAX_SPAN_NS / longest)
    events, _ = generate(spec)
    build_state_db(events)
    durations = [s.duration_ns for s in extract_spans(events).spans]
    assert len(durations) == 4
    assert _MAX_SPAN_NS * 0.95 < max(durations) <= _MAX_SPAN_NS


def test_lock_defaults_realize_percent_targets(lock_fixture):
    db = lock_fixture["db"]
    truth = slow_ids(lock_fixture["gt"])
    slow_spans = [s for s in lock_fixture["spans"] if s.span_id in truth]
    assert slow_spans
    for span in slow_spans:
        fcntl_ns = sum(sv.duration_ns for sv in
                       db.query_range(thread_syscall_key(span.root_tid),
                                      span.t_start, span.t_end)
                       if sv.value == "fcntl")
        share = fcntl_ns / span.duration_ns
        assert abs(share - 0.91) <= 0.03
        fv = extract_features(db, span)
        assert abs(fv.blocked_task_us * 1000 / fcntl_ns - 0.82) <= 0.03


def test_ground_truth_agrees_with_total_time_threshold(lock_fixture,
                                                       cpu_fixture,
                                                       disk_fixture):
    for fixture in (lock_fixture, cpu_fixture, disk_fixture):
        spans = fixture["spans"]
        truth = slow_ids(fixture["gt"])
        totals = sorted(s.duration_ns for s in spans)
        threshold = (totals[0] + totals[-1]) / 2
        for s in spans:
            assert (s.duration_ns > threshold) == (s.span_id in truth)


def test_cpu_scenario_ratio(cpu_fixture):
    spans = cpu_fixture["spans"]
    truth = slow_ids(cpu_fixture["gt"])
    slow = [s.duration_ns for s in spans if s.span_id in truth]
    fast = [s.duration_ns for s in spans if s.span_id not in truth]
    ratio = (sum(slow) / len(slow)) / (sum(fast) / len(fast))
    assert math.isclose(ratio, 9.0, rel_tol=0.10)


def test_disk_scenario_ratio(disk_fixture):
    spans = disk_fixture["spans"]
    truth = slow_ids(disk_fixture["gt"])
    slow = [s.duration_ns for s in spans if s.span_id in truth]
    fast = [s.duration_ns for s in spans if s.span_id not in truth]
    ratio = (sum(slow) / len(slow)) / (sum(fast) / len(fast))
    assert math.isclose(ratio, 10.0, rel_tol=0.10)


def test_mixed_scenario_covers_all_causes():
    spec = ScenarioSpec("mixed", seed=2, n_spans=40, slow_fraction=0.6)
    _, gt = generate(spec)
    causes = {s["injected_cause"] for s in gt["spans"]}
    assert {"lock_contention", "cpu_contention", "disk_contention"} <= causes


def test_ground_truth_paths_present():
    spec = ScenarioSpec("lock", seed=1, n_spans=6, slow_fraction=1.0)
    _, gt = generate(spec)
    for rec in gt["spans"]:
        assert rec["expected_path"][0] == "apache2"
        assert rec["expected_path"][1] == "fcntl"


# sha256 of the trace and of ground_truth.json that generate_files writes
# for 16 spans at default parameters; a change to the span frame, to one
# scenario's body or to the scenario table must leave these unchanged
_PINNED = {
    ("lock", 3, "trace.jsonl"): (
        "067b1e6c2bac6adc4b8c803e16ecc3b9a554f65b99c295bacb533fe06178f033",
        "04ea1dc6b6c859dd8a5da8860e6aab4d1513900503ecce0ec6b5c4db26982e11"),
    ("cpu", 4, "trace.jsonl"): (
        "c0bd0cf5d2d15d2cac55e497b5a16e8468f27b64ad9ab4b83503db9ec98ab5d5",
        "6ebf784f419810919c68beee1d11b302f1b98cf3fe175d283d969de2ea90b735"),
    ("disk", 5, "trace.jsonl"): (
        "ed6a81fd94b0196200ec2e00a5600dcee699937e942072ab007c58bf2cb70e86",
        "2639f6e6a32671e9d0e9316b7af79b075e5a06f77e0ee4bcdacdb654c9a8dd52"),
    ("mixed", 6, "trace.jsonl"): (
        "60c2c73db31ee93b76e6c892b1bd4e7a7d824616be6ca8f0597e02ce320adcd6",
        "66b2430aa53d1d5558bdc38cdfccf39bebc0ba96206b2af0d3d717beeb58aade"),
    ("mixed", 6, "trace.jsonl.gz"): (
        "6be1381344e054a162f0cbec6936584587222975dabe53a0b799d6ffa68537ea",
        "66b2430aa53d1d5558bdc38cdfccf39bebc0ba96206b2af0d3d717beeb58aade"),
}


@pytest.mark.parametrize("scenario, seed, name", list(_PINNED))
def test_generated_files_match_pinned_digests(tmp_path, scenario, seed, name):
    trace, gt = tmp_path / name, tmp_path / "ground_truth.json"
    generate_files(ScenarioSpec(scenario, seed=seed, n_spans=16), trace, gt)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (trace, gt))
    assert digests == _PINNED[scenario, seed, name]
