from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from waitgraph import build_state_db, extract_spans, generate  # noqa: E402
from waitgraph.synth import ScenarioSpec  # noqa: E402


@pytest.fixture(scope="session")
def lock_fixture():
    """A modest lock-contention trace shared across tests."""
    spec = ScenarioSpec("lock_contention", seed=7, n_spans=30)
    events, gt = generate(spec)
    db = build_state_db(events)
    extraction = extract_spans(events)
    return {"spec": spec, "events": events, "gt": gt, "db": db,
            "spans": extraction.spans}


@pytest.fixture(scope="session")
def cpu_fixture():
    spec = ScenarioSpec("cpu_contention", seed=5, n_spans=20)
    events, gt = generate(spec)
    db = build_state_db(events)
    extraction = extract_spans(events)
    return {"spec": spec, "events": events, "gt": gt, "db": db,
            "spans": extraction.spans}


@pytest.fixture(scope="session")
def disk_fixture():
    spec = ScenarioSpec("disk_contention", seed=11, n_spans=20)
    events, gt = generate(spec)
    db = build_state_db(events)
    extraction = extract_spans(events)
    return {"spec": spec, "events": events, "gt": gt, "db": db,
            "spans": extraction.spans}


@pytest.fixture(scope="session")
def mixed_fixture():
    spec = ScenarioSpec("mixed", seed=6, n_spans=20)
    events, gt = generate(spec)
    db = build_state_db(events)
    extraction = extract_spans(events)
    return {"spec": spec, "events": events, "gt": gt, "db": db,
            "spans": extraction.spans}


def slow_ids(gt: dict) -> set[str]:
    return {s["span_id"] for s in gt["spans"] if s["label"] == "slow"}
