from __future__ import annotations

import gzip
import sys
import zlib
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


def damaged_gzips(packed: bytes) -> dict[str, bytes]:
    """A gzip stream damaged three ways: cut in half, the first byte past
    the 10-byte header whose flip zlib itself rejects (not the CRC check,
    whose BadGzipFile is an OSError), and only the two magic bytes."""
    for i in range(10, len(packed) - 8):
        flipped = bytearray(packed)
        flipped[i] ^= 0xFF
        try:
            gzip.decompress(flipped)
        except zlib.error:
            break
        except (OSError, EOFError):
            continue
    else:
        raise AssertionError("no byte flip of the stream fails in zlib")
    return {"cut": packed[:len(packed) // 2], "flipped": bytes(flipped),
            "magic": packed[:2]}
