from __future__ import annotations

import hashlib
import random
from itertools import repeat

import pytest

from waitgraph.errors import NestingViolation, SwitchConflict
from waitgraph.events import EventKind, TraceEvent
from waitgraph.graph import CPU_NODE, DISK_NODE, build_depgraph
from waitgraph.states import (
    _COUNTER_BY_KIND,
    COUNTERS,
    BlockReason,
    StateKind,
    StateValue,
    ThreadState,
    _Builder,
    _decode_state,
    _encode_state,
    build_state_db,
    cpu_current_key,
    disk_active_key,
    thread_cpu_key,
    thread_state_key,
    thread_syscall_key,
)
from waitgraph.synth import ScenarioSpec, generate
from oracles import counter_lines_by_scan, linear_query_range, thread_tids, value_at
from randtrace import random_trace


def ev(ts, cpu, tid, kind, **payload):
    return TraceEvent(ts, cpu, tid, f"w{tid}", kind, payload)


def switch(ts, prev, nxt, cpu=0, prev_state="runnable"):
    return ev(ts, cpu, prev, EventKind.SCHED_SWITCH,
              prev_tid=prev, prev_state=prev_state, next_tid=nxt)


A, B = 11, 22


def overlap_by_tid(db, root, t_a, t_b, resource) -> list[tuple[int, int]]:
    """(tid, covered ns) per other thread that held the resource while root
    waited on it over [t_a, t_b): the resource's edge weights in root's
    graph, ordered by tid."""
    g = build_depgraph(db, root, t_a, t_b, max_depth=0)
    return sorted((dst[1], e.weight_ns) for (src, dst), e in g.edges.items()
                  if src == resource)


W, SOFTIRQ = 66, 67


def with_disk_waiter(events, t_a, t_b):
    """The events plus a thread W, on a CPU of its own, blocked over
    [t_a, t_b) until the block softirq wakes it: a wait on the disk."""
    waiter = [switch(t_a, W, SOFTIRQ, cpu=7, prev_state="blocked"),
              ev(t_b, 7, SOFTIRQ, EventKind.SOFTIRQ_ENTRY, vec=4),
              ev(t_b, 7, SOFTIRQ, EventKind.SCHED_WAKEUP, waker_tid=SOFTIRQ,
                 wakee_tid=W, waker_context="softirq"),
              ev(t_b, 7, SOFTIRQ, EventKind.SOFTIRQ_EXIT, vec=4)]
    return sorted(events + waiter, key=lambda e: e.ts)


@pytest.fixture()
def blocked_fixture_db():
    # A runs in fcntl, blocks at 10, B wakes it at 50, A back on cpu at 60.
    events = [
        ev(0, 0, A, EventKind.SYSCALL_ENTRY, name="fcntl"),
        switch(10, A, B, prev_state="blocked"),
        ev(50, 0, B, EventKind.SCHED_WAKEUP, waker_tid=B, wakee_tid=A,
           waker_context="task"),
        switch(60, B, A),
        ev(70, 0, A, EventKind.SYSCALL_EXIT, name="fcntl"),
        switch(80, A, B, prev_state="blocked"),
    ]
    return build_state_db(events)


def test_hand_simulated_state_machine(blocked_fixture_db):
    db = blocked_fixture_db
    states = db.intervals(thread_state_key(A))
    assert [(sv.start, sv.end, sv.value) for sv in states] == [
        (0, 10, ThreadState(StateKind.RUNNING)),
        (10, 50, ThreadState(StateKind.BLOCKED, BlockReason.TASK, B)),
        (50, 60, ThreadState(StateKind.RUNNABLE)),
        (60, 80, ThreadState(StateKind.RUNNING)),
    ]
    syscalls = db.intervals(thread_syscall_key(A))
    assert [(sv.start, sv.end, sv.value) for sv in syscalls] == [(0, 70, "fcntl")]


def test_query_at_blocked_episode(blocked_fixture_db):
    got = value_at(blocked_fixture_db, thread_state_key(A), 30)
    assert got == ThreadState(StateKind.BLOCKED, BlockReason.TASK, B)
    assert value_at(blocked_fixture_db, thread_state_key(A), 80) is None


def test_query_range_clips_adjacent_intervals(blocked_fixture_db):
    got = blocked_fixture_db.query_range(thread_state_key(A), 40, 55)
    assert [(sv.start, sv.end, sv.value.kind) for sv in got] == [
        (40, 50, StateKind.BLOCKED),
        (50, 55, StateKind.RUNNABLE),
    ]
    assert got == linear_query_range(blocked_fixture_db, thread_state_key(A), 40, 55)


def test_query_range_empty_db_and_missing_key(blocked_fixture_db):
    assert build_state_db([]).query_range("thread/1/state", 0, 10) == []
    assert blocked_fixture_db.query_range("thread/999/state", 0, 10) == []


def test_single_thread_span_is_one_running_interval():
    events = [
        switch(0, 99, A),
        ev(10, 0, A, EventKind.SPAN_BEGIN, span_id="s"),
        ev(110, 0, A, EventKind.SPAN_END, span_id="s"),
        switch(120, A, 99, prev_state="blocked"),
    ]
    db = build_state_db(events)
    got = db.query_range(thread_state_key(A), 10, 110)
    assert [(sv.start, sv.end, sv.value) for sv in got] == [
        (10, 110, ThreadState(StateKind.RUNNING))]


def test_hrtimer_wakeup_sets_timer_reason():
    events = [
        switch(0, A, B, prev_state="blocked"),
        ev(20, 0, B, EventKind.HRTIMER_EXPIRE_ENTRY),
        ev(25, 0, B, EventKind.SCHED_WAKEUP, waker_tid=B, wakee_tid=A,
           waker_context="hrtimer"),
        ev(30, 0, B, EventKind.HRTIMER_EXPIRE_EXIT),
        switch(40, B, A),
    ]
    db = build_state_db(events)
    blocked = value_at(db, thread_state_key(A), 10)
    assert blocked == ThreadState(StateKind.BLOCKED, BlockReason.TIMER, None)


def test_softirq_vector_maps_to_disk_and_network():
    for vec, reason in ((4, BlockReason.DISK), (3, BlockReason.NETWORK),
                        (7, BlockReason.UNKNOWN)):
        events = [
            switch(0, A, B, prev_state="blocked"),
            ev(20, 0, B, EventKind.SOFTIRQ_ENTRY, vec=vec),
            ev(25, 0, B, EventKind.SCHED_WAKEUP, waker_tid=B, wakee_tid=A,
               waker_context="softirq"),
            ev(30, 0, B, EventKind.SOFTIRQ_EXIT, vec=vec),
            switch(40, B, A),
        ]
        db = build_state_db(events)
        got = value_at(db, thread_state_key(A), 10)
        assert got.reason is reason, vec


def test_task_wake_inside_futex_is_futex_reason():
    events = [
        ev(0, 0, A, EventKind.SYSCALL_ENTRY, name="futex_wait"),
        switch(10, A, B, prev_state="blocked"),
        ev(50, 0, B, EventKind.SCHED_WAKEUP, waker_tid=B, wakee_tid=A,
           waker_context="task"),
        switch(60, B, A),
        ev(70, 0, A, EventKind.SYSCALL_EXIT, name="futex_wait"),
    ]
    db = build_state_db(events)
    got = value_at(db, thread_state_key(A), 10)
    assert got == ThreadState(StateKind.BLOCKED, BlockReason.FUTEX, B)


def test_never_woken_blocked_tail_is_unknown():
    events = [
        switch(0, A, B, prev_state="blocked"),
        switch(100, B, 33, prev_state="runnable"),
    ]
    db = build_state_db(events)
    states = db.intervals(thread_state_key(A))
    assert states == [StateValue(0, 100, thread_state_key(A),
                                 ThreadState(StateKind.BLOCKED, BlockReason.UNKNOWN, None))]


def test_interrupt_window_splits_running():
    events = [
        switch(0, 99, A),
        ev(40, 0, A, EventKind.IRQ_ENTRY, irq=154),
        ev(60, 0, A, EventKind.IRQ_EXIT, irq=154),
        switch(100, A, 99, prev_state="runnable"),
    ]
    db = build_state_db(events)
    got = [(sv.start, sv.end, sv.value.kind)
           for sv in db.intervals(thread_state_key(A))]
    assert got == [(0, 40, StateKind.RUNNING), (40, 60, StateKind.INTERRUPTED),
                   (60, 100, StateKind.RUNNING)]


def test_cpu_current_and_last_cpu():
    events = [
        switch(0, 99, A, cpu=1),
        switch(50, A, B, cpu=1, prev_state="runnable"),
        switch(90, B, A, cpu=1, prev_state="runnable"),
        switch(120, A, B, cpu=1, prev_state="blocked"),
    ]
    db = build_state_db(events)
    cur = db.intervals("cpu/1/current_tid")
    assert [(sv.start, sv.end, sv.value) for sv in cur] == [
        (0, 50, A), (50, 90, B), (90, 120, A)]
    assert db.last_value_before(thread_cpu_key(A), 50) == 1
    assert db.range_columns(cpu_current_key(1), 0, 120) == \
        ([0, 50, 90], [50, 90, 120], [A, B, A])
    # each runnable wait on cpu 1 is blamed on the other thread's occupancy
    assert overlap_by_tid(db, A, 50, 90, CPU_NODE) == [(B, 40)]
    assert overlap_by_tid(db, B, 90, 120, CPU_NODE) == [(A, 30)]


def test_switch_conflict_detected():
    events = [
        switch(0, 99, A, cpu=0),
        switch(10, B, 44, cpu=0),  # cpu0 runs A, not B
    ]
    with pytest.raises(SwitchConflict,
                       match=r"^ts=10: cpu 0 runs tid 11, switch names prev 22$"):
        build_state_db(events)


def test_thread_on_two_cpus_conflict():
    events = [
        switch(0, 98, A, cpu=0),
        switch(10, 99, A, cpu=1),
    ]
    with pytest.raises(SwitchConflict, match=r"^ts=10: tid 11 already running on cpu 0$"):
        build_state_db(events)


def test_rq_complete_without_issue_raises():
    events = [ev(5, 0, A, EventKind.BLOCK_RQ_COMPLETE, dev="sda")]
    with pytest.raises(NestingViolation, match="ts=5: block_rq_complete on dev sda"):
        build_state_db(events)


@pytest.mark.parametrize("kind, payload", [
    (EventKind.IRQ_EXIT, {"irq": 6}),
    (EventKind.SOFTIRQ_EXIT, {"vec": 5}),
    (EventKind.HRTIMER_EXPIRE_EXIT, {}),
], ids=["other_line", "softirq", "hrtimer"])
def test_interrupt_exit_must_match_the_innermost_entry_on_its_cpu(kind, payload):
    events = [ev(10, 0, A, EventKind.IRQ_ENTRY, irq=5), ev(20, 0, A, kind, **payload)]
    with pytest.raises(NestingViolation, match=f"ts=20: {kind.value} on cpu 0"):
        build_state_db(events)


def test_every_event_kind_is_a_counter_or_has_one_handler():
    # a kind in neither set would raise KeyError in the fold; one in both
    # would never reach its handler
    handlers = _Builder().handlers
    assert set(_COUNTER_BY_KIND).isdisjoint(handlers)
    assert set(_COUNTER_BY_KIND) | set(handlers) == set(EventKind)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_bounds_and_count_come_from_the_first_and_last_event(n):
    events = [switch(0, 99, A), ev(10, 0, A, EventKind.PAGE_FAULT),
              ev(25, 0, A, EventKind.PAGE_FAULT)][:n]
    db = build_state_db(iter(events))
    assert (db.t_min, db.t_max, db.events_consumed) == \
        ((events[0].ts, events[-1].ts, n) if events else (0, 0, 0))


def test_disk_usage_none_in_range():
    db = build_state_db(with_disk_waiter([switch(0, 99, A)], 0, 100))
    assert db.disk_keys == []
    assert overlap_by_tid(db, W, 0, 100, DISK_NODE) == []


def test_disk_usage_43_percent_of_range():
    events = [
        switch(0, 99, A),
        ev(100, 0, A, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(530, 0, A, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        switch(1100, A, 99, prev_state="runnable"),
    ]
    db = build_state_db(with_disk_waiter(events, 100, 1100))
    assert db.range_columns(disk_active_key("sda"), 100, 1100) == ([100], [530], [A])
    # over the [100, 1100) range the single request covers 43%
    assert overlap_by_tid(db, W, 100, 1100, DISK_NODE) == [(A, 430)]


def test_disk_usage_two_disjoint_threads():
    events = [
        switch(0, 98, A, cpu=0),
        switch(0, 99, B, cpu=1),
        ev(10, 0, A, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(40, 0, A, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        ev(60, 1, B, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(90, 1, B, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        switch(100, A, 44, cpu=0, prev_state="runnable"),
    ]
    db = build_state_db(with_disk_waiter(events, 0, 100))
    assert db.range_columns(disk_active_key("sda"), 0, 100) == \
        ([10, 60], [40, 90], [A, B])
    usage = overlap_by_tid(db, W, 0, 100, DISK_NODE)
    assert usage == [(A, 30), (B, 30)]
    assert sum(d for _, d in usage) <= 100


def test_fifo_service_model_serializes_overlapping_requests():
    events = [
        switch(0, 98, A, cpu=0),
        switch(0, 99, B, cpu=1),
        ev(10, 0, A, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(20, 1, B, EventKind.BLOCK_RQ_ISSUE, dev="sda"),
        ev(100, 0, A, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        ev(150, 1, B, EventKind.BLOCK_RQ_COMPLETE, dev="sda"),
        switch(200, A, 44, cpu=0, prev_state="runnable"),
    ]
    db = build_state_db(events)
    ivs = db.intervals("disk/sda/active_tid")
    assert [(sv.start, sv.end, sv.value) for sv in ivs] == [(10, 100, A), (100, 150, B)]


def test_counters_are_cumulative_step_functions():
    events = [
        switch(0, 99, A),
        ev(10, 0, A, EventKind.IO_READ, bytes=100),
        ev(20, 0, A, EventKind.IO_READ, bytes=50),
        ev(30, 0, A, EventKind.PAGE_FAULT),
        switch(100, A, 99, prev_state="runnable"),
    ]
    db = build_state_db(events)
    assert db.counter_steps(A, "bytes_read") == ([10, 20], [100, 150])
    assert db.counter_steps(A, "pagefaults") == ([30], [1])
    assert db.counter_steps(A, "bytes_written") == ([], [])
    assert db.counter_delta(A, "bytes_read", 0, 100) == 150
    assert db.counter_delta(A, "bytes_read", 15, 100) == 50
    assert db.counter_delta(A, "pagefaults", 0, 100) == 1
    assert db.counter_delta(A, "pagefaults", 31, 100) == 0


def test_counter_bumps_at_one_timestamp_keep_the_last_total():
    events = [
        switch(0, 99, A),
        ev(10, 0, A, EventKind.IO_READ, bytes=100),
        ev(10, 0, A, EventKind.IO_READ, bytes=50),
        ev(10, 0, A, EventKind.IO_READ, bytes=0),
        switch(100, A, 99, prev_state="runnable"),
    ]
    db = build_state_db(events)
    assert db.counter_steps(A, "bytes_read") == ([10], [150])
    assert db.counter_delta(A, "bytes_read", 0, 11) == 150
    assert db.counter_delta(A, "bytes_read", 0, 10) == 0
    assert db.counter_delta(A, "bytes_read", 10, 100) == 150
    assert db.counter_delta(A, "bytes_read", 11, 100) == 0


def test_counter_step_at_t_max_is_invisible():
    events = [
        switch(0, 99, A),
        ev(10, 0, A, EventKind.IO_WRITE, bytes=7),
        ev(100, 0, A, EventKind.IO_WRITE, bytes=5),
        ev(100, 0, A, EventKind.PAGE_FAULT),
    ]
    db = build_state_db(events)
    assert db.t_max == 100
    assert db.counter_steps(A, "bytes_written") == ([10], [7])
    assert db.counter_steps(A, "pagefaults") == ([], [])
    assert db.counter_delta(A, "bytes_written", 0, 1000) == 7
    assert db.counter_delta(A, "pagefaults", 0, 1000) == 0


def test_thread_first_seen_by_page_fault_runs_on_that_cpu():
    events = [
        switch(0, 99, B, cpu=0),
        ev(5, 2, A, EventKind.PAGE_FAULT),
        ev(8, 2, A, EventKind.PAGE_FAULT),
        switch(20, A, 44, cpu=2),
    ]
    db = build_state_db(events)
    assert db.intervals(thread_state_key(A)) == [
        StateValue(5, 20, thread_state_key(A), ThreadState(StateKind.RUNNING))]
    assert value_at(db, thread_cpu_key(A), 5) == 2
    assert value_at(db, cpu_current_key(2), 5) == A
    assert db.counter_steps(A, "pagefaults") == ([5, 8], [1, 2])


def test_counters_are_not_interval_keys(lock_fixture):
    db = lock_fixture["db"]
    assert not [k for k in db.keys() if k.endswith(COUNTERS)]
    assert any(db.counter_steps(tid, "pagefaults")[0] for tid in db.comms)


def test_single_pass_counter():
    events = random_trace(seed=1, n_events=500)
    db = build_state_db(events)
    assert db.events_consumed == len(events)


def _tiling_ok(db, tid) -> bool:
    ivs = db.intervals(thread_state_key(tid))
    if not ivs:
        return True
    for cur, nxt in zip(ivs, ivs[1:]):
        if cur.end != nxt.start or cur.duration_ns <= 0:
            return False
    return ivs[-1].duration_ns > 0


@pytest.mark.parametrize("seed", range(8))
def test_state_tiling_no_gaps_no_overlaps(seed):
    events = random_trace(seed=seed, n_events=600)
    db = build_state_db(events)
    for tid in thread_tids(db):
        assert _tiling_ok(db, tid), tid


@pytest.mark.parametrize("seed", range(8))
def test_cpu_exclusivity(seed):
    events = random_trace(seed=seed, n_events=600)
    db = build_state_db(events)
    # at any instant at most one thread is running per cpu: the running
    # intervals of all threads on one cpu must never overlap
    by_cpu: dict[int, list[tuple[int, int]]] = {}
    for tid in thread_tids(db):
        for sv in db.intervals(f"thread/{tid}/cpu"):
            by_cpu.setdefault(int(sv.value), []).append((sv.start, sv.end))
    for cpu, spans in by_cpu.items():
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2, f"cpu {cpu} double-booked"


@pytest.mark.parametrize("seed", range(5))
def test_query_range_matches_linear_oracle(seed):
    import random as _random
    events = random_trace(seed=seed, n_events=800)
    db = build_state_db(events)
    rng = _random.Random(seed + 1000)
    keys = db.keys()
    windows = []
    for _ in range(30):
        key = rng.choice(keys)
        t_a = rng.randint(db.t_min, db.t_max - 1)
        t_b = rng.randint(t_a + 1, db.t_max + 10)
        windows.append((key, t_a, t_b))
    # instants exactly at, and one off, each interval boundary; windows
    # between such instants around a few intervals and their neighbours
    for key in rng.sample(keys, 4):
        ivs = db.intervals(key)
        bounds = sorted({t + d for sv in ivs for t in (sv.start, sv.end)
                         for d in (-1, 0, 1)})
        for t in bounds:
            at = value_at(db, key, t)
            assert db.range_columns(key, t, t + 1) == (
                ([], [], []) if at is None else ([t], [t + 1], [at])), (key, t)
            assert db.last_value_before(key, t) == next(
                (sv.value for sv in reversed(ivs) if sv.start < t), None), (key, t)
        for i in rng.sample(range(len(bounds)), min(6, len(bounds))):
            windows += [(key, bounds[i], t_b) for t_b in bounds[i + 1:i + 10]]
    for key, t_a, t_b in windows:
        assert db.query_range(key, t_a, t_b) == linear_query_range(db, key, t_a, t_b)


@pytest.mark.parametrize("restored", [False, True], ids=["fold", "restored"])
@pytest.mark.parametrize("seed", range(3))
def test_range_columns_match_query_range_and_linear_oracle(seed, restored):
    events = random_trace(seed=seed, n_events=200)
    db = build_state_db(events)
    if restored:
        # the restored database reads its columns through states._Columns
        db = _decode_state(*_encode_state(db))
    rng = random.Random(seed + 2000)
    for key in [*db.keys(), "thread/0/missing"]:
        ivs = db.intervals(key)
        instants = sorted({t + d for sv in ivs for t in (sv.start, sv.end)
                           for d in (-1, 0, 1)})
        # a window that starts or ends at each boundary instant, plus random ones
        windows = [(t, t + rng.randint(1, 300)) if rng.random() < 0.5
                   else (t - rng.randint(1, 300), t) for t in instants]
        for _ in range(10):
            t_a = rng.randint(db.t_min - 5, db.t_max + 5)
            windows.append((t_a, t_a + rng.randint(1, db.t_max - db.t_min + 10)))
        for t_a, t_b in windows:
            starts, ends, values = db.range_columns(key, t_a, t_b)
            assert list(map(StateValue, starts, ends, repeat(key), values)) \
                == db.query_range(key, t_a, t_b) == list(db.slices(key, t_a, t_b)) \
                == linear_query_range(db, key, t_a, t_b), (key, t_a, t_b)
            # fresh lists: a caller's edit leaves the database as it was
            starts[:], ends[:], values[:] = [0], [1], [None]
            assert db.range_columns(key, t_a, t_b)[0] == \
                [sv.start for sv in db.query_range(key, t_a, t_b)]
        t = instants[len(instants) // 2] if instants else db.t_min
        for t_a, t_b in ((t, t), (t + 1, t)):
            with pytest.raises(ValueError) as columns_error:
                db.range_columns(key, t_a, t_b)
            with pytest.raises(ValueError) as query_error:
                db.query_range(key, t_a, t_b)
            with pytest.raises(ValueError) as slices_error:
                list(db.slices(key, t_a, t_b))
            assert str(columns_error.value) == str(query_error.value) \
                == str(slices_error.value) \
                == f"empty range [{t_a}, {t_b}): t_a must be < t_b"
    # the whole listing: the interval keys as query_range gives them, and
    # the counters as a scan of the events derives them, in key order
    stamps = sorted({ev.ts for ev in events})
    windows = [(db.t_min, db.t_max + 1)]
    for _ in range(10):
        t_a, t_b = sorted(rng.sample(stamps, 2))
        windows.append((t_a + rng.randint(-1, 1), t_b + rng.randint(1, 2)))
    for t_a, t_b in windows:
        listing = list(db.slices("", t_a, t_b))
        assert [sv.key for sv in listing] == sorted(sv.key for sv in listing)
        assert [sv for sv in listing if not sv.key.endswith(COUNTERS)] == \
            [sv for key in db.keys() for sv in db.query_range(key, t_a, t_b)]
        assert [f"{sv.key}\t[{sv.start}, {sv.end})\t{sv.value}" for sv in listing
                if sv.key.endswith(COUNTERS)] == counter_lines_by_scan(events, t_a, t_b)
        for prefix in ("thread/", "thread/1", "cpu/", "disk/", "none/"):
            assert list(db.slices(prefix, t_a, t_b)) == \
                [sv for sv in listing if sv.key.startswith(prefix)]


def _listing(db) -> str:
    """What `waitgraph inspect` prints for the whole trace, then the bounds,
    the event count and the comms."""
    return "".join(f"{sv.key}\t[{sv.start}, {sv.end})\t{sv.value}\n"
                   for sv in db.slices("", db.t_min, db.t_max + 1)) \
        + repr((db.t_min, db.t_max, db.events_consumed, sorted(db.comms.items())))


# sha256 of the listing of every trace of a case, one after the other: the
# synth scenarios at test_synth._PINNED's seeds, and 100 random traces; a
# change to the fold must leave these unchanged
_PINNED_DBS = {
    ("lock", 3): "bb3df032d6fd90c4f9e75d2997160acd3d0dfc5adff935997cc3f3b2063ffede",
    ("cpu", 4): "2a71f7b90a2391dd9980e9e47d699397731e1059509d79ea0ab48c0947bb3e2a",
    ("disk", 5): "a85dfd4eb16d20b85dd16b246c916f80320a2875cfb618fddaa8a55aeae67434",
    ("mixed", 6): "0ff47bc811d1d7488297c09e1d96ac9656fa81ee633e3097155a906fe322ad00",
    ("random", None): "a8e3fbb333b1c5700b626eaa4b29ceb3d31c6863e285482408ab18dcdf138d6e",
}


@pytest.mark.parametrize("restored", [False, True], ids=["fold", "restored"])
@pytest.mark.parametrize("scenario, seed", list(_PINNED_DBS))
def test_state_db_matches_pinned_digests(scenario, seed, restored):
    if scenario == "random":
        # two devices and nested interrupts, at lengths from 150 to 1500 events
        traces = (random_trace(seed=s, n_events=random.Random(s).randint(150, 1500))
                  for s in range(100))
    else:
        traces = [generate(ScenarioSpec(scenario, seed=seed, n_spans=16))[0]]
    h = hashlib.sha256()
    for events in traces:
        db = build_state_db(events)
        if restored:
            db = _decode_state(*_encode_state(db))
        h.update(_listing(db).encode())
    assert h.hexdigest() == _PINNED_DBS[scenario, seed]


def test_irq_context_wake_stays_unknown():
    # no per-line irq mapping exists: an irq-context wake stays unknown
    events = [
        switch(0, A, B, prev_state="blocked"),
        ev(20, 0, B, EventKind.IRQ_ENTRY, irq=154),
        ev(25, 0, B, EventKind.SCHED_WAKEUP, waker_tid=B, wakee_tid=A,
           waker_context="irq"),
        ev(30, 0, B, EventKind.IRQ_EXIT, irq=154),
        switch(40, B, A),
    ]
    default = build_state_db(events)
    assert value_at(default, thread_state_key(A), 10).reason is BlockReason.UNKNOWN
