"""Thread/resource state reconstruction into an interval-indexed database.

Events are folded, in a single pass, into half-open interval records
``[start, end)`` each holding one value for one key.  Keys are slash paths:

    thread/{tid}/state        ThreadState (running/runnable/interrupted/blocked)
    thread/{tid}/syscall      innermost active syscall name
    thread/{tid}/cpu          CPU index while the thread is running
    cpu/{idx}/current_tid     thread occupying the CPU
    disk/{dev}/active_tid     thread whose request the device is serving

Per key, intervals are disjoint, sorted by start and stored as columns,
like the counters below: the starts, the ends and the values.  Queries
bisect the starts and build a StateValue only for an interval they return.
Block I/O requests are matched FIFO per device and the device is modeled
as serving one request at a time, so the active_tid intervals of one
device never overlap.

The cumulative counters of COUNTERS (page faults, bytes read, bytes
written) are not intervals: each (tid, counter) is a pair of columns, the
step timestamps (strictly increasing, all below t_max) and the running
total from each step on.  ``counter_delta`` bisects them.

The fold also keeps the span_begin/span_end events, in trace order, as
``StateDatabase.markers``: the input of ``events.extract_spans``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, NamedTuple

from .errors import NestingViolation, SwitchConflict
from .events import EventKind, TraceEvent, _gc_paused


class StateKind(str, Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    INTERRUPTED = "interrupted"
    BLOCKED = "blocked"


class BlockReason(str, Enum):
    TASK = "task"
    DISK = "disk"
    TIMER = "timer"
    NETWORK = "network"
    FUTEX = "futex"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class ThreadState:
    kind: StateKind
    reason: BlockReason | None = None
    waker_tid: int | None = None

    def __str__(self) -> str:
        if self.kind is not StateKind.BLOCKED:
            return self.kind.value
        if self.reason in (BlockReason.TASK, BlockReason.FUTEX):
            return f"blocked({self.reason.value}:{self.waker_tid})"
        return f"blocked({self.reason.value})"


RUNNING = ThreadState(StateKind.RUNNING)
RUNNABLE = ThreadState(StateKind.RUNNABLE)
INTERRUPTED = ThreadState(StateKind.INTERRUPTED)


class StateValue(NamedTuple):
    """One attribute value over a half-open interval [start, end)."""

    start: int
    end: int
    key: str
    value: object

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def thread_state_key(tid: int) -> str:
    return f"thread/{tid}/state"


def thread_syscall_key(tid: int) -> str:
    return f"thread/{tid}/syscall"


def thread_cpu_key(tid: int) -> str:
    return f"thread/{tid}/cpu"


def cpu_current_key(cpu: int) -> str:
    return f"cpu/{cpu}/current_tid"


def disk_active_key(dev: str) -> str:
    return f"disk/{dev}/active_tid"


def thread_counter_key(tid: int, counter: str) -> str:
    return f"thread/{tid}/{counter}"


# cumulative per-thread counters, by the event kind that bumps each
_COUNTER_BY_KIND = {
    EventKind.PAGE_FAULT: "pagefaults",
    EventKind.IO_READ: "bytes_read",
    EventKind.IO_WRITE: "bytes_written",
}
COUNTERS = tuple(_COUNTER_BY_KIND.values())

# interrupt entry/exit kind -> (nesting family, payload key of its token)
_IRQ_FAMILY = {
    EventKind.IRQ_ENTRY: ("irq", "irq"),
    EventKind.IRQ_EXIT: ("irq", "irq"),
    EventKind.SOFTIRQ_ENTRY: ("softirq", "vec"),
    EventKind.SOFTIRQ_EXIT: ("softirq", "vec"),
    EventKind.HRTIMER_EXPIRE_ENTRY: ("hrtimer", None),
    EventKind.HRTIMER_EXPIRE_EXIT: ("hrtimer", None),
}


def _irq_frame(ev: TraceEvent) -> tuple[str, int | None]:
    family, token_key = _IRQ_FAMILY[ev.kind]
    return family, ev.payload[token_key] if token_key else None


# (starts, ends, values) of one key's intervals
IntervalColumns = tuple[list[int], list[int], list[object]]
_NO_INTERVALS: IntervalColumns = ([], [], [])
# (step timestamps, cumulative totals) of one thread's counter
CounterColumns = tuple[list[int], list[int]]
_NO_STEPS: CounterColumns = ([], [])

# Linux softirq vector numbers for the wake-reason mapping.
SOFTIRQ_TIMER = 1
SOFTIRQ_NET_TX = 2
SOFTIRQ_NET_RX = 3
SOFTIRQ_BLOCK = 4

DEFAULT_SOFTIRQ_REASONS = {
    SOFTIRQ_TIMER: BlockReason.TIMER,
    SOFTIRQ_NET_TX: BlockReason.NETWORK,
    SOFTIRQ_NET_RX: BlockReason.NETWORK,
    SOFTIRQ_BLOCK: BlockReason.DISK,
}


def _clip(key: str, starts: list[int], ends: list[int], values: list,
          t_a: int, t_b: int) -> list[StateValue]:
    """The disjoint, sorted intervals of the columns that intersect
    [t_a, t_b), clipped to it."""
    if t_a >= t_b:
        raise ValueError(f"empty range [{t_a}, {t_b}): t_a must be < t_b")
    # the hits are the interval holding t_a, if any, and every later one
    # that starts before t_b
    lo = bisect_right(starts, t_a) - 1
    if lo < 0 or ends[lo] <= t_a:
        lo += 1
    hi = bisect_left(starts, t_b, lo)
    # fresh slices: the first start and the last end are clipped in place
    hit_starts, hit_ends = starts[lo:hi], ends[lo:hi]
    if hit_starts:
        hit_starts[0] = max(hit_starts[0], t_a)
        hit_ends[-1] = min(hit_ends[-1], t_b)
    return list(map(StateValue, hit_starts, hit_ends, repeat(key), values[lo:hi]))


class StateDatabase:
    """Immutable interval store with point and range queries, and the
    trace's span markers (``markers``, span_begin/span_end in trace order)."""

    def __init__(self, intervals: dict[str, IntervalColumns],
                 counters: dict[str, dict[int, CounterColumns]], comms: dict[int, str],
                 t_min: int, t_max: int, events_consumed: int,
                 markers: list[TraceEvent]):
        self._intervals = intervals
        self._counters = counters
        self._disk_keys = sorted(k for k in intervals if k.startswith("disk/"))
        self.markers = markers
        self.comms = comms
        self.t_min = t_min
        self.t_max = t_max
        self.events_consumed = events_consumed

    def keys(self) -> list[str]:
        return sorted(self._intervals)

    def intervals(self, key: str) -> list[StateValue]:
        """A fresh list of the key's intervals, sorted by start."""
        starts, ends, values = self._intervals.get(key, _NO_INTERVALS)
        return list(map(StateValue, starts, ends, repeat(key), values))

    def comm(self, tid: int) -> str:
        return self.comms.get(tid, f"tid{tid}")

    def thread_tids(self) -> list[int]:
        tids = []
        for key in self._intervals:
            if key.startswith("thread/") and key.endswith("/state"):
                tids.append(int(key.split("/")[1]))
        return sorted(tids)

    def query_at(self, key: str, t: int) -> object | None:
        """The value holding at instant t, or None."""
        starts, ends, values = self._intervals.get(key, _NO_INTERVALS)
        i = bisect_right(starts, t) - 1
        if i >= 0 and ends[i] > t:
            return values[i]
        return None

    def query_range(self, key: str, t_a: int, t_b: int) -> list[StateValue]:
        """All intervals intersecting [t_a, t_b), clipped, ordered by start."""
        # unpacked here: a starred call costs a hot path about 10 % more
        starts, ends, values = self._intervals.get(key, _NO_INTERVALS)
        return _clip(key, starts, ends, values, t_a, t_b)

    def last_value_before(self, key: str, t: int) -> object | None:
        """Value of the most recent interval starting strictly before t."""
        starts, _, values = self._intervals.get(key, _NO_INTERVALS)
        i = bisect_right(starts, t - 1) - 1
        return values[i] if i >= 0 else None

    def counter_steps(self, tid: int, counter: str) -> CounterColumns:
        """The step timestamps and cumulative totals of one thread's counter
        (empty lists if it never stepped; do not mutate)."""
        return self._counters[counter].get(tid, _NO_STEPS)

    def counter_delta(self, tid: int, counter: str, t_a: int, t_b: int) -> int:
        """Number of counted units in [t_a, t_b) for a cumulative counter."""
        # the count at t is the last step starting before t, 0 before any step
        stamps, totals = self.counter_steps(tid, counter)
        i_b = bisect_left(stamps, t_b)
        i_a = bisect_left(stamps, t_a)
        return (totals[i_b - 1] if i_b else 0) - (totals[i_a - 1] if i_a else 0)

    def counter_range(self, tid: int, counter: str, t_a: int,
                      t_b: int) -> list[StateValue]:
        """The counter's running totals intersecting [t_a, t_b) as clipped
        intervals keyed thread/{tid}/{counter}: a step holds until the next
        one, the last until t_max."""
        stamps, totals = self.counter_steps(tid, counter)
        return _clip(thread_counter_key(tid, counter), stamps,
                     stamps[1:] + [self.t_max], totals, t_a, t_b)

    # -- resource occupancy ------------------------------------------------

    def _occupancy(self, keys: list[str], t_a: int,
                   t_b: int) -> dict[int, list[StateValue]]:
        """Per-tid clipped intervals of the keys intersecting [t_a, t_b),
        each tid's list sorted by start."""
        usage: dict[int, list[StateValue]] = {}
        for key in keys:
            for sv in self.query_range(key, t_a, t_b):
                usage.setdefault(int(sv.value), []).append(sv)
        for ivs in usage.values():
            ivs.sort(key=lambda sv: sv.start)
        return usage

    def disk_usage_by_thread(self, t_a: int, t_b: int) -> dict[int, list[StateValue]]:
        return self._occupancy(self._disk_keys, t_a, t_b)

    def cpu_usage_by_thread(self, cpu: int, t_a: int, t_b: int) -> dict[int, list[StateValue]]:
        return self._occupancy([cpu_current_key(cpu)], t_a, t_b)

    def last_cpu_before(self, tid: int, t: int) -> int | None:
        v = self.last_value_before(thread_cpu_key(tid), t)
        return int(v) if v is not None else None


class _Builder:
    def __init__(self):
        self.intervals: dict[str, IntervalColumns] = {}
        self.open: dict[str, tuple[int, object]] = {}
        self.comms: dict[int, str] = {}
        self.irq_stack: dict[int, list[tuple[str, int | None]]] = {}
        self.syscall_stack: dict[int, list[str]] = {}
        self.dev_fifo: dict[str, deque[tuple[int, int]]] = {}
        self.dev_last_end: dict[str, int] = {}
        self.counters: dict[str, dict[int, CounterColumns]] = {
            c: {} for c in COUNTERS}
        self._columns_by_kind = {k: self.counters[c]
                                 for k, c in _COUNTER_BY_KIND.items()}
        self.known_tids: set[int] = set()  # threads with a state
        self.markers: list[TraceEvent] = []
        self.t_min: int | None = None
        self.t_max: int = 0
        self.count = 0

    # interval plumbing: one open value per key; zero-length intervals are
    # dropped so state flips at a shared timestamp never violate t_i < t_j.
    def _append(self, key: str, start: int, end: int, value: object) -> None:
        cols = self.intervals.get(key)
        if cols is None:
            self.intervals[key] = ([start], [end], [value])
        else:
            cols[0].append(start)
            cols[1].append(end)
            cols[2].append(value)

    def set_open(self, key: str, t: int, value: object) -> None:
        cur = self.open.get(key)
        if cur is not None:
            start, old = cur
            if old == value:
                return
            if start < t:
                self._append(key, start, t, old)
        self.open[key] = (t, value)

    def close_open(self, key: str, t: int) -> None:
        cur = self.open.pop(key, None)
        if cur is not None and cur[0] < t:
            self._append(key, cur[0], t, cur[1])

    def open_value(self, key: str) -> object | None:
        cur = self.open.get(key)
        return cur[1] if cur is not None else None

    def replace_open_value(self, key: str, value: object) -> None:
        start, _ = self.open[key]
        self.open[key] = (start, value)

    # thread state helpers
    def thread_state(self, tid: int) -> ThreadState | None:
        return self.open_value(thread_state_key(tid))  # type: ignore[return-value]

    def set_thread_state(self, tid: int, t: int, st: ThreadState) -> None:
        self.known_tids.add(tid)
        self.set_open(thread_state_key(tid), t, st)

    def mark_running(self, tid: int, cpu: int, t: int) -> None:
        """A thread first observed through its own actor event (syscall,
        I/O, counter, span marker) was already executing on that CPU."""
        if tid in self.known_tids:
            return
        self.set_thread_state(tid, t, RUNNING)
        self.set_open(thread_cpu_key(tid), t, cpu)
        if self.open_value(cpu_current_key(cpu)) is None:
            self.set_open(cpu_current_key(cpu), t, tid)

    _ACTOR_KINDS = frozenset((
        EventKind.SYSCALL_ENTRY, EventKind.SYSCALL_EXIT,
        EventKind.BLOCK_RQ_ISSUE, EventKind.SPAN_BEGIN, EventKind.SPAN_END,
    ))

    def handle(self, ev: TraceEvent) -> None:
        self.count += 1
        if self.t_min is None:
            self.t_min = ev.ts
        self.t_max = ev.ts
        if ev.tid not in self.comms:
            self.comms[ev.tid] = ev.comm
        kind = ev.kind
        columns = self._columns_by_kind.get(kind)
        if columns is not None:
            # counter fast path: one step per event, a shared timestamp
            # keeps only its last total (as zero-length intervals were dropped)
            tid, ts = ev.tid, ev.ts
            if tid not in self.known_tids:
                self.mark_running(tid, ev.cpu, ts)
            delta = ev.payload["bytes"] if kind is not EventKind.PAGE_FAULT else 1
            if delta == 0:
                return
            col = columns.get(tid)
            if col is None:
                columns[tid] = ([ts], [delta])
            elif col[0][-1] == ts:
                col[1][-1] += delta
            else:
                col[0].append(ts)
                col[1].append(col[1][-1] + delta)
            return
        if kind in self._ACTOR_KINDS:
            self.mark_running(ev.tid, ev.cpu, ev.ts)
        if kind is EventKind.SCHED_SWITCH:
            self._on_switch(ev)
        elif kind is EventKind.SCHED_WAKEUP:
            if ev.payload["waker_context"] == "task":
                self.mark_running(ev.payload["waker_tid"], ev.cpu, ev.ts)
            self._on_wakeup(ev)
        elif kind in (EventKind.IRQ_ENTRY, EventKind.SOFTIRQ_ENTRY,
                      EventKind.HRTIMER_EXPIRE_ENTRY):
            self._on_irq_entry(ev)
        elif kind in (EventKind.IRQ_EXIT, EventKind.SOFTIRQ_EXIT,
                      EventKind.HRTIMER_EXPIRE_EXIT):
            self._on_irq_exit(ev)
        elif kind is EventKind.SYSCALL_ENTRY:
            stack = self.syscall_stack.setdefault(ev.tid, [])
            stack.append(ev.payload["name"])
            self.set_open(thread_syscall_key(ev.tid), ev.ts, ev.payload["name"])
        elif kind is EventKind.SYSCALL_EXIT:
            stack = self.syscall_stack.get(ev.tid)
            if not stack or stack[-1] != ev.payload["name"]:
                raise NestingViolation(
                    f"ts={ev.ts}: syscall_exit({ev.payload['name']}) on tid {ev.tid} "
                    "does not match an open entry")
            stack.pop()
            if stack:
                self.set_open(thread_syscall_key(ev.tid), ev.ts, stack[-1])
            else:
                self.close_open(thread_syscall_key(ev.tid), ev.ts)
        elif kind is EventKind.BLOCK_RQ_ISSUE:
            self.dev_fifo.setdefault(ev.payload["dev"], deque()).append((ev.tid, ev.ts))
        elif kind is EventKind.BLOCK_RQ_COMPLETE:
            self._on_rq_complete(ev)
        elif kind is EventKind.SPAN_BEGIN or kind is EventKind.SPAN_END:
            self.markers.append(ev)  # no state of their own

    def _on_switch(self, ev: TraceEvent) -> None:
        t, cpu = ev.ts, ev.cpu
        prev, nxt = ev.payload["prev_tid"], ev.payload["next_tid"]
        cpu_key = cpu_current_key(cpu)
        occupant = self.open_value(cpu_key)
        if occupant is not None and occupant != prev:
            raise SwitchConflict(
                f"ts={t}: cpu {cpu} runs tid {occupant}, switch names prev {prev}")
        nxt_state = self.thread_state(nxt)
        if nxt_state is not None and nxt_state.kind is StateKind.RUNNING:
            raise SwitchConflict(
                f"ts={t}: tid {nxt} already running on cpu "
                f"{self.open_value(thread_cpu_key(nxt))}")
        if ev.payload["prev_state"] == "blocked":
            out_state = ThreadState(StateKind.BLOCKED, BlockReason.UNKNOWN, None)
        else:
            out_state = RUNNABLE
        self.set_thread_state(prev, t, out_state)
        self.close_open(thread_cpu_key(prev), t)
        self.set_thread_state(nxt, t, RUNNING)
        self.set_open(thread_cpu_key(nxt), t, cpu)
        self.set_open(cpu_key, t, nxt)

    def _wake_reason(self, ev: TraceEvent) -> ThreadState:
        ctx = ev.payload["waker_context"]
        waker = ev.payload["waker_tid"]
        wakee = ev.payload["wakee_tid"]
        if ctx == "task":
            # A task wake that ends a wait inside futex is a futex handoff.
            stack = self.syscall_stack.get(wakee)
            if stack and "futex" in stack[-1]:
                return ThreadState(StateKind.BLOCKED, BlockReason.FUTEX, waker)
            return ThreadState(StateKind.BLOCKED, BlockReason.TASK, waker)
        if ctx == "hrtimer":
            return ThreadState(StateKind.BLOCKED, BlockReason.TIMER, None)
        stack = self.irq_stack.get(ev.cpu, [])
        if ctx == "softirq":
            for fam, token in reversed(stack):
                if fam == "softirq":
                    reason = DEFAULT_SOFTIRQ_REASONS.get(token, BlockReason.UNKNOWN)
                    return ThreadState(StateKind.BLOCKED, reason, None)
        # irq-context wakes have no per-line mapping and stay unknown
        return ThreadState(StateKind.BLOCKED, BlockReason.UNKNOWN, None)

    def _on_wakeup(self, ev: TraceEvent) -> None:
        wakee = ev.payload["wakee_tid"]
        key = thread_state_key(wakee)
        cur = self.thread_state(wakee)
        if cur is not None and cur.kind is StateKind.BLOCKED:
            # The reason is only known now, from the waking context: patch
            # the still-open blocked interval before closing it.
            self.replace_open_value(key, self._wake_reason(ev))
            self.set_open(key, ev.ts, RUNNABLE)
        elif cur is None:
            self.set_thread_state(wakee, ev.ts, RUNNABLE)
        # already runnable/running: spurious wake, no transition

    def _on_irq_entry(self, ev: TraceEvent) -> None:
        stack = self.irq_stack.setdefault(ev.cpu, [])
        stack.append(_irq_frame(ev))
        if len(stack) == 1:
            occupant = self.open_value(cpu_current_key(ev.cpu))
            if occupant is not None:
                st = self.thread_state(int(occupant))
                if st is not None and st.kind is StateKind.RUNNING:
                    self.set_thread_state(int(occupant), ev.ts, INTERRUPTED)

    def _on_irq_exit(self, ev: TraceEvent) -> None:
        stack = self.irq_stack.get(ev.cpu)
        if not stack or stack[-1] != _irq_frame(ev):
            raise NestingViolation(
                f"ts={ev.ts}: {ev.kind.value} on cpu {ev.cpu} does not match an open entry")
        stack.pop()
        if not stack:
            occupant = self.open_value(cpu_current_key(ev.cpu))
            if occupant is not None:
                st = self.thread_state(int(occupant))
                if st is not None and st.kind is StateKind.INTERRUPTED:
                    self.set_thread_state(int(occupant), ev.ts, RUNNING)

    def _on_rq_complete(self, ev: TraceEvent) -> None:
        dev = ev.payload["dev"]
        fifo = self.dev_fifo.get(dev)
        if not fifo:
            raise NestingViolation(
                f"ts={ev.ts}: block_rq_complete on dev {dev} without an issue")
        tid, issued = fifo.popleft()
        service_start = max(issued, self.dev_last_end.get(dev, 0))
        if service_start < ev.ts:
            self._append(disk_active_key(dev), service_start, ev.ts, tid)
        self.dev_last_end[dev] = ev.ts

    def finish(self) -> StateDatabase:
        end = self.t_max
        for key in sorted(self.open):
            self.close_open(key, end)
        for columns in self.counters.values():
            for tid, (stamps, totals) in list(columns.items()):
                # a step at t_max would hold for zero time
                if stamps[-1] == end:
                    stamps.pop()
                    totals.pop()
                    if not stamps:
                        del columns[tid]
        return StateDatabase(self.intervals, self.counters, self.comms,
                             self.t_min if self.t_min is not None else 0,
                             end, self.count, self.markers)


def build_state_db(events: Iterable[TraceEvent]) -> StateDatabase:
    """Fold an ordered event stream into a StateDatabase in one pass.

    Mapping rules:
      - sched_switch: next thread -> running (and cpu/{idx}/current_tid),
        previous -> runnable or blocked per prev_state; the blocked reason
        stays unknown until the wakeup that ends it reveals the context.
      - sched_wakeup: wakee blocked -> runnable; reason patched from the
        waker context (task/futex handoff, hrtimer -> timer, softirq via
        the DEFAULT_SOFTIRQ_REASONS per-vector mapping, irq -> unknown).
      - irq/softirq/hrtimer entry+exit: the thread current on that CPU is
        interrupted for the outermost nested duration.
      - syscall entry/exit: thread/{tid}/syscall holds the innermost name.
      - block_rq_issue/complete: FIFO-matched per device into
        disk/{dev}/active_tid service intervals.
      - page_fault / io_read / io_write: cumulative step-function counters,
        stored as per-thread columns (StateDatabase.counter_steps).
      - span_begin / span_end: kept, in order, as StateDatabase.markers.

    This fold is the one nesting check: NestingViolation (naming ts=) for
    an exit that does not match the innermost open entry of its family,
    syscalls per tid and irq/softirq/hrtimer per CPU, or a block
    completion with no issue pending on its device.
    """
    builder = _Builder()
    handle = builder.handle
    with _gc_paused():
        for ev in events:
            handle(ev)
    return builder.finish()


# -- the CLI's state sidecar body ------------------------------------------


def _encode_state(db: StateDatabase) -> bytes:
    """A database, span markers included, as columnar, sorted-key JSON:
    per key the interval starts, the ends and an index into one table of
    distinct values (a ThreadState is a [kind, reason, waker_tid] list)."""
    table: dict[object, int] = {}
    intervals = {}
    with _gc_paused():
        for key in sorted(db._intervals):
            starts, ends, vals = db._intervals[key]
            intervals[key] = [starts, ends, [table.setdefault(v, len(table)) for v in vals]]
    values = [[v.kind.value, v.reason and v.reason.value, v.waker_tid]
              if type(v) is ThreadState else v for v in table]
    return json.dumps({
        "intervals": intervals,
        "values": values,
        "counters": {c: [[tid, *cols] for tid, cols in db._counters[c].items()]
                     for c in COUNTERS},
        "comms": list(db.comms.items()),
        "t_min": db.t_min,
        "t_max": db.t_max,
        "events_consumed": db.events_consumed,
        "markers": [[ev.ts, ev.cpu, ev.tid, ev.comm, ev.kind.value,
                     ev.payload["span_id"]] for ev in db.markers],
    }, sort_keys=True, separators=(",", ":")).encode("ascii")


def _decode_state(body: str) -> StateDatabase:
    """The inverse of _encode_state."""
    with _gc_paused():
        obj = json.loads(body)
        values = [ThreadState(StateKind(v[0]), v[1] and BlockReason(v[1]), v[2])
                  if type(v) is list else v for v in obj["values"]]
        intervals = {key: (starts, ends, list(map(values.__getitem__, index)))
                     for key, (starts, ends, index) in obj["intervals"].items()}
        counters = {c: {tid: (stamps, totals)
                        for tid, stamps, totals in obj["counters"][c]}
                    for c in COUNTERS}
        markers = [TraceEvent(ts, cpu, tid, comm, EventKind(kind), {"span_id": span_id})
                   for ts, cpu, tid, comm, kind, span_id in obj["markers"]]
        return StateDatabase(intervals, counters, dict(obj["comms"]), obj["t_min"],
                             obj["t_max"], obj["events_consumed"], markers)
