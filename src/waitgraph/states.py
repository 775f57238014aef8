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
bisect the starts.  ``range_columns`` returns the clipped hits of a range
as columns again; the span features read those, and the graph walk reads
nothing else of the intervals.  Only the public interval queries
(``intervals``, ``query_range`` and ``slices``) build a StateValue, one for
each interval they return.
Block I/O requests are matched FIFO per device and the device is modeled
as serving one request at a time, so the active_tid intervals of one
device never overlap.

The cumulative counters of COUNTERS (page faults, bytes read, bytes
written) are not intervals: each (tid, counter) is a pair of columns, the
step timestamps (strictly increasing, all below t_max) and the running
total from each step on.  ``counter_delta`` bisects them, and ``slices``
lists them as intervals keyed thread/{tid}/{counter}.

The fold also keeps the span_begin/span_end events, in trace order, as
``StateDatabase.markers``: the input of ``events.extract_spans``.

The CLI keeps a fold in a sidecar whose body ``_encode_state`` writes: a
JSON index line and one int64 blob of every column.  ``_decode_state``
checks the whole body, then returns a database that cuts a key's columns
out of the blob the first time the key is read, so a command pays only
for the keys its queries touch.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, pairwise, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import NestingViolation, SwitchConflict
from .events import MARKER_KINDS, EventKind, TraceEvent, _gc_paused


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


# blocked reasons whose waker is the thread waited on, named in the state
HANDOFF_REASONS = (BlockReason.TASK, BlockReason.FUTEX)


@dataclass(frozen=True, slots=True)
class ThreadState:
    kind: StateKind
    reason: BlockReason | None = None
    waker_tid: int | None = None

    def __str__(self) -> str:
        if self.kind is not StateKind.BLOCKED:
            return self.kind.value
        if self.reason in HANDOFF_REASONS:
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


def _clip(starts: list[int], ends: list[int], values: list,
          t_a: int, t_b: int) -> IntervalColumns:
    """Fresh columns of the disjoint, sorted intervals that intersect
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
    return hit_starts, hit_ends, values[lo:hi]


class StateDatabase:
    """Immutable interval store with point and range queries, and the
    trace's span markers (``markers``, span_begin/span_end in trace order)."""

    def __init__(self, intervals: Mapping[str, IntervalColumns],
                 counters: dict[str, Mapping[int, CounterColumns]], comms: dict[int, str],
                 t_min: int, t_max: int, events_consumed: int,
                 markers: list[TraceEvent]):
        self._intervals = intervals
        self._counters = counters
        self.disk_keys = sorted(k for k in intervals if k.startswith("disk/"))
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
        comm = self.comms.get(tid)
        return comm if comm is not None else f"tid{tid}"

    def range_columns(self, key: str, t_a: int, t_b: int) -> IntervalColumns:
        """The starts, ends and values of the intervals intersecting
        [t_a, t_b), clipped, ordered by start, as fresh lists."""
        # unpacked here: a starred call costs a hot path about 10 % more
        starts, ends, values = self._intervals.get(key, _NO_INTERVALS)
        return _clip(starts, ends, values, t_a, t_b)

    def query_range(self, key: str, t_a: int, t_b: int) -> list[StateValue]:
        """All intervals intersecting [t_a, t_b), clipped, ordered by start."""
        starts, ends, values = self._intervals.get(key, _NO_INTERVALS)
        starts, ends, values = _clip(starts, ends, values, t_a, t_b)
        return list(map(StateValue, starts, ends, repeat(key), values))

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

    def slices(self, prefix: str, t_a: int, t_b: int) -> Iterator[StateValue]:
        """The intervals intersecting [t_a, t_b), clipped, of every key that
        starts with prefix: key by key in key order, each by start.  The
        keys are the interval keys and thread/{tid}/{counter} for each
        counter that stepped, whose running total holds from one step to
        the next and the last until t_max.  Only the matching keys' columns
        are read.  Raises ValueError for an empty range."""
        if t_a >= t_b:
            raise ValueError(f"empty range [{t_a}, {t_b}): t_a must be < t_b")
        counters = {f"thread/{tid}/{counter}": (tid, counter)
                    for counter, steps in self._counters.items() for tid in steps
                    if tid in self.comms}
        keys = [key for key in [*self._intervals, *counters] if key.startswith(prefix)]
        for key in sorted(keys):
            if key in counters:
                tid, counter = counters[key]
                starts, values = self._counters[counter][tid]
                ends = starts[1:] + [self.t_max]
            else:
                starts, ends, values = self._intervals[key]
            starts, ends, values = _clip(starts, ends, values, t_a, t_b)
            yield from map(StateValue, starts, ends, repeat(key), values)


class _Series:
    """One interval key of the fold: its closed intervals as columns and
    its open value, held from t (None when nothing is open).  ``set`` is
    the only mutator."""

    __slots__ = ("starts", "ends", "values", "t", "value")

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.values: list[object] = []
        self.t = 0
        self.value: object | None = None

    def set(self, t: int, value: object | None) -> None:
        """Close the open interval at t and hold value from t; None only
        closes.  An equal value changes nothing, and a zero-length interval
        is dropped, so flips at a shared timestamp never violate t_i < t_j."""
        old = self.value
        if old == value:
            return
        if old is not None and self.t < t:
            self.starts.append(self.t)
            self.ends.append(t)
            self.values.append(old)
        self.t = t
        self.value = value


class _Builder:
    """The fold's state: one _Series per interval key, in five families
    keyed by tid, CPU or device; ``finish`` names each key once.  A thread
    has a state from its first transition on (``tid in self.state``).

    ``handle`` folds a counter event inline and sends every other kind
    through ``handlers``, one handler per kind; the handler of an actor
    kind (syscall, block issue, span marker) first marks its thread
    running."""

    def __init__(self):
        self.state: defaultdict[int, _Series] = defaultdict(_Series)
        self.syscall: defaultdict[int, _Series] = defaultdict(_Series)
        self.cpu: defaultdict[int, _Series] = defaultdict(_Series)
        self.current_tid: defaultdict[int, _Series] = defaultdict(_Series)
        # a closed device series' t is the end of its last request, 0 at first
        self.active_tid: defaultdict[str, _Series] = defaultdict(_Series)
        self.comms: dict[int, str] = {}
        self.irq_stack: dict[int, list[tuple[str, int | None]]] = {}
        self.syscall_stack: dict[int, list[str]] = {}
        self.dev_fifo: defaultdict[str, deque[tuple[int, int]]] = defaultdict(deque)
        self.counters: dict[str, dict[int, CounterColumns]] = {
            c: {} for c in COUNTERS}
        self._columns_by_kind = {k: self.counters[c]
                                 for k, c in _COUNTER_BY_KIND.items()}
        self.markers: list[TraceEvent] = []
        self.handlers: dict[EventKind, Callable[[TraceEvent], None]] = {
            EventKind.SCHED_SWITCH: self._on_switch,
            EventKind.SCHED_WAKEUP: self._on_wakeup,
            EventKind.IRQ_ENTRY: self._on_irq_entry,
            EventKind.SOFTIRQ_ENTRY: self._on_irq_entry,
            EventKind.HRTIMER_EXPIRE_ENTRY: self._on_irq_entry,
            EventKind.IRQ_EXIT: self._on_irq_exit,
            EventKind.SOFTIRQ_EXIT: self._on_irq_exit,
            EventKind.HRTIMER_EXPIRE_EXIT: self._on_irq_exit,
            EventKind.SYSCALL_ENTRY: self._on_syscall_entry,
            EventKind.SYSCALL_EXIT: self._on_syscall_exit,
            EventKind.BLOCK_RQ_ISSUE: self._on_rq_issue,
            EventKind.BLOCK_RQ_COMPLETE: self._on_rq_complete,
            EventKind.SPAN_BEGIN: self._on_marker,
            EventKind.SPAN_END: self._on_marker,
        }

    def mark_running(self, tid: int, cpu: int, t: int) -> None:
        """A thread first observed through its own actor event (syscall,
        I/O, counter, span marker) was already executing on that CPU."""
        if tid in self.state:
            return
        self.state[tid].set(t, RUNNING)
        self.cpu[tid].set(t, cpu)
        current = self.current_tid[cpu]
        if current.value is None:
            current.set(t, tid)

    def handle(self, ev: TraceEvent) -> None:
        if ev.tid not in self.comms:
            self.comms[ev.tid] = ev.comm
        kind = ev.kind
        columns = self._columns_by_kind.get(kind)
        if columns is not None:
            # counter fast path: one step per event, a shared timestamp
            # keeps only its last total (as zero-length intervals were dropped)
            tid, ts = ev.tid, ev.ts
            if tid not in self.state:
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
        self.handlers[kind](ev)

    def _on_switch(self, ev: TraceEvent) -> None:
        t, cpu = ev.ts, ev.cpu
        prev, nxt = ev.payload["prev_tid"], ev.payload["next_tid"]
        current = self.current_tid[cpu]
        if current.value is not None and current.value != prev:
            raise SwitchConflict(
                f"ts={t}: cpu {cpu} runs tid {current.value}, switch names prev {prev}")
        nxt_state = self.state[nxt]
        if nxt_state.value is not None and nxt_state.value.kind is StateKind.RUNNING:
            raise SwitchConflict(
                f"ts={t}: tid {nxt} already running on cpu {self.cpu[nxt].value}")
        if ev.payload["prev_state"] == "blocked":
            out_state = ThreadState(StateKind.BLOCKED, BlockReason.UNKNOWN, None)
        else:
            out_state = RUNNABLE
        self.state[prev].set(t, out_state)
        self.cpu[prev].set(t, None)
        nxt_state.set(t, RUNNING)
        self.cpu[nxt].set(t, cpu)
        current.set(t, nxt)

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
        if ev.payload["waker_context"] == "task":
            self.mark_running(ev.payload["waker_tid"], ev.cpu, ev.ts)
        series = self.state[ev.payload["wakee_tid"]]
        cur = series.value
        if cur is not None and cur.kind is StateKind.BLOCKED:
            # The reason is only known now, from the waking context: patch
            # the still-open blocked interval before closing it.
            series.value = self._wake_reason(ev)
            series.set(ev.ts, RUNNABLE)
        elif cur is None:
            series.set(ev.ts, RUNNABLE)
        # already runnable/running: spurious wake, no transition

    def _on_irq_entry(self, ev: TraceEvent) -> None:
        stack = self.irq_stack.setdefault(ev.cpu, [])
        stack.append(_irq_frame(ev))
        if len(stack) == 1:
            self._flip_occupant(ev, StateKind.RUNNING, INTERRUPTED)

    def _on_irq_exit(self, ev: TraceEvent) -> None:
        stack = self.irq_stack.get(ev.cpu)
        if not stack or stack[-1] != _irq_frame(ev):
            raise NestingViolation(
                f"ts={ev.ts}: {ev.kind.value} on cpu {ev.cpu} does not match an open entry")
        stack.pop()
        if not stack:
            self._flip_occupant(ev, StateKind.INTERRUPTED, RUNNING)

    def _flip_occupant(self, ev: TraceEvent, kind: StateKind, to: ThreadState) -> None:
        """The thread on the event's CPU, if its state is of kind, goes to
        state ``to`` at the event.  An occupant always has a state."""
        occupant = self.current_tid[ev.cpu].value
        if occupant is not None and self.state[occupant].value.kind is kind:
            self.state[occupant].set(ev.ts, to)

    def _on_syscall_entry(self, ev: TraceEvent) -> None:
        self.mark_running(ev.tid, ev.cpu, ev.ts)
        self.syscall_stack.setdefault(ev.tid, []).append(ev.payload["name"])
        self.syscall[ev.tid].set(ev.ts, ev.payload["name"])

    def _on_syscall_exit(self, ev: TraceEvent) -> None:
        self.mark_running(ev.tid, ev.cpu, ev.ts)
        stack = self.syscall_stack.get(ev.tid)
        if not stack or stack[-1] != ev.payload["name"]:
            raise NestingViolation(
                f"ts={ev.ts}: syscall_exit({ev.payload['name']}) on tid {ev.tid} "
                "does not match an open entry")
        stack.pop()
        self.syscall[ev.tid].set(ev.ts, stack[-1] if stack else None)

    def _on_rq_issue(self, ev: TraceEvent) -> None:
        self.mark_running(ev.tid, ev.cpu, ev.ts)
        self.dev_fifo[ev.payload["dev"]].append((ev.tid, ev.ts))

    def _on_rq_complete(self, ev: TraceEvent) -> None:
        dev = ev.payload["dev"]
        fifo = self.dev_fifo.get(dev)
        if not fifo:
            raise NestingViolation(
                f"ts={ev.ts}: block_rq_complete on dev {dev} without an issue")
        tid, issued = fifo.popleft()
        series = self.active_tid[dev]
        series.set(max(issued, series.t), tid)
        series.set(ev.ts, None)

    def _on_marker(self, ev: TraceEvent) -> None:
        self.mark_running(ev.tid, ev.cpu, ev.ts)
        self.markers.append(ev)  # no state of their own

    def finish(self, count: int, t_min: int, end: int) -> StateDatabase:
        """The database of count events, the first at t_min and the last at
        end; every open interval closes at end."""
        intervals: dict[str, IntervalColumns] = {}
        families = ((self.state, thread_state_key), (self.syscall, thread_syscall_key),
                    (self.cpu, thread_cpu_key), (self.current_tid, cpu_current_key),
                    (self.active_tid, disk_active_key))
        for family, key in families:
            for name, series in family.items():
                series.set(end, None)
                if series.starts:
                    intervals[key(name)] = (series.starts, series.ends, series.values)
        for columns in self.counters.values():
            for tid, (stamps, totals) in list(columns.items()):
                # a step at t_max would hold for zero time
                if stamps[-1] == end:
                    stamps.pop()
                    totals.pop()
                    if not stamps:
                        del columns[tid]
        return StateDatabase(intervals, self.counters, self.comms, t_min, end, count,
                             self.markers)


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
    events = iter(events)
    with _gc_paused():
        first = last = next(events, None)
        if first is None:
            return builder.finish(0, 0, 0)
        handle(first)
        count = 1
        for count, last in enumerate(events, 2):
            handle(last)
    return builder.finish(count, first.ts, last.ts)


# -- the CLI's state sidecar body ------------------------------------------
#
# The body is an index line and a blob.  The index is sorted-key JSON whose
# lists are columns: the interval keys and their row counts, per counter
# the tids and their row counts, the table of distinct interval values, the
# comms, t_min, t_max, events_consumed and the span markers.  The interval
# keys come in three families, each sorted: the int-valued keys (a tid or a
# CPU), then thread/{tid}/syscall (a name), then thread/{tid}/state (a
# ThreadState, stored as a [kind, reason, waker_tid] list); the value table
# holds the families' distinct values in the same order, in three lists.
# The blob is little-endian int64: every key's starts, then every key's
# ends, then every key's index into the value table, then per counter every
# tid's stamps, then every tid's totals.

# True on a big-endian host, whose arrays swap to and from the blob's order
_SWAP = array("q", [1]).tobytes()[0] != 1
_MARKER_BY_VALUE = {k.value: k for k in MARKER_KINDS}
# the ends of the int-valued keys: thread/{tid}/cpu, cpu/{n}/current_tid and
# disk/{dev}/active_tid
_INT_KEY_ENDS = ("/cpu", "/current_tid", "/active_tid")


class _Columns(Mapping):
    """Read-only key -> columns over one section of a sidecar blob.

    The section holds ``width`` columns one after another, each with the
    rows of every key in ``rows`` order.  A key's columns are cut out of
    the blob (the last one mapped through ``table``, if given) the first
    time the key is read, and kept."""

    def __init__(self, blob: array, base: int, rows: dict, width: int,
                 table: list | None):
        self._blob = blob
        self._rows = rows
        self._at = dict(zip(rows, accumulate(rows.values(), initial=base)))
        self._stride = sum(rows.values())
        self._width = width
        self._table = table
        self._cut: dict = {}

    def __getitem__(self, key):
        cols = self._cut.get(key)
        return cols if cols is not None else self._cut_out(key)

    def get(self, key, default=None):
        cols = self._cut.get(key)
        if cols is None:
            return self._cut_out(key) if key in self._at else default
        return cols

    def _cut_out(self, key) -> tuple:
        at, n, stride, blob = self._at[key], self._rows[key], self._stride, self._blob
        cols = [blob[a:a + n].tolist()
                for a in range(at, at + self._width * stride, stride)]
        if self._table is not None:
            cols[-1] = list(map(self._table.__getitem__, cols[-1]))
        cols = self._cut[key] = tuple(cols)
        return cols

    def __contains__(self, key) -> bool:
        return key in self._at

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _encode_state(db: StateDatabase) -> tuple[bytes, array]:
    """A database, span markers included, as a sidecar body: the index
    line and the blob (see above), to be written one after the other.
    Raises OverflowError when a start, end, stamp or total does not fit
    in int64."""
    families: tuple[list[str], list[str], list[str]] = ([], [], [])
    for key in sorted(db._intervals):
        families[key.endswith("/syscall") + 2 * key.endswith("/state")].append(key)
    keys = [key for family in families for key in family]
    # the keys run family by family, so the table does too
    table: dict[object, int] = {}
    blob = array("q")
    with _gc_paused():
        for col in (0, 1):
            for key in keys:
                blob.extend(db._intervals[key][col])
        sizes = []
        for family in families:
            for key in family:
                blob.extend([table.setdefault(v, len(table)) for v in db._intervals[key][2]])
            sizes.append(len(table) - sum(sizes))
        values = [[v.kind.value, v.reason and v.reason.value, v.waker_tid]
                  if type(v) is ThreadState else v for v in table]
        for c in COUNTERS:
            for col in (0, 1):
                for cols in db._counters[c].values():
                    blob.extend(cols[col])
        markers = [(ev.ts, ev.cpu, ev.tid, ev.comm, ev.kind.value, ev.payload["span_id"])
                   for ev in db.markers]
        index = json.dumps({
            "intervals": [keys, [len(db._intervals[key][0]) for key in keys],
                          [len(family) for family in families]],
            "values": [values[:sizes[0]], values[sizes[0]:sizes[0] + sizes[1]],
                       values[sizes[0] + sizes[1]:]],
            "counters": {c: [list(db._counters[c]),
                             [len(stamps) for stamps, _ in db._counters[c].values()]]
                         for c in COUNTERS},
            "comms": [list(db.comms), list(db.comms.values())],
            "t_min": db.t_min,
            "t_max": db.t_max,
            "events_consumed": db.events_consumed,
            "markers": list(map(list, zip(*markers))) or [[]] * 6,
        }, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
    if _SWAP:
        blob.byteswap()
    return index, blob


def _typed(column: object, kind: type) -> list:
    """A JSON list that holds only values of type kind."""
    if type(column) is not list or not set(map(type, column)) <= {kind}:
        raise ValueError(f"not a list of {kind.__name__}")
    return column


def _rows(keys: object, counts: object, kind: type) -> dict:
    """Row counts by key; the fold writes no empty column."""
    rows = dict(zip(_typed(keys, kind), _typed(counts, int)))
    if not len(keys) == len(counts) == len(rows) or (counts and min(counts) < 1):
        raise ValueError("bad keys or row counts")
    return rows


def _thread_state(v: object) -> ThreadState:
    kind, reason, waker = v
    st = ThreadState(StateKind(kind), None if reason is None else BlockReason(reason),
                     waker)
    if (st.kind is StateKind.BLOCKED) != (reason is not None) \
            or (st.reason in HANDOFF_REASONS) != (type(waker) is int) \
            or not (waker is None or type(waker) is int):
        raise ValueError(f"bad thread state {v!r}")
    return st


def _decode_state(index: bytes, blob: array) -> StateDatabase:
    """The inverse of _encode_state, given the index line and the blob read
    as int64s.  The whole body is checked here, so that every value a query
    returns has the type the fold gives its key: the type of every index
    field, each key's name against its family, the value table by family,
    t_min <= t_max, row counts that are positive and add up to the blob,
    and each key's value indices inside its family's part of the table.
    Raises ValueError, TypeError or LookupError for a body that fails a
    check."""
    if _SWAP:
        blob.byteswap()
    with _gc_paused():
        obj = json.loads(index)
        keys, counts, family_sizes = obj["intervals"]
        intervals = _rows(keys, counts, str)
        family_values = obj["values"]
        ints, names, states = family_values
        table = [*_typed(ints, int), *_typed(names, str), *map(_thread_state, states)]
        key_ends = list(accumulate(_typed(family_sizes, int), initial=0))
        if len(key_ends) != 4 or key_ends[3] != len(keys) \
                or not all(k.endswith(_INT_KEY_ENDS) for k in keys[:key_ends[1]]) \
                or not all(k.startswith("thread/") and k.endswith("/syscall")
                           for k in keys[key_ends[1]:key_ends[2]]) \
                or not all(k.startswith("thread/") and k.endswith("/state")
                           and k[7:-6].isdecimal() for k in keys[key_ends[2]:]):
            raise ValueError("a key is not in its family")
        counter_rows = [_rows(*obj["counters"][c], int) for c in COUNTERS]
        tids, comm_names = obj["comms"]
        comms = dict(zip(_typed(tids, int), _typed(comm_names, str)))
        bounds = obj["t_min"], obj["t_max"], obj["events_consumed"]
        ts, cpus, marker_tids, marker_comms, kinds, span_ids = obj["markers"]
        kinds = list(map(_MARKER_BY_VALUE.__getitem__, _typed(kinds, str)))
        if not len(tids) == len(comm_names) == len(comms) \
                or not set(map(type, bounds)) <= {int} or bounds[0] > bounds[1] \
                or len({len(ts), len(cpus), len(marker_tids), len(marker_comms),
                        len(kinds), len(span_ids)}) != 1:
            raise ValueError("bad comms, bounds or markers")
        markers = list(map(TraceEvent, _typed(ts, int), _typed(cpus, int),
                           _typed(marker_tids, int), _typed(marker_comms, str), kinds,
                           [{"span_id": s} for s in _typed(span_ids, str)]))
        n = sum(counts)
        sizes = [2 * sum(rows.values()) for rows in counter_rows]
        if 3 * n + sum(sizes) != len(blob):
            raise ValueError("the row counts do not add up to the blob")
        # each family's value indices fall in its own part of the table
        row_ends = accumulate((sum(counts[a:b]) for a, b in pairwise(key_ends)),
                              initial=2 * n)
        table_ends = accumulate(map(len, family_values), initial=0)
        for (at, to), (lo, hi) in zip(pairwise(row_ends), pairwise(table_ends)):
            value_index = blob[at:to]
            if value_index and not (lo <= min(value_index) and max(value_index) < hi):
                raise ValueError("a value index is outside its family's table")
        bases = accumulate(sizes, initial=3 * n)
        counters = {c: _Columns(blob, base, rows, 2, None)
                    for c, base, rows in zip(COUNTERS, bases, counter_rows)}
        return StateDatabase(_Columns(blob, 0, intervals, 3, table), counters, comms,
                             *bounds, markers)
