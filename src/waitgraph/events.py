"""Portable trace event model: JSONL reader/writer and execution spans.

A trace file is UTF-8 text, one JSON object per line, optionally gzip
compressed (detected by magic bytes).  Required keys on every record:

    ts    int   nanoseconds since trace origin, non-decreasing
    cpu   int   CPU index, >= 0
    tid   int   thread the event is attributed to, >= 1
    comm  str   name of that thread
    kind  str   one of the kinds below

plus the kind-specific payload keys listed in ``PAYLOAD_FIELDS``.  Unknown
extra keys are ignored on read.  All durations inside the package are
integer nanoseconds; user-facing output is microseconds.

A counter line (page_fault, io_read, io_write) exactly as write_trace
writes it is decoded by one regular expression instead of the JSON
scanner; every other line goes through the JSON path.  Both give the
same record, so the choice changes no event and no error.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import os
import re
import secrets
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, tee
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import (
    EmptySpan,
    MalformedRecord,
    NonMonotonicTimestamp,
    OverlappingSpan,
    UnknownEventKind,
    UnmatchedEnd,
)


class EventKind(str, Enum):
    SCHED_SWITCH = "sched_switch"
    SCHED_WAKEUP = "sched_wakeup"
    SYSCALL_ENTRY = "syscall_entry"
    SYSCALL_EXIT = "syscall_exit"
    IRQ_ENTRY = "irq_entry"
    IRQ_EXIT = "irq_exit"
    SOFTIRQ_ENTRY = "softirq_entry"
    SOFTIRQ_EXIT = "softirq_exit"
    HRTIMER_EXPIRE_ENTRY = "hrtimer_expire_entry"
    HRTIMER_EXPIRE_EXIT = "hrtimer_expire_exit"
    BLOCK_RQ_ISSUE = "block_rq_issue"
    BLOCK_RQ_COMPLETE = "block_rq_complete"
    PAGE_FAULT = "page_fault"
    IO_READ = "io_read"
    IO_WRITE = "io_write"
    SPAN_BEGIN = "span_begin"
    SPAN_END = "span_end"


PREV_STATES = ("runnable", "blocked")
WAKER_CONTEXTS = ("task", "irq", "softirq", "hrtimer")


def _pos_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _nonneg_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _nonempty_str(v: object) -> bool:
    return isinstance(v, str) and len(v) > 0


# kind -> ordered (key, validator) pairs; the order is also the canonical
# serialization order used by write_trace.
PAYLOAD_FIELDS: dict[EventKind, tuple[tuple[str, Callable[[object], bool]], ...]] = {
    EventKind.SCHED_SWITCH: (
        ("prev_tid", _pos_int),
        ("prev_state", lambda v: v in PREV_STATES),
        ("next_tid", _pos_int),
    ),
    EventKind.SCHED_WAKEUP: (
        ("waker_tid", _pos_int),
        ("wakee_tid", _pos_int),
        ("waker_context", lambda v: v in WAKER_CONTEXTS),
    ),
    EventKind.SYSCALL_ENTRY: (("name", _nonempty_str),),
    EventKind.SYSCALL_EXIT: (("name", _nonempty_str),),
    EventKind.IRQ_ENTRY: (("irq", _nonneg_int),),
    EventKind.IRQ_EXIT: (("irq", _nonneg_int),),
    EventKind.SOFTIRQ_ENTRY: (("vec", _nonneg_int),),
    EventKind.SOFTIRQ_EXIT: (("vec", _nonneg_int),),
    EventKind.HRTIMER_EXPIRE_ENTRY: (),
    EventKind.HRTIMER_EXPIRE_EXIT: (),
    EventKind.BLOCK_RQ_ISSUE: (("dev", _nonempty_str),),
    EventKind.BLOCK_RQ_COMPLETE: (("dev", _nonempty_str),),
    EventKind.PAGE_FAULT: (),
    EventKind.IO_READ: (("bytes", _nonneg_int),),
    EventKind.IO_WRITE: (("bytes", _nonneg_int),),
    EventKind.SPAN_BEGIN: (("span_id", _nonempty_str),),
    EventKind.SPAN_END: (("span_id", _nonempty_str),),
}

_KIND_BY_VALUE = {k.value: k for k in EventKind}

# the C scanner json.loads itself runs, called without its wrapper
_scan_once = json.JSONDecoder().scan_once

# A counter line as write_trace writes it, newline included.  Numbers are
# JSON integers of at most 18 digits (no sign, no leading zero), comm is a
# non-empty JSON string with no escape, and tid >= 1: the line decodes to
# what json.loads and _parse_line's checks would give, so nothing needs
# re-checking.  A line outside this language takes the JSON path.
_match_counter_line = re.compile(
    r'\{"ts":(0|[1-9][0-9]{0,17}),"cpu":(0|[1-9][0-9]{0,17}),'
    r'"tid":([1-9][0-9]{0,17}),"comm":"([^"\\\x00-\x1f]+)",'
    r'"kind":"(?:page_fault"|(io_read|io_write)","bytes":(0|[1-9][0-9]{0,17}))\}\n'
).fullmatch


@dataclass(slots=True)
class TraceEvent:
    """One timestamped kernel-style event.

    Read-only by convention: nothing in the package assigns to a field
    after construction.  The dataclass is not frozen because a frozen
    __init__ sets each field through object.__setattr__, which made
    building an event about three times as slow.
    """

    ts: int
    cpu: int
    tid: int
    comm: str
    kind: EventKind
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExecutionSpan:
    """A delimited task execution on one root thread, [t_start, t_end)."""

    span_id: str
    root_tid: int
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise EmptySpan(f"span {self.span_id!r} ends at ts={self.t_end}, "
                            f"not after its begin at ts={self.t_start}")

    @property
    def duration_ns(self) -> int:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class OpenSpan:
    """A begin delimiter that never saw its matching end."""

    span_id: str
    root_tid: int
    t_start: int


@dataclass
class SpanExtraction:
    spans: list[ExecutionSpan]
    open_spans: list[OpenSpan]


def _parse_line(line: str, lineno: int) -> TraceEvent:
    # Fast path: the scanner's value counts only when it ends exactly at the
    # line's newline.  Anything else (a decode error, leading whitespace or
    # BOM, trailing data or blanks, no final newline) goes through json.loads,
    # so every accepted record and every error is json.loads's own.
    try:
        obj, end = _scan_once(line, 0)
        exact = line[end:] == "\n"
    except (StopIteration, ValueError, RecursionError):
        exact = False
    if not exact:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # past int's string-conversion digit limit
            raise MalformedRecord(lineno,
                                  "invalid JSON: integer has too many digits") from exc
        except RecursionError as exc:
            raise MalformedRecord(lineno, "invalid JSON: nested too deeply") from exc
    if type(obj) is not dict:
        raise MalformedRecord(lineno, "record is not a JSON object")
    # hot path: grab and type-check the required fields without indirection
    try:
        ts = obj["ts"]
        cpu = obj["cpu"]
        tid = obj["tid"]
        comm = obj["comm"]
        kind_str = obj["kind"]
    except KeyError as exc:
        raise MalformedRecord(lineno, f"missing key {exc.args[0]!r}") from exc
    if type(ts) is not int or ts < 0 or type(cpu) is not int or cpu < 0 \
            or type(tid) is not int or tid < 1 \
            or type(comm) is not str or not comm:
        raise MalformedRecord(lineno, "bad ts/cpu/tid/comm field")
    kind = _KIND_BY_VALUE.get(kind_str) if type(kind_str) is str else None
    if kind is None:
        if type(kind_str) is not str:
            raise MalformedRecord(lineno, "missing or non-string 'kind'")
        raise UnknownEventKind(lineno, kind_str)
    payload = {}
    for key, check in PAYLOAD_FIELDS[kind]:
        try:
            value = obj[key]
        except KeyError as exc:
            raise MalformedRecord(lineno, f"{kind_str}: missing key {key!r}") from exc
        if not check(value):
            raise MalformedRecord(lineno, f"{kind_str}: bad value for {key!r}: {value!r}")
        payload[key] = sys.intern(value) if type(value) is str else value
    if kind is EventKind.SCHED_SWITCH and payload["prev_tid"] == payload["next_tid"]:
        raise MalformedRecord(lineno, "sched_switch: prev_tid == next_tid")
    return TraceEvent(ts, cpu, tid, sys.intern(comm), kind, payload)


def read_trace(source) -> list[TraceEvent]:
    """Parse a JSONL trace into timestamp-ordered events.

    *source* may be a path, raw bytes, or a binary file object; a pipe
    or FIFO will do, since the reader never seeks.
    Each record is checked on its own (JSON, fields, kind, UTF-8) and
    against its predecessor's timestamp; MalformedRecord, UnknownEventKind
    and NonMonotonicTimestamp carry the offending 1-based line number.
    Entry/exit nesting is checked by the state-DB fold, not here.
    """
    with _gc_paused():
        return list(iter_trace(source))


@contextmanager
def _gc_paused():
    # pause the cycle collector while allocating millions of acyclic records
    # (events, state columns): the pause only avoids wasted full-heap scans
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def event_to_record(ev: TraceEvent) -> dict:
    """Canonical JSON-ready dict for one event (fixed key order)."""
    rec = {"ts": ev.ts, "cpu": ev.cpu, "tid": ev.tid, "comm": ev.comm,
           "kind": ev.kind.value}
    for key, _ in PAYLOAD_FIELDS[ev.kind]:
        rec[key] = ev.payload[key]
    return rec


@contextmanager
def atomic_output(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temporary sibling of path that replaces path
    when the block ends normally and is deleted when it raises.  Like
    open(), it creates the file with mode 0o666 less the umask."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text in UTF-8 to path, creating its directory.  A regular or
    missing file is replaced atomically, through any symlink; anything else
    that exists (a FIFO, a device) is opened and written through."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    with atomic_output(os.path.realpath(path)) if regular else open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def json_text(obj) -> str:
    """The text of every JSON report: sorted keys, indent 2, final newline."""
    return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def write_trace(events: Iterable[TraceEvent], dest) -> None:
    """Write events as canonical JSONL.  A path is replaced atomically and
    gzipped when it ends in .gz (zero mtime, so the bytes are reproducible)."""
    if not isinstance(dest, (str, Path)):
        _write_lines(events, dest)
        return
    with atomic_output(dest) as raw:
        if str(dest).endswith(".gz"):
            raw = gzip.GzipFile(fileobj=raw, mode="wb", mtime=0)
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:
            _write_lines(events, fh)


def _write_lines(events: Iterable[TraceEvent], fh) -> None:
    for ev in events:
        fh.write(json.dumps(event_to_record(ev), ensure_ascii=False,
                            separators=(",", ":")))
        fh.write("\n")


_MARKER_KINDS = frozenset((EventKind.SPAN_BEGIN, EventKind.SPAN_END))


def extract_spans(events: Iterable[TraceEvent]) -> SpanExtraction:
    """Collect the execution spans delimited by span_begin/span_end events.

    A span is keyed by its span_id and rooted at the begin event's thread.
    Completed spans come back in begin order; begins that never close are
    reported separately as open spans.  Raises UnmatchedEnd for an end with
    no open begin, OverlappingSpan when a span id is re-opened and EmptySpan
    for an end at or before its begin's timestamp.
    """
    open_by_key: dict[str, tuple[int, int]] = {}  # span_id -> (root_tid, t_start)
    done: list[ExecutionSpan] = []
    # pick the markers out at C speed; tee keeps a one-shot iterator streaming
    events, kinds = tee(events)
    for ev in compress(events, map(_MARKER_KINDS.__contains__,
                                   map(attrgetter("kind"), kinds))):
        key = ev.payload["span_id"]
        if ev.kind is EventKind.SPAN_BEGIN:
            if key in open_by_key:
                raise OverlappingSpan(f"span {key!r} re-opened at ts={ev.ts}")
            open_by_key[key] = (ev.tid, ev.ts)
        else:
            opened = open_by_key.pop(key, None)
            if opened is None:
                raise UnmatchedEnd(f"span {key!r} ended at ts={ev.ts} with no begin")
            done.append(ExecutionSpan(key, opened[0], opened[1], ev.ts))
    # a dict keeps insertion order: the spans left open, in begin order
    still_open = [OpenSpan(key, tid, ts) for key, (tid, ts) in open_by_key.items()]
    done.sort(key=lambda s: (s.t_start, s.span_id))
    return SpanExtraction(spans=done, open_spans=still_open)


def iter_trace(source) -> Iterator[TraceEvent]:
    """Streaming variant of read_trace (same record checks, constant memory).

    A file object passed in stays open; the caller closes it.  It is read
    forward only, so it may be a pipe."""
    opened = buffered = stream = None
    lineno = 0
    try:
        if isinstance(source, (str, Path)):
            raw = opened = open(source, "rb")
        elif isinstance(source, (bytes, bytearray)):
            raw = opened = io.BytesIO(bytes(source))
        else:
            raw = source
        if not hasattr(raw, "peek"):
            raw = buffered = io.BufferedReader(raw)
        # look at the gzip magic without consuming it: a pipe cannot seek back
        if raw.peek(2)[:2] == b"\x1f\x8b":
            raw = gzip.GzipFile(fileobj=raw)
        stream = io.TextIOWrapper(raw, encoding="utf-8")
        prev_ts = -1
        parse = _parse_line
        match = _match_counter_line
        page_fault = EventKind.PAGE_FAULT
        kinds = _KIND_BY_VALUE
        intern = sys.intern
        for lineno, line in enumerate(stream, start=1):
            m = match(line)
            if m is not None:
                ts, cpu, tid, comm, io_kind, nbytes = m.groups()
                if io_kind is None:
                    ev = TraceEvent(int(ts), int(cpu), int(tid), intern(comm),
                                    page_fault, {})
                else:
                    ev = TraceEvent(int(ts), int(cpu), int(tid), intern(comm),
                                    kinds[io_kind], {"bytes": int(nbytes)})
            else:
                head = line[0] if line else "\n"
                if head == "\n" or (head in " \t\r" and not line.strip()):
                    continue
                ev = parse(line, lineno)
            if ev.ts < prev_ts:
                raise NonMonotonicTimestamp(lineno, ev.ts, prev_ts)
            prev_ts = ev.ts
            yield ev
    except UnicodeDecodeError as exc:
        # the text layer decodes a whole chunk at once; the newlines in
        # that chunk before the bad byte locate the offending line
        bad_line = lineno + 1 + exc.object.count(b"\n", 0, exc.start)
        raise MalformedRecord(bad_line, f"not UTF-8: {exc.reason}") from exc
    finally:
        if opened is not None:
            if stream is not None:
                stream.close()  # a gzip layer leaves the file under it open
            opened.close()
        else:
            # unhook the caller's file from the wrappers, which would close
            # it when collected, unless the caller has closed it already; a
            # gzip layer over it closes without it
            if stream is not None and not stream.closed:
                inner = stream.detach()
                if inner is not source and inner is not buffered:
                    inner.close()
            if buffered is not None and not buffered.closed:
                buffered.detach()
