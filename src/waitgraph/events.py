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

A line of any kind exactly as write_trace writes it is decoded by
regular expressions instead of json.loads: one pattern for the head
every line has, then the kind's payload pattern, generated from
PAYLOAD_FIELDS, for the rest.  Every other line goes through the JSON
path, json.loads and then the record checks.  Both give the same record,
so the choice changes no event and no error.  Events of one read share
their equal ints and payloads, and a payload read is read-only (see
iter_trace).

write_trace writes each line as json.dumps would write event_to_record's
dict, but fills a prebuilt template per kind: ints through str, and each
distinct string JSON-encoded once by json's own encoder and cached.  An
event with any other type in a field (a bool, a float, a str subclass, a
plain str for its kind) goes through json.dumps itself, so the bytes and
the errors are json.dumps's either way.
"""

from __future__ import annotations

import functools
import gc
import gzip
import io
import json
import os
import re
import secrets
import stat
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
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


def _prev_state(v: object) -> bool:
    return v in PREV_STATES


def _waker_context(v: object) -> bool:
    return v in WAKER_CONTEXTS


# kind -> ordered (key, validator) pairs; the order is also the canonical
# serialization order used by write_trace.
PAYLOAD_FIELDS: dict[EventKind, tuple[tuple[str, Callable[[object], bool]], ...]] = {
    EventKind.SCHED_SWITCH: (
        ("prev_tid", _pos_int),
        ("prev_state", _prev_state),
        ("next_tid", _pos_int),
    ),
    EventKind.SCHED_WAKEUP: (
        ("waker_tid", _pos_int),
        ("wakee_tid", _pos_int),
        ("waker_context", _waker_context),
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

# The canonical line language: the JSON text write_trace gives each value.
# A number is a JSON integer of at most 18 digits (no sign, no leading
# zero), a string is a non-empty JSON string with no escape, and a choice
# is one of its values, none of which JSON escapes.  Text in this language
# decodes to what json.loads and _parse_line's checks would give, so
# nothing needs re-checking.
_POS_INT = r"([1-9][0-9]{0,17})"
_NONNEG_INT = r"(0|[1-9][0-9]{0,17})"
_NONEMPTY_STR = r'"([^"\\\x00-\x1f]+)"'


def _choice(values: tuple[str, ...]) -> str:
    return '"(' + "|".join(map(re.escape, values)) + ')"'


# validator -> (pattern of a value it accepts, whether the value is an int)
_VALUE_PATTERNS = {
    _pos_int: (_POS_INT, True),
    _nonneg_int: (_NONNEG_INT, True),
    _nonempty_str: (_NONEMPTY_STR, False),
    _prev_state: (_choice(PREV_STATES), False),
    _waker_context: (_choice(WAKER_CONTEXTS), False),
}

# A line as write_trace writes it, newline included: ts, cpu, tid >= 1
# and comm, then the tail, the text between '"kind":"' and the closing '}'
# (the kind's name, its closing quote and the payload).
# iter_trace keys each distinct tail to its kind and payload; a line
# outside this language, or whose tail _read_tail refuses, takes the JSON
# path.
_match_line = re.compile(
    r'\{"ts":' + _NONNEG_INT + r',"cpu":' + _NONNEG_INT + r',"tid":' + _POS_INT
    + r',"comm":' + _NONEMPTY_STR + r',"kind":"(.*)\}\n'
).fullmatch


@functools.cache
def _payload_pattern(kind: EventKind) -> tuple[Callable, tuple[str, ...],
                                              tuple[bool, ...]]:
    """The fullmatch of a kind's payload as write_trace writes it, the text
    after the kind's closing quote, with the payload keys and whether each
    value is an int.  Compiled on first use, so an import that reads no
    trace compiles none."""
    text, keys, is_int = "", [], []
    for key, check in PAYLOAD_FIELDS[kind]:
        pattern, int_value = _VALUE_PATTERNS[check]
        text += "," + re.escape(_json_str(key)) + ":" + pattern
        keys.append(key)
        is_int.append(int_value)
    return re.compile(text).fullmatch, tuple(keys), tuple(is_int)


class _ReadOnlyPayload(dict):
    """A payload read from a trace.  One object serves every event of a
    read with the same kind and payload values, so every mutator raises
    TypeError.  It compares equal to a plain dict, and pickles and copies
    to one."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a payload read from a trace is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


# entries a sharing table of iter_trace holds before it is cleared, so that
# a trace of ever new values still reads in constant memory
_SHARED_MAX = 4096


class _SharedInts(dict):
    """An int, or its decimal text on the fast path -> the one int object
    of that value.  A str never equals an int, so both keys share a table."""

    __slots__ = ()

    def __missing__(self, key):
        if len(self) >= _SHARED_MAX:
            self.clear()
        value = int(key)
        value = self[key] = self.setdefault(value, value)
        return value


def _share_payload(kind_values: tuple, fields: dict, payloads: dict) -> _ReadOnlyPayload:
    """The one read-only payload with these fields, kept in payloads under
    kind_values, (kind, *values)."""
    payload = payloads.get(kind_values)
    if payload is None:
        if len(payloads) >= _SHARED_MAX:
            payloads.clear()
        payload = payloads[kind_values] = _ReadOnlyPayload(fields)
    return payload


def _read_tail(tail: str, ints: _SharedInts, payloads: dict,
               tails: dict) -> tuple[EventKind, _ReadOnlyPayload] | None:
    """The kind and shared payload of a canonical line's tail (see
    _match_line), kept in tails under the tail; None when the tail is
    outside the canonical language or is a sched_switch to its own thread,
    which the JSON path refuses."""
    name, quote, text = tail.partition('"')
    kind = _KIND_BY_VALUE.get(name) if quote else None
    if kind is None:
        return None
    fullmatch, keys, is_int = _payload_pattern(kind)
    m = fullmatch(text)
    if m is None:
        return None
    values = [ints[v] if i else sys.intern(v) for v, i in zip(m.groups(), is_int)]
    fields = dict(zip(keys, values))
    if kind is EventKind.SCHED_SWITCH and fields["prev_tid"] == fields["next_tid"]:
        return None
    if len(tails) >= _SHARED_MAX:
        tails.clear()
    read = tails[tail] = kind, _share_payload((kind, *values), fields, payloads)
    return read


@dataclass(slots=True)
class TraceEvent:
    """One timestamped kernel-style event.

    Read-only by convention: nothing in the package assigns to a field
    after construction.  The dataclass is not frozen because a frozen
    __init__ sets each field through object.__setattr__, which made
    building an event about three times as slow.

    An event read from a trace shares its payload with every equal event
    of that read, and that payload is read-only: a mutator raises
    TypeError.  An event built by a caller keeps the dict it was given.
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


def _parse_line(line: str, lineno: int, ints: _SharedInts,
                payloads: dict) -> TraceEvent:
    """The event of a line that passes every record check, its ints and
    payload taken from the sharing tables of iter_trace."""
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
    fields = {}
    for key, check in PAYLOAD_FIELDS[kind]:
        try:
            value = obj[key]
        except KeyError as exc:
            raise MalformedRecord(lineno, f"{kind_str}: missing key {key!r}") from exc
        if not check(value):
            raise MalformedRecord(lineno, f"{kind_str}: bad value for {key!r}: {value!r}")
        fields[key] = sys.intern(value) if type(value) is str else ints[value]
    if kind is EventKind.SCHED_SWITCH and fields["prev_tid"] == fields["next_tid"]:
        raise MalformedRecord(lineno, "sched_switch: prev_tid == next_tid")
    payload = _share_payload((kind, *fields.values()), fields, payloads)
    return TraceEvent(ts, ints[cpu], ints[tid], sys.intern(comm), kind, payload)


def read_trace(source) -> list[TraceEvent]:
    """Parse a JSONL trace into timestamp-ordered events.

    *source* may be a path, raw bytes, or a binary file object; a pipe
    or FIFO will do, since the reader never seeks.
    Each record is checked on its own (JSON, fields, kind, UTF-8) and
    against its predecessor's timestamp; MalformedRecord, UnknownEventKind
    and NonMonotonicTimestamp carry the offending 1-based line number.  A
    gzip stream cut short or corrupt is a MalformedRecord at the first
    line not decoded whole.
    Entry/exit nesting is checked by the state-DB fold, not here.

    Events that are equal in a field share one object: one int per
    distinct tid, cpu or payload int, and one read-only payload per
    distinct kind and payload values (see iter_trace).
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
    gzipped when it ends in .gz (zero mtime, so the bytes are reproducible).

    Each line is json.dumps(event_to_record(ev), ensure_ascii=False,
    separators=(",", ":")) and a newline.  An event whose kind is an
    EventKind, whose numbers are exact ints and whose strings are exact
    strs is formatted from its kind's line template, each distinct string
    JSON-encoded once by json's own encoder; any other event goes through
    json.dumps itself, so every line and every error is json.dumps's.
    Lines are written a few thousand at a time; when events raises, the
    lines before it are written first.
    """
    if not isinstance(dest, (str, Path)):
        _write_lines(events, dest)
        return
    with atomic_output(dest) as raw:
        if str(dest).endswith(".gz"):
            raw = gzip.GzipFile(fileobj=raw, mode="wb", mtime=0)
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:
            _write_lines(events, fh)


# json.dumps's string escaping under write_trace's settings
_json_str = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _line_template(kind: EventKind) -> str:
    """A kind's line as a %-template: ts, cpu, tid, the encoded comm, then
    its payload values in PAYLOAD_FIELDS order."""
    fixed = '{"ts":%s,"cpu":%s,"tid":%s,"comm":%s,"kind":' \
        + _json_str(kind.value).replace("%", "%%")
    for key, _ in PAYLOAD_FIELDS[kind]:
        fixed += "," + _json_str(key).replace("%", "%%") + ":%s"
    return fixed + "}\n"


# kind -> (line template, payload keys)
_LINE_TEMPLATES = {kind: (_line_template(kind), tuple(key for key, _ in fields))
                   for kind, fields in PAYLOAD_FIELDS.items()}
_CHUNK_LINES = 4096


def _write_lines(events: Iterable[TraceEvent], fh) -> None:
    templates = _LINE_TEMPLATES
    encode = _json_str
    encoded: dict[str, str] = {}  # string -> its JSON text
    lines: list[str] = []
    append = lines.append
    try:
        for ev in events:
            line = None
            kind, ts, cpu, tid, comm = ev.kind, ev.ts, ev.cpu, ev.tid, ev.comm
            # a str equal to a kind's value would find its template too, but
            # json.dumps(event_to_record(ev)) fails on it: exact types only
            if type(kind) is EventKind and type(ts) is int and type(cpu) is int \
                    and type(tid) is int and type(comm) is str:
                template, keys = templates[kind]
                values = [ts, cpu, tid,
                          encoded.get(comm) or encoded.setdefault(comm, encode(comm))]
                payload = ev.payload
                for key in keys:
                    value = payload[key]
                    if type(value) is str:
                        value = encoded.get(value) or encoded.setdefault(value, encode(value))
                    elif type(value) is not int:
                        break
                    values.append(value)
                else:
                    line = template % tuple(values)
            if line is None:
                line = json.dumps(event_to_record(ev), ensure_ascii=False,
                                  separators=(",", ":")) + "\n"
            append(line)
            if len(lines) >= _CHUNK_LINES:
                _write_chunk(fh, lines)
                if len(encoded) > _CHUNK_LINES:  # keep the memory flat
                    encoded.clear()
    finally:
        if lines:
            _write_chunk(fh, lines)


def _write_chunk(fh, lines: list[str]) -> None:
    """Write the pending lines and clear them, so a chunk is written once."""
    try:
        fh.write("".join(lines))
    except UnicodeEncodeError:
        # a text layer encodes a whole write before it keeps any of it: write
        # line by line, so the lines before the one it cannot encode land
        for line in lines:
            fh.write(line)
        raise
    finally:
        lines.clear()


# tested by identity, once per event: a set lookup would hash the enum
# member in Python
_SPAN_BEGIN, _SPAN_END = EventKind.SPAN_BEGIN, EventKind.SPAN_END
_BEGIN_ORDER = attrgetter("t_start", "span_id")
_new_object = object.__new__


def _completed_span(span_id: str, root_tid: int, t_start: int, t_end: int) -> ExecutionSpan:
    """ExecutionSpan(span_id, root_tid, t_start, t_end), the same frozen
    span, built without the dataclass __init__: that sets each field
    through object.__setattr__, which was most of extract_spans' time."""
    if t_start >= t_end:
        return ExecutionSpan(span_id, root_tid, t_start, t_end)  # raises EmptySpan
    span = _new_object(ExecutionSpan)
    span.__dict__.update(span_id=span_id, root_tid=root_tid, t_start=t_start, t_end=t_end)
    return span


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
    for ev in events:
        kind = ev.kind
        if kind is _SPAN_BEGIN:
            key = ev.payload["span_id"]
            if key in open_by_key:
                raise OverlappingSpan(f"span {key!r} re-opened at ts={ev.ts}")
            open_by_key[key] = (ev.tid, ev.ts)
        elif kind is _SPAN_END:
            key = ev.payload["span_id"]
            opened = open_by_key.pop(key, None)
            if opened is None:
                raise UnmatchedEnd(f"span {key!r} ended at ts={ev.ts} with no begin")
            done.append(_completed_span(key, *opened, ev.ts))
    # a dict keeps insertion order: the spans left open, in begin order
    still_open = [OpenSpan(key, tid, ts) for key, (tid, ts) in open_by_key.items()]
    done.sort(key=_BEGIN_ORDER)
    return SpanExtraction(spans=done, open_spans=still_open)


# compressed bytes read from a gzip trace at a time
_GZIP_PIECE = 1 << 16


class _Gunzip(io.RawIOBase):
    """The data of a gzip stream, member after member, as GzipFile reads
    it: zlib.decompressobj(wbits=31) checks each member's header and its
    CRC32 and length trailer, and zero bytes may pad the stream after a
    member.  Unlike GzipFile, a read that meets corrupt data first hands
    over the whole lines decoded before it, replayed a byte at a time from
    a copy of the decoder; the next read raises the zlib.error, so it is
    met at the first line not decoded whole.  A stream cut short raises
    EOFError.  Closing it closes the file under it."""

    def __init__(self, raw):
        self._raw = raw
        self._inflate = zlib.decompressobj(31)
        self._input = b""  # compressed bytes the decoder has not taken yet
        self._error: zlib.error | None = None

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        while self._error is None:
            inflate = self._inflate
            if not self._input:
                self._input = self._raw.read(_GZIP_PIECE)
                if not self._input:
                    if inflate.eof:
                        return 0
                    raise EOFError("Compressed file ended before the end-of-stream "
                                   "marker was reached")
            if inflate.eof:
                self._input = self._input.lstrip(b"\0")
                if not self._input:
                    continue
                inflate = self._inflate = zlib.decompressobj(31)
            piece, before = self._input, inflate.copy()
            try:
                data = inflate.decompress(piece, len(buf))
            except zlib.error as exc:
                self._error = exc
                data = []
                try:
                    for i in range(len(piece)):
                        data.append(before.decompress(piece[i:i + 1]))
                except zlib.error:
                    pass
                data = b"".join(data)
                data = data[:data.rfind(b"\n") + 1]
            else:
                self._input = inflate.unconsumed_tail or inflate.unused_data
            if data:
                buf[:len(data)] = data
                return len(data)
        raise self._error

    def close(self) -> None:
        super().close()
        self._raw.close()


class _Borrowed(io.RawIOBase):
    """A caller's binary file, read through its readinto.  Closing it leaves
    the caller's file open: the caller closes that."""

    def __init__(self, fh):
        self._fh = fh

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        return self._fh.readinto(buf)


def iter_trace(source) -> Iterator[TraceEvent]:
    """Streaming variant of read_trace (same record checks, constant memory).

    A line exactly as write_trace writes it takes a fast path: the head
    pattern (_match_line) reads ts, cpu, tid and comm and hands over the
    tail, the kind's name and payload text.  A tail seen before in this
    call maps to its kind and payload through one table lookup; a new one
    must fullmatch its kind's payload pattern.  Any other line, and a
    sched_switch from a thread to itself, is read by _parse_line, so every
    error and its line number is the JSON path's.

    Each event it yields shares what repeats with the events before it in
    this call: one int object per distinct value of tid, cpu and each int
    payload field, and one payload per distinct (kind, payload values).
    That payload is read-only: every mutator raises TypeError, and it
    pickles and deep-copies to a plain dict.  Each lookup table is cleared
    when it passes a fixed size, so memory stays constant.  Events that a
    caller builds keep the dicts the caller gave them.

    A file object passed in stays open; the caller closes it.  It is read
    forward only, so it may be a pipe.  The reader stacks its layers on the
    source (a buffer, a gzip layer if the magic says so, the text layer),
    and each layer closes the one under it, so closing the outermost closes
    every layer the reader built and leaves a caller's file open."""
    outer = None  # the outermost layer built so far
    lineno = 0
    try:
        if isinstance(source, (str, Path)):
            outer = open(source, "rb", buffering=0)
        elif isinstance(source, (bytes, bytearray)):
            outer = io.BytesIO(bytes(source))
        else:
            outer = _Borrowed(source)
        outer = io.BufferedReader(outer)
        # look at the gzip magic without consuming it: a pipe cannot seek back
        if outer.peek(2)[:2] == b"\x1f\x8b":
            outer = io.BufferedReader(_Gunzip(outer))
        outer = io.TextIOWrapper(outer, encoding="utf-8")
        prev_ts = -1
        parse = _parse_line
        match = _match_line
        read_tail = _read_tail
        intern = sys.intern
        ints = _SharedInts()
        # (kind, *payload values) -> the payload every event with those
        # values shares; a canonical line's tail -> its kind and payload
        payloads: dict[tuple, _ReadOnlyPayload] = {}
        tails: dict[str, tuple[EventKind, _ReadOnlyPayload]] = {}
        for lineno, line in enumerate(outer, start=1):
            m = match(line)
            read = None
            if m is not None:
                ts, cpu, tid, comm, tail = m.groups()
                read = tails.get(tail) or read_tail(tail, ints, payloads, tails)
            if read is not None:
                kind, payload = read
                ev = TraceEvent(int(ts), ints[cpu], ints[tid], intern(comm), kind, payload)
            else:
                head = line[0] if line else "\n"
                if head == "\n" or (head in " \t\r" and not line.strip()):
                    continue
                ev = parse(line, lineno, ints, payloads)
            if ev.ts < prev_ts:
                raise NonMonotonicTimestamp(lineno, ev.ts, prev_ts)
            prev_ts = ev.ts
            yield ev
    except UnicodeDecodeError as exc:
        # the text layer decodes a whole chunk at once; the newlines in
        # that chunk before the bad byte locate the offending line
        bad_line = lineno + 1 + exc.object.count(b"\n", 0, exc.start)
        raise MalformedRecord(bad_line, f"not UTF-8: {exc.reason}") from exc
    except (EOFError, zlib.error) as exc:
        # the text layer has yielded every line the gzip layer decoded whole
        raise MalformedRecord(lineno + 1, f"gzip stream: {exc}") from exc
    finally:
        if outer is not None:
            outer.close()
