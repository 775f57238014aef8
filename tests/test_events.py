from __future__ import annotations

import copy
import dataclasses
import gc
import gzip
import io
import json
import os
import pickle
import threading
import tracemalloc
import warnings
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waitgraph import events as events_mod
from waitgraph.errors import (
    EmptySpan,
    InputError,
    MalformedRecord,
    NestingViolation,
    NonMonotonicTimestamp,
    OverlappingSpan,
    UnknownEventKind,
    UnmatchedEnd,
)
from waitgraph.events import (
    PAYLOAD_FIELDS,
    EventKind,
    ExecutionSpan,
    OpenSpan,
    TraceEvent,
    event_to_record,
    extract_spans,
    iter_trace,
    read_trace,
    write_trace,
)
from waitgraph.states import (
    StateKind,
    build_state_db,
    thread_state_key,
    thread_syscall_key,
)
from waitgraph.synth import SCENARIOS, ScenarioSpec, generate
from conftest import damaged_gzips, zlib_whole_lines
from randtrace import random_trace


def _line(**kw) -> str:
    return json.dumps(kw)


def _switch(ts, prev, nxt, cpu=0, prev_state="runnable", tid=None, comm="w"):
    return _line(ts=ts, cpu=cpu, tid=tid if tid is not None else prev, comm=comm,
                 kind="sched_switch", prev_tid=prev, prev_state=prev_state,
                 next_tid=nxt)


def _as_bytes(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def test_empty_file_gives_empty_sequence():
    assert read_trace(b"") == []


def test_single_sched_switch_round_trips_fields():
    events = read_trace(_as_bytes(_switch(10, 5, 6, cpu=1, comm="apache2")))
    assert len(events) == 1
    ev = events[0]
    assert ev.ts == 10 and ev.cpu == 1 and ev.tid == 5 and ev.comm == "apache2"
    assert ev.kind is EventKind.SCHED_SWITCH
    assert ev.payload == {"prev_tid": 5, "prev_state": "runnable", "next_tid": 6}


def test_out_of_order_timestamp_reported_at_line():
    lines = [
        _switch(10, 1, 2),
        _switch(20, 2, 3, tid=2),
        _switch(30, 3, 4, tid=3),
        _switch(25, 4, 5, tid=4),  # line 4 goes back in time
        _switch(40, 5, 6, tid=5),
        _switch(50, 6, 7, tid=6),
    ]
    with pytest.raises(NonMonotonicTimestamp) as exc:
        read_trace(_as_bytes(*lines))
    assert exc.value.line == 4


def test_malformed_record_has_line_number():
    lines = [_switch(10, 1, 2), "{not json"]
    with pytest.raises(MalformedRecord) as exc:
        read_trace(_as_bytes(*lines))
    assert exc.value.line == 2


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_non_utf8_record_has_line_number(compress):
    good = _line(ts=1, cpu=0, tid=1, comm="x", kind="page_fault").encode()
    bad = good.replace(b'"x"', b'"x\xff"')
    # line 401 lies past the first chunk the text layer decodes
    data = b"\n".join([good] * 400 + [bad] + [good] * 3) + b"\n"
    with pytest.raises(MalformedRecord) as exc:
        read_trace(gzip.compress(data) if compress else data)
    assert exc.value.line == 401


def test_unknown_kind_rejected():
    with pytest.raises(UnknownEventKind) as exc:
        read_trace(_as_bytes(_line(ts=1, cpu=0, tid=1, comm="x", kind="sched_banana")))
    assert exc.value.kind == "sched_banana"


def test_switch_to_self_rejected():
    with pytest.raises(MalformedRecord):
        read_trace(_as_bytes(_switch(10, 3, 3)))


def test_missing_payload_field_rejected():
    bad = _line(ts=1, cpu=0, tid=1, comm="x", kind="sched_switch", prev_tid=1)
    with pytest.raises(MalformedRecord):
        read_trace(_as_bytes(bad))


def test_unknown_extra_keys_ignored():
    line = _line(ts=1, cpu=0, tid=1, comm="x", kind="page_fault", vendor="stuff")
    ev = read_trace(_as_bytes(line))[0]
    assert ev.payload == {}


# Nesting is checked by the state-DB fold; the reader accepts each record.

def test_exit_without_entry_is_nesting_violation():
    lines = [_line(ts=1, cpu=0, tid=1, comm="x", kind="syscall_exit", name="read")]
    assert len(read_trace(_as_bytes(*lines))) == 1
    with pytest.raises(NestingViolation) as exc:
        build_state_db(iter_trace(_as_bytes(*lines)))
    assert "ts=1" in str(exc.value) and "tid 1" in str(exc.value)


def test_mismatched_exit_name_is_nesting_violation():
    lines = [
        _line(ts=1, cpu=0, tid=1, comm="x", kind="syscall_entry", name="read"),
        _line(ts=2, cpu=0, tid=1, comm="x", kind="syscall_exit", name="write"),
    ]
    with pytest.raises(NestingViolation) as exc:
        build_state_db(iter_trace(_as_bytes(*lines)))
    assert "ts=2" in str(exc.value) and "syscall_exit(write)" in str(exc.value)


def test_nesting_is_per_tid():
    lines = [
        _line(ts=1, cpu=0, tid=1, comm="x", kind="syscall_entry", name="read"),
        _line(ts=2, cpu=1, tid=2, comm="y", kind="syscall_entry", name="write"),
        _line(ts=3, cpu=1, tid=2, comm="y", kind="syscall_exit", name="write"),
        _line(ts=4, cpu=0, tid=1, comm="x", kind="syscall_exit", name="read"),
    ]
    assert len(read_trace(_as_bytes(*lines))) == 4
    db = build_state_db(iter_trace(_as_bytes(*lines)))
    assert [(sv.start, sv.end, sv.value) for sv in db.intervals(thread_syscall_key(1))] \
        == [(1, 4, "read")]
    assert [(sv.start, sv.end, sv.value) for sv in db.intervals(thread_syscall_key(2))] \
        == [(2, 3, "write")]


def _irq(ts, kind, tid, cpu=0, **payload):
    return _line(ts=ts, cpu=cpu, tid=tid, comm="x", kind=kind, **payload)


def test_interrupt_nesting_is_per_cpu_not_per_tid():
    # each interrupt record names whichever thread the tracer attributed it to
    lines = [
        _switch(0, 9, 1),
        _irq(10, "irq_entry", 1, irq=5),
        _irq(12, "softirq_entry", 2, vec=4),
        _irq(14, "softirq_exit", 3, vec=4),
        _irq(20, "irq_exit", 2, irq=5),
        _switch(30, 1, 9),
    ]
    db = build_state_db(iter_trace(_as_bytes(*lines)))
    assert [(sv.start, sv.end, sv.value.kind)
            for sv in db.intervals(thread_state_key(1))] == [
        (0, 10, StateKind.RUNNING), (10, 20, StateKind.INTERRUPTED),
        (20, 30, StateKind.RUNNING)]


def test_interrupt_exit_on_another_cpu_is_nesting_violation():
    lines = [_irq(10, "irq_entry", 1, cpu=0, irq=5),
             _irq(20, "irq_exit", 1, cpu=1, irq=5)]
    assert len(read_trace(_as_bytes(*lines))) == 2
    with pytest.raises(NestingViolation) as exc:
        build_state_db(iter_trace(_as_bytes(*lines)))
    assert "ts=20" in str(exc.value) and "irq_exit on cpu 1" in str(exc.value)


def test_gzip_detected_by_magic():
    payload = _as_bytes(_switch(10, 1, 2))
    events = read_trace(gzip.compress(payload))
    assert len(events) == 1 and events[0].ts == 10


@pytest.mark.parametrize("damage", ["cut", "flipped", "magic"])
def test_damaged_gzip_is_a_malformed_record_after_the_lines_it_read(damage):
    data = _as_bytes(*(_line(ts=ts, cpu=ts % 4, tid=1 + ts % 7, comm="x",
                             kind="io_read", bytes=ts * 37 % 4096 + 1)
                       for ts in range(3000)))
    whole = read_trace(data)
    packed = damaged_gzips(gzip.compress(data))[damage]
    read = []
    with pytest.raises(MalformedRecord) as exc:
        for ev in iter_trace(packed):
            read.append(ev)
    assert exc.value.line == len(read) + 1
    # the lines zlib decodes whole are read as a plain trace's; a garbled
    # one fails there, else the next line fails on the gzip stream
    decoded = zlib_whole_lines(packed)
    try:
        assert read == read_trace(decoded) == whole[:len(read)]
        assert str(exc.value).startswith(f"line {len(read) + 1}: gzip stream: ")
    except MalformedRecord as plain:
        assert str(exc.value) == str(plain)


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_iter_trace_closes_only_the_files_it_opens(tmp_path, compress):
    data = _as_bytes(_switch(10, 1, 2), _switch(20, 2, 1), _switch(30, 1, 2))
    path = tmp_path / "trace.jsonl"
    path.write_bytes(gzip.compress(data) if compress else data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(read_trace(path)) == 3
        with open(path, "rb") as raw:
            assert len(list(iter_trace(raw))) == 3
            raw.seek(0)
            stopped = iter_trace(raw)
            next(stopped)
            stopped.close()
            gc.collect()
            assert not raw.closed
            raw.seek(0)
            late = iter_trace(raw)
            next(late)
        late.close()  # after the caller closed its file
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


_CLOSE_LINES = [_switch(10, 1, 2), _switch(20, 2, 1), _switch(30, 1, 2)]
# how a read ends: the events it must yield first, and the error it ends in
_CLOSE_OUTCOMES = {"end": (3, None), "first_event": (1, None),
                   "malformed_line_2": (1, MalformedRecord), "cut_gzip": (0, MalformedRecord)}
# how the caller hands the trace over; "path" and "bytes" leave no file
# object with the caller
_CLOSE_SOURCES = {
    "path": lambda path: path,
    "bytes": lambda path: path.read_bytes(),
    "buffered": lambda path: open(path, "rb"),
    "unbuffered": lambda path: open(path, "rb", buffering=0),
    "bytesio": lambda path: io.BytesIO(path.read_bytes()),
}


# only a gzip stream can be cut short
_CLOSE_CASES = [(compress, outcome) for compress in ("plain", "gzip")
                for outcome in _CLOSE_OUTCOMES if compress == "gzip" or outcome != "cut_gzip"]


@pytest.mark.parametrize("compress, outcome", _CLOSE_CASES,
                         ids=[f"{c}-{o}" for c, o in _CLOSE_CASES])
@pytest.mark.parametrize("source", _CLOSE_SOURCES)
def test_iter_trace_closes_what_it_opens_on_every_exit_path(tmp_path, source, compress,
                                                            outcome):
    lines = list(_CLOSE_LINES)
    if outcome == "malformed_line_2":
        lines[1] = lines[1].replace('"kind"', '"kinds"')
    data = _as_bytes(*lines)
    if compress == "gzip":
        data = gzip.compress(data)
    if outcome == "cut_gzip":
        data = data[:len(data) // 2]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    n_events, error = _CLOSE_OUTCOMES[outcome]
    opened = []

    def spy_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    given = _CLOSE_SOURCES[source](path)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(events_mod, "open", spy_open, create=True):
            warnings.simplefilter("always")
            reader = iter_trace(given)
            read = []
            if error is None:
                read.extend(reader if outcome == "end" else [next(reader)])
                reader.close()
            else:
                with pytest.raises(error) as exc:
                    for ev in reader:
                        read.append(ev)
                assert exc.value.line == n_events + 1
            assert len(read) == n_events
            del reader
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
        assert len(opened) == (source == "path")
        assert all(fh.closed for fh in opened)
        if isinstance(given, io.IOBase):
            assert not given.closed
            given.seek(0)
            assert given.read(1) == data[:1]
    finally:
        if isinstance(given, io.IOBase):
            given.close()


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_read_trace_from_a_fifo(tmp_path, compress):
    data = _as_bytes(_switch(10, 1, 2), _switch(20, 2, 1), _switch(30, 1, 2))
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(gzip.compress(data) if compress else data)
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events = read_trace(fifo)
            gc.collect()
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert events == read_trace(data)
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_iter_trace_leaves_an_unbuffered_caller_file_open():
    data = _as_bytes(_switch(10, 1, 2), _switch(20, 2, 1))
    for payload in (data, gzip.compress(data)):
        buf = io.BytesIO(payload)
        assert list(iter_trace(buf)) == read_trace(data)
        gc.collect()
        assert not buf.closed


def test_write_read_round_trip_random_trace():
    events = random_trace(seed=42, n_events=400)
    buf = io.StringIO()
    write_trace(events, buf)
    again = read_trace(buf.getvalue().encode())
    assert again == events
    # canonical output re-serializes byte-identically
    buf2 = io.StringIO()
    write_trace(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


# -- the decoder takes a line only as json.loads would --------------------------

_PF = _line(ts=1, cpu=0, tid=1, comm="x", kind="page_fault")
_IO = _line(ts=2, cpu=0, tid=1, comm="x", kind="io_read", bytes=5)


@pytest.mark.parametrize("text", [
    _PF + "\r\n" + _IO + "\r\n",
    _PF + "\n" + _IO,
    "  " + _PF + "  \n\t" + _IO + " \n",
], ids=["crlf", "no_final_newline", "spaces"])
def test_line_framing_does_not_change_records(text):
    assert read_trace(text.encode()) == [
        TraceEvent(1, 0, 1, "x", EventKind.PAGE_FAULT, {}),
        TraceEvent(2, 0, 1, "x", EventKind.IO_READ, {"bytes": 5})]


@pytest.mark.parametrize("text, message", [
    ("\ufeff" + _PF + "\n" + _IO + "\n",
     "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (_PF + "\n" + _IO + _IO + "\n", "line 2: invalid JSON: Extra data"),
    (_PF + "\n" + _IO + " x", "line 2: invalid JSON: Extra data"),
    (_PF.replace('"ts": 1', '"ts": NaN') + "\n", "line 1: bad ts/cpu/tid/comm field"),
    # joined as one array these three lines would decode to three records
    ('{"ts":1,"cpu":0,"tid":1,"comm":"x","kind":"page_fault","x":[1\n2]}\n'
     + _PF + "," + _PF + "\n", "line 1: invalid JSON: Expecting ',' delimiter"),
], ids=["bom", "extra_data", "extra_data_last_line", "nan_ts", "split_record"])
def test_line_that_json_loads_rejects_fails_at_its_line(text, message):
    with pytest.raises(MalformedRecord) as exc:
        read_trace(text.encode())
    assert str(exc.value) == message


# -- canonical lines take a regex path with the JSON path's results -----------

def _outcome(data: bytes):
    """read_trace's events, or the class and text of the error it raised."""
    try:
        return read_trace(data)
    except InputError as exc:
        return type(exc), str(exc)


def _slow_outcome(data: bytes):
    with mock.patch.object(events_mod, "_match_line", lambda line: None):
        return _outcome(data)


def _assert_both_paths_agree(data: bytes) -> None:
    assert _outcome(data) == _slow_outcome(data)


def _events_by_json_loads(text: str) -> list[TraceEvent]:
    events = []
    for line in text.splitlines():
        rec = json.loads(line)
        kind = EventKind(rec["kind"])
        events.append(TraceEvent(rec["ts"], rec["cpu"], rec["tid"], rec["comm"], kind,
                                 {key: rec[key] for key, _ in PAYLOAD_FIELDS[kind]}))
    return events


def _trace_text(evs) -> bytes:
    buf = io.StringIO()
    write_trace(evs, buf)
    return buf.getvalue().encode()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_synth_trace_parses_like_json_loads_per_line(scenario):
    events, _ = generate(ScenarioSpec(scenario, seed=4, n_spans=12))
    data = _trace_text(events)
    reference = _events_by_json_loads(data.decode())
    assert b'"kind":"page_fault"' in data
    assert read_trace(data) == reference
    assert _slow_outcome(data) == reference
    assert reference == events


@pytest.mark.parametrize("seed", range(4))
def test_random_trace_reads_the_same_without_the_counter_path(seed):
    _assert_both_paths_agree(_trace_text(random_trace(seed, 600, with_spans=True)))


_COUNTER = '{"ts":5,"cpu":1,"tid":7,"comm":"w","kind":"io_read","bytes":8}\n'
_HEAD = '{"ts":5,"cpu":1,"tid":7,"comm":"w","kind":'

# one line of every kind exactly as write_trace writes it
_CANONICAL_LINES = {
    EventKind.SCHED_SWITCH:
        _HEAD + '"sched_switch","prev_tid":7,"prev_state":"blocked","next_tid":9}\n',
    EventKind.SCHED_WAKEUP:
        _HEAD + '"sched_wakeup","waker_tid":7,"wakee_tid":9,"waker_context":"task"}\n',
    EventKind.SYSCALL_ENTRY: _HEAD + '"syscall_entry","name":"futex"}\n',
    EventKind.SYSCALL_EXIT: _HEAD + '"syscall_exit","name":"futex"}\n',
    EventKind.IRQ_ENTRY: _HEAD + '"irq_entry","irq":0}\n',
    EventKind.IRQ_EXIT: _HEAD + '"irq_exit","irq":' + "9" * 18 + '}\n',
    EventKind.SOFTIRQ_ENTRY: _HEAD + '"softirq_entry","vec":4}\n',
    EventKind.SOFTIRQ_EXIT: _HEAD + '"softirq_exit","vec":4}\n',
    EventKind.HRTIMER_EXPIRE_ENTRY: _HEAD + '"hrtimer_expire_entry"}\n',
    EventKind.HRTIMER_EXPIRE_EXIT: _HEAD + '"hrtimer_expire_exit"}\n',
    EventKind.BLOCK_RQ_ISSUE: _HEAD + '"block_rq_issue","dev":"sda/1 é"}\n',
    EventKind.BLOCK_RQ_COMPLETE: _HEAD + '"block_rq_complete","dev":"sda"}\n',
    EventKind.PAGE_FAULT: _HEAD + '"page_fault"}\n',
    EventKind.IO_READ: _COUNTER,
    EventKind.IO_WRITE: _COUNTER.replace("io_read", "io_write"),
    EventKind.SPAN_BEGIN: _HEAD + '"span_begin","span_id":"s0001"}\n',
    EventKind.SPAN_END: _HEAD + '"span_end","span_id":"s0001"}\n',
}
_SWITCH = _CANONICAL_LINES[EventKind.SCHED_SWITCH]
_WAKEUP = _CANONICAL_LINES[EventKind.SCHED_WAKEUP]

_LINE_PATHS = {
    **{kind.value: (line, True) for kind, line in _CANONICAL_LINES.items()},
    "zeros": (_COUNTER.replace('"ts":5', '"ts":0').replace('"bytes":8', '"bytes":0'), True),
    "leading_zero": (_COUNTER.replace('"ts":5', '"ts":05'), False),
    "18_digits": (_COUNTER.replace('"ts":5', '"ts":' + "9" * 18), True),
    "19_digits": (_COUNTER.replace('"ts":5', '"ts":' + "9" * 19), False),
    "19_digit_bytes": (_COUNTER.replace('"bytes":8', '"bytes":' + "1" * 19), False),
    "minus_zero": (_COUNTER.replace('"ts":5', '"ts":-0'), False),
    "float": (_COUNTER.replace('"ts":5', '"ts":5.0'), False),
    "tid_0": (_COUNTER.replace('"tid":7', '"tid":0'), False),
    "escape_u": (_COUNTER.replace('"comm":"w"', '"comm":"w\\u0041"'), False),
    "escaped_backslash": (_COUNTER.replace('"comm":"w"', '"comm":"w\\\\"'), False),
    "escaped_quote": (_COUNTER.replace('"comm":"w"', '"comm":"w\\"x"'), False),
    "control_char": (_COUNTER.replace('"comm":"w"', '"comm":"w\tx"'), False),
    "empty_comm": (_COUNTER.replace('"comm":"w"', '"comm":""'), False),
    "non_ascii_comm": (_COUNTER.replace('"comm":"w"', '"comm":"kworker/ü:線"'), True),
    "del_char": (_COUNTER.replace('"comm":"w"', '"comm":"w\x7f"'), True),
    "page_fault_with_bytes": (_COUNTER.replace("io_read", "page_fault"), False),
    "io_read_without_bytes": (_COUNTER.replace(',"bytes":8', ""), False),
    "extra_key": (_COUNTER.replace("}", ',"vendor":1}'), False),
    "swapped_keys": (_COUNTER.replace('"ts":5,"cpu":1', '"cpu":1,"ts":5'), False),
    "spaces": (_COUNTER.replace(",", ", "), False),
    "trailing_blank": (_COUNTER.replace("}", "} "), False),
    "no_final_newline": (_COUNTER[:-1], False),
    # the text layer hands the line over with its ending translated to "\n"
    "crlf": (_COUNTER.replace("\n", "\r\n"), True),
    # every other kind: what the payload patterns refuse reads as JSON
    "switch_swapped_keys": (_SWITCH.replace('"prev_tid":7,"prev_state":"blocked"',
                                            '"prev_state":"blocked","prev_tid":7'), False),
    "wakeup_extra_key": (_WAKEUP.replace("}", ',"vendor":1}'), False),
    "hrtimer_extra_key": (_HEAD + '"hrtimer_expire_entry","irq":1}\n', False),
    "escaped_name": (_HEAD + '"syscall_entry","name":"fute\\u0078"}\n', False),
    "escaped_dev": (_HEAD + '"block_rq_issue","dev":"sd\\"a"}\n', False),
    "escaped_span_id": (_HEAD + '"span_begin","span_id":"s\\/1"}\n', False),
    "empty_span_id": (_HEAD + '"span_end","span_id":""}\n', False),
    "escaped_prev_state": (_SWITCH.replace('"blocked"', '"blocke\\u0064"'), False),
    "prev_state_running": (_SWITCH.replace('"blocked"', '"running"'), False),
    "waker_context_user": (_WAKEUP.replace('"task"', '"user"'), False),
    "waker_tid_0": (_WAKEUP.replace('"waker_tid":7', '"waker_tid":0'), False),
    "19_digit_irq": (_HEAD + '"irq_entry","irq":' + "1" * 19 + "}\n", False),
    "leading_zero_vec": (_HEAD + '"softirq_exit","vec":04}\n', False),
    "switch_to_self": (_SWITCH.replace('"next_tid":9', '"next_tid":7'), False),
    "unknown_kind": (_HEAD + '"sched_yield"}\n', False),
    "escaped_kind": (_HEAD + '"page\\u005ffault"}\n', False),
    "unterminated_kind": (_HEAD + '"page_fault}\n', False),
    "double_brace_tail": (_COUNTER.replace("}", "}}"), False),
    "double_brace_switch": (_SWITCH.replace("}", "}}"), False),
}


@pytest.mark.parametrize("line, fast", _LINE_PATHS.values(), ids=_LINE_PATHS)
def test_which_lines_take_the_counter_path(line, fast):
    # a line takes the fast path when the JSON path never sees it
    data = line.encode()
    with mock.patch.object(events_mod, "_parse_line", wraps=events_mod._parse_line) as parse:
        got = _outcome(data)
    assert parse.call_count == (0 if fast else 1)
    assert got == _slow_outcome(data)


def test_every_kind_has_a_canonical_line_case():
    assert set(_CANONICAL_LINES) == set(EventKind)
    for kind, line in _CANONICAL_LINES.items():
        assert _trace_text(read_trace(line.encode())) == line.encode()


# mostly values the fast path takes; 0 (no valid tid) and the 18/19-digit edge
_digits = st.one_of(st.integers(1, 10 ** 6),
                    st.sampled_from([0, 10 ** 17, 10 ** 18 - 1, 10 ** 18, 10 ** 19]))
# names, and text rich in what JSON escapes or the fast path refuses
_comms = st.one_of(st.sampled_from(["apache2", "kworker/0:1", "w"]),
                   st.text('aZ0/: é線"\\\x00\t\x1f\x7f', max_size=5),
                   st.text(max_size=6))


_COUNTER_KINDS = [EventKind.PAGE_FAULT, EventKind.IO_READ, EventKind.IO_WRITE]
# a payload value by its validator: mostly one the payload patterns take
_VALUES = {events_mod._pos_int: _digits, events_mod._nonneg_int: _digits,
           events_mod._nonempty_str: _comms,
           events_mod._prev_state: st.sampled_from(["runnable", "blocked", "running"]),
           events_mod._waker_context: st.sampled_from(["task", "irq", "softirq",
                                                       "hrtimer", "user"])}


@st.composite
def _records(draw, kinds) -> dict:
    """A record of one of kinds with its keys in write_trace's order."""
    kind = draw(st.sampled_from(kinds))
    rec = {"ts": draw(_digits), "cpu": draw(_digits), "tid": draw(_digits),
           "comm": draw(_comms), "kind": kind.value}
    for key, check in PAYLOAD_FIELDS[kind]:
        rec[key] = draw(_VALUES[check])
    return rec


def _canonical_lines(records) -> bytes:
    return "".join(json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n"
                   for rec in records).encode()


def _mutated(text: bytes, data) -> bytes:
    text = bytearray(text)
    mutation = data.draw(st.sampled_from(["flip", "insert", "sign_or_zero", "crlf",
                                          "no_newline"]))
    if mutation == "crlf":
        text = bytearray(bytes(text).replace(b"\n", b"\r\n"))
    elif mutation == "no_newline":
        del text[-1]
    elif mutation == "sign_or_zero":  # "-" or a leading "0" before a value
        colons = [i for i, b in enumerate(text) if b == ord(":")]
        text.insert(data.draw(st.sampled_from(colons)) + 1,
                    data.draw(st.sampled_from(b"-0")))
    else:
        pos = data.draw(st.integers(0, len(text) - 1))
        byte = data.draw(st.integers(0, 255))
        if mutation == "flip":
            text[pos] = byte
        else:
            text.insert(pos, byte)
    return bytes(text)


@given(records=st.lists(_records(_COUNTER_KINDS), min_size=1, max_size=4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_canonical_counter_lines_read_the_same_on_both_paths(records):
    _assert_both_paths_agree(_canonical_lines(records))


@given(records=st.lists(_records(_COUNTER_KINDS), min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_mutated_counter_lines_fail_alike_on_both_paths(records, data):
    _assert_both_paths_agree(_mutated(_canonical_lines(records), data))


@given(records=st.lists(_records(list(EventKind)), min_size=1, max_size=4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_canonical_lines_of_every_kind_read_the_same_on_both_paths(records):
    _assert_both_paths_agree(_canonical_lines(records))


@given(records=st.lists(_records(list(EventKind)), min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_mutated_lines_of_every_kind_fail_alike_on_both_paths(records, data):
    _assert_both_paths_agree(_mutated(_canonical_lines(records), data))


# a payload value by its validator, always one the record checks accept
_VALID_VALUES = {events_mod._pos_int: st.integers(1, 2 ** 64),
                 events_mod._nonneg_int: st.integers(0, 2 ** 64),
                 events_mod._nonempty_str: st.text(min_size=1, max_size=6),
                 events_mod._prev_state: st.sampled_from(events_mod.PREV_STATES),
                 events_mod._waker_context: st.sampled_from(events_mod.WAKER_CONTEXTS)}


@st.composite
def _non_canonical_lines(draw) -> str:
    """Valid records of any kind, in ts order, each written with json.dumps'
    default separators, its keys shuffled and every non-ASCII char escaped."""
    lines, ts = [], 0
    for kind in draw(st.lists(st.sampled_from(list(EventKind)), min_size=1, max_size=5)):
        ts += draw(st.integers(0, 10 ** 6))
        rec = {"ts": ts, "cpu": draw(_VALID_VALUES[events_mod._nonneg_int]),
               "tid": draw(_VALID_VALUES[events_mod._pos_int]),
               "comm": draw(_VALID_VALUES[events_mod._nonempty_str]), "kind": kind.value}
        for key, check in PAYLOAD_FIELDS[kind]:
            rec[key] = draw(_VALID_VALUES[check])
        if kind is EventKind.SCHED_SWITCH and rec["prev_tid"] == rec["next_tid"]:
            rec["next_tid"] += 1
        order = draw(st.permutations(list(rec)))
        lines.append(json.dumps({key: rec[key] for key in order}, ensure_ascii=True) + "\n")
    return "".join(lines)


@given(text=_non_canonical_lines())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_non_canonical_lines_of_every_kind_read_as_json_loads_reads_them(text):
    with mock.patch.object(events_mod, "_parse_line", wraps=events_mod._parse_line) as parse:
        events = read_trace(text.encode())
    assert parse.call_count == text.count("\n")  # every line took the JSON path
    assert events == _events_by_json_loads(text)


# -- write_trace writes what json.dumps writes -------------------------------

def _write_outcome(write, evs):
    """The UTF-8 bytes write(evs, fh) leaves in a text file object, and
    the type of the error it raised (None if none)."""
    raw = io.BytesIO()
    fh = io.TextIOWrapper(raw, encoding="utf-8")
    try:
        write(evs, fh)
        error = None
    except Exception as exc:
        error = type(exc)
    fh.flush()
    return raw.getvalue(), error


def _dumps_each(evs, fh):
    for ev in evs:
        fh.write(json.dumps(event_to_record(ev), ensure_ascii=False,
                            separators=(",", ":")) + "\n")


def _assert_written_as_json_dumps(evs):
    assert _write_outcome(write_trace, evs) == _write_outcome(_dumps_each, evs)


_numbers = st.one_of(_digits, st.integers())


@st.composite
def _any_kind_events(draw) -> TraceEvent:
    """An event of any kind; each payload value an int or an escape-rich str."""
    kind = draw(st.sampled_from(list(EventKind)))
    payload = {key: draw(st.one_of(_numbers, _comms)) for key, _ in PAYLOAD_FIELDS[kind]}
    return TraceEvent(draw(_numbers), draw(_numbers), draw(_numbers), draw(_comms),
                      kind, payload)


@given(evs=st.lists(_any_kind_events(), min_size=1, max_size=6))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_written_lines_equal_json_dumps_of_the_record(evs):
    _assert_written_as_json_dumps(evs)


class _Str(str):
    pass


class _Int(int):
    pass


class _Level(IntEnum):
    ONE = 1


_HUGE = 10 ** 5000  # past int's string-conversion digit limit


_ODD_VALUES = {
    "bool_ts": ("ts", True), "float_cpu": ("cpu", 1.5), "intenum_tid": ("tid", _Level.ONE),
    "int_subclass_tid": ("tid", _Int(7)), "huge_ts": ("ts", _HUGE),
    "none_comm": ("comm", None), "str_subclass_comm": ("comm", _Str("w")),
    "int_comm": ("comm", 7), "surrogate_comm": ("comm", "\ud800"),
    "plain_str_kind": ("kind", "io_read"), "bool_bytes": ("bytes", False),
    "float_bytes": ("bytes", 2.0), "nan_bytes": ("bytes", float("nan")),
    "none_bytes": ("bytes", None), "int_subclass_bytes": ("bytes", _Int(8)),
    "intenum_bytes": ("bytes", _Level.ONE), "huge_bytes": ("bytes", _HUGE),
    "str_subclass_bytes": ("bytes", _Str("8")), "str_bytes": ("bytes", "é線\u2028"),
    "surrogate_bytes": ("bytes", "\udfff"), "list_bytes": ("bytes", [1]),
    "missing_key": ("payload", {}), "extra_key": ("payload", {"bytes": 1, "vendor": 2}),
    "none_payload": ("payload", None),
}


@pytest.mark.parametrize("field, value", _ODD_VALUES.values(), ids=_ODD_VALUES)
def test_odd_values_are_written_or_refused_as_json_dumps_does(field, value):
    odd = TraceEvent(5, 0, 7, "w", EventKind.IO_READ, {"bytes": 8})
    if field == "bytes":
        odd.payload = {"bytes": value}
    else:
        setattr(odd, field, value)
    fine = TraceEvent(6, 0, 7, "w", EventKind.SYSCALL_ENTRY, {"name": "read"})
    _assert_written_as_json_dumps([fine, odd, fine])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_synth_counter_lines_take_the_readers_counter_path(scenario):
    # every line a synth trace writes, of every kind, skips the JSON path
    events, _ = generate(ScenarioSpec(scenario, seed=4, n_spans=12))
    with mock.patch.object(events_mod, "_parse_line") as parse:
        assert read_trace(_trace_text(events)) == events
    assert not parse.called
    assert {ev.kind for ev in events} > {EventKind.PAGE_FAULT, EventKind.SCHED_SWITCH,
                                         EventKind.SPAN_BEGIN}


# -- events read from a trace share what repeats --------------------------------

# tids, cpu and sizes above 256, which CPython would not share by itself
_SHARING_LINES = [
    '{"ts":1,"cpu":300,"tid":1000,"comm":"w","kind":"io_read","bytes":4096}',
    '{"ts":2,"cpu":300,"tid":1000,"comm":"w","kind":"page_fault"}',
    _switch(3, 1000, 2000, cpu=300, tid=1000),
    '{"ts":4,"cpu":300,"tid":1000,"comm":"w","kind":"io_read","bytes":4096}',
    '{"ts":5,"cpu":300,"tid":1000,"comm":"w","kind":"page_fault"}',
    _switch(6, 1000, 2000, cpu=300, tid=1000),
    # JSON-path twins of the two counter lines
    '{"ts":7, "cpu":300, "tid":1000, "comm":"w", "kind":"io_read", "bytes":4096}',
    '{"ts":8, "cpu":300, "tid":1000, "comm":"w", "kind":"page_fault"}',
]


@pytest.mark.parametrize("counter_path", [True, False], ids=["counter_path", "json_path"])
def test_events_read_share_one_int_and_one_payload_per_value(counter_path):
    data = _as_bytes(*_SHARING_LINES)
    evs = read_trace(data) if counter_path else _slow_outcome(data)
    assert len(evs) == 8
    for ev in evs[1:]:
        assert ev.tid is evs[0].tid and ev.cpu is evs[0].cpu
    assert evs[2].payload["prev_tid"] is evs[0].tid
    for i in range(3):
        assert evs[i].payload is evs[i + 3].payload
    assert evs[6].payload is evs[0].payload and evs[7].payload is evs[1].payload
    assert evs[0].payload == {"bytes": 4096} and evs[1].payload == {}


def test_sharing_tables_are_cleared_without_changing_an_event():
    n = 2 * events_mod._SHARED_MAX + 1
    lines = [_line(ts=i, cpu=i, tid=i + 1, comm="w", kind="io_write", bytes=i) for i in range(n)]
    lines += [_line(ts=n + i, cpu=0, tid=i + 1, comm="w", kind="syscall_entry",
                    name=f"s{i}") for i in range(n)]
    text = "\n".join(json.dumps(json.loads(line), separators=(",", ":")) for line in lines)
    data = (text + "\n").encode()
    assert read_trace(data) == _slow_outcome(data) == _events_by_json_loads(text)


def _shared_payload():
    return read_trace(_as_bytes(_SHARING_LINES[0]))[0].payload


def _ior(payload):
    payload |= {"bytes": 1}


@pytest.mark.parametrize("mutate", [
    lambda p: p.__setitem__("bytes", 1),
    lambda p: p.__delitem__("bytes"),
    _ior,
    lambda p: p.clear(),
    lambda p: p.pop("bytes"),
    lambda p: p.popitem(),
    lambda p: p.setdefault("x", 1),
    lambda p: p.update(x=1),
], ids=["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault", "update"])
def test_every_mutator_of_a_read_payload_raises(mutate):
    payload = _shared_payload()
    with pytest.raises(TypeError, match="read-only"):
        mutate(payload)
    assert payload == {"bytes": 4096}


@pytest.mark.parametrize("copy_events, plain", [
    (lambda evs: pickle.loads(pickle.dumps(evs)), True),
    (copy.deepcopy, True),
    # asdict rebuilds a dict through its type: an unshared read-only copy
    (lambda evs: [TraceEvent(**dataclasses.asdict(ev)) for ev in evs], False),
], ids=["pickle", "deepcopy", "asdict"])
def test_read_events_copy_to_events_equal_to_plain_ones(copy_events, plain):
    events = random_trace(3, 600, with_spans=True)
    assert all(type(ev.payload) is dict for ev in events)  # caller-built: plain
    text = _trace_text(events)
    read = read_trace(text)
    copied = copy_events(read)
    assert copied == events == _events_by_json_loads(text.decode())
    assert all((type(ev.payload) is dict) == plain for ev in copied)
    assert not any(a.payload is b.payload for a, b in zip(read, copied))


def test_read_trace_holds_a_counter_event_in_few_bytes():
    # about 310 B per event when each event has its own ints and payload dict,
    # about 120 B when they are shared: the event, its ts and a list slot
    events, _ = generate(ScenarioSpec("lock", seed=3, n_spans=50, filler_events=600))
    data = _trace_text(events)
    del events
    tracemalloc.start()
    try:
        read = read_trace(data)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(read) > 30_000
    assert allocated / len(read) <= 140


class _Boom(Exception):
    pass


def _then_boom(evs):
    yield from evs
    raise _Boom


@pytest.fixture(scope="module")
def many_events():
    return random_trace(seed=5, n_events=5000)


@pytest.mark.parametrize("n", [0, 3, 4096, 5000])
def test_failing_events_leave_the_lines_before_in_a_file_object(many_events, n):
    buf, expected = io.StringIO(), io.StringIO()
    with pytest.raises(_Boom):
        write_trace(_then_boom(many_events[:n]), buf)
    _dumps_each(many_events[:n], expected)
    assert buf.getvalue() == expected.getvalue()


@pytest.mark.parametrize("name", ["t.jsonl", "t.jsonl.gz"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failing_events_leave_no_trace_file(tmp_path, many_events, name, existing):
    dest = tmp_path / name
    if existing:
        dest.write_bytes(b"old\n")
    with pytest.raises(_Boom):
        write_trace(_then_boom(many_events), dest)
    assert sorted(p.name for p in tmp_path.iterdir()) == ([name] if existing else [])
    if existing:
        assert dest.read_bytes() == b"old\n"


def _span_ev(ts, tid, kind, span_id, cpu=0):
    return TraceEvent(ts, cpu, tid, f"w{tid}", kind, {"span_id": span_id})


def test_single_span_pair():
    events = [
        _span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
        _span_ev(100, 5, EventKind.SPAN_END, "a"),
    ]
    got = extract_spans(events)
    assert len(got.spans) == 1 and not got.open_spans
    span = got.spans[0]
    assert (span.span_id, span.root_tid, span.t_start, span.t_end) == ("a", 5, 0, 100)


def test_interleaved_span_ids():
    events = [
        _span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
        _span_ev(10, 6, EventKind.SPAN_BEGIN, "b"),
        _span_ev(20, 5, EventKind.SPAN_END, "a"),
        _span_ev(30, 6, EventKind.SPAN_END, "b"),
    ]
    got = extract_spans(events)
    assert [(s.span_id, s.root_tid, s.t_start, s.t_end) for s in got.spans] == \
        [("a", 5, 0, 20), ("b", 6, 10, 30)]


def test_extracted_span_is_the_constructed_frozen_span():
    span = extract_spans([_span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
                          _span_ev(100, 5, EventKind.SPAN_END, "a")]).spans[0]
    built = ExecutionSpan("a", 5, 0, 100)
    assert type(span) is ExecutionSpan
    assert span == built and hash(span) == hash(built) and repr(span) == repr(built)
    assert vars(span) == vars(built) and span.duration_ns == 100
    assert pickle.loads(pickle.dumps(span)) == built
    with pytest.raises(dataclasses.FrozenInstanceError):
        span.t_end = 200
    with pytest.raises(EmptySpan, match=r"span 'b' ends at ts=7, not after its begin"):
        extract_spans([_span_ev(7, 5, EventKind.SPAN_BEGIN, "b"),
                       _span_ev(7, 5, EventKind.SPAN_END, "b")])


def test_end_without_begin_raises():
    with pytest.raises(UnmatchedEnd):
        extract_spans([_span_ev(5, 1, EventKind.SPAN_END, "zz")])


def test_reopened_span_id_raises():
    events = [
        _span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
        _span_ev(10, 5, EventKind.SPAN_BEGIN, "a"),
    ]
    with pytest.raises(OverlappingSpan):
        extract_spans(events)


def test_unmatched_begin_reported_open():
    events = [
        _span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
        _span_ev(10, 6, EventKind.SPAN_BEGIN, "b"),
        _span_ev(20, 5, EventKind.SPAN_END, "a"),
    ]
    got = extract_spans(events)
    assert [s.span_id for s in got.spans] == ["a"]
    assert [(o.span_id, o.root_tid, o.t_start) for o in got.open_spans] == [("b", 6, 10)]


def test_concatenation_equals_union():
    one = [
        _span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
        _span_ev(100, 5, EventKind.SPAN_END, "a"),
    ]
    two = [
        _span_ev(200, 6, EventKind.SPAN_BEGIN, "b"),
        _span_ev(300, 6, EventKind.SPAN_END, "b"),
    ]
    merged = extract_spans(one + two).spans
    parts = extract_spans(one).spans + extract_spans(two).spans
    assert sorted(merged, key=lambda s: s.span_id) == \
        sorted(parts, key=lambda s: s.span_id)


def _checked_marker_stream(evs):
    """evs one at a time, failing the test if anything asks past the end."""
    yield from evs
    raise AssertionError("read past the last event")


def test_extract_spans_of_a_one_shot_iterator_matches_the_list():
    evs = generate(ScenarioSpec("mixed", seed=2, n_spans=10))[0]
    assert extract_spans(iter(evs)) == extract_spans(evs)


def test_extract_spans_stops_at_the_first_bad_marker():
    # an iterator copied into a list first would be read past the error
    evs = [_span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
           _span_ev(10, 5, EventKind.SPAN_BEGIN, "a")]
    with pytest.raises(OverlappingSpan):
        extract_spans(_checked_marker_stream(evs))


def test_span_reopened_after_its_end_is_open_once():
    events = [
        _span_ev(0, 5, EventKind.SPAN_BEGIN, "a"),
        _span_ev(10, 5, EventKind.SPAN_END, "a"),
        _span_ev(20, 6, EventKind.SPAN_BEGIN, "a"),
    ]
    got = extract_spans(events)
    assert [(s.span_id, s.t_start, s.t_end) for s in got.spans] == [("a", 0, 10)]
    assert got.open_spans == [OpenSpan("a", 6, 20)]
