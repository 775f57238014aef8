from __future__ import annotations

import gc
import gzip
import io
import json
import os
import threading
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waitgraph import events as events_mod
from waitgraph.errors import (
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
    OpenSpan,
    TraceEvent,
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


# -- canonical counter lines take a regex path with the JSON path's results ----

def _outcome(data: bytes):
    """read_trace's events, or the class and text of the error it raised."""
    try:
        return read_trace(data)
    except InputError as exc:
        return type(exc), str(exc)


def _slow_outcome(data: bytes):
    with mock.patch.object(events_mod, "_match_counter_line", lambda line: None):
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


@pytest.mark.parametrize("line, fast", [
    (_COUNTER, True),
    ('{"ts":5,"cpu":1,"tid":7,"comm":"w","kind":"page_fault"}\n', True),
    (_COUNTER.replace("io_read", "io_write"), True),
    (_COUNTER.replace('"ts":5', '"ts":0').replace('"bytes":8', '"bytes":0'), True),
    (_COUNTER.replace('"ts":5', '"ts":05'), False),
    (_COUNTER.replace('"ts":5', '"ts":' + "9" * 18), True),
    (_COUNTER.replace('"ts":5', '"ts":' + "9" * 19), False),
    (_COUNTER.replace('"bytes":8', '"bytes":' + "1" * 19), False),
    (_COUNTER.replace('"ts":5', '"ts":-0'), False),
    (_COUNTER.replace('"ts":5', '"ts":5.0'), False),
    (_COUNTER.replace('"tid":7', '"tid":0'), False),
    (_COUNTER.replace('"comm":"w"', '"comm":"w\\u0041"'), False),
    (_COUNTER.replace('"comm":"w"', '"comm":"w\\\\"'), False),
    (_COUNTER.replace('"comm":"w"', '"comm":"w\\"x"'), False),
    (_COUNTER.replace('"comm":"w"', '"comm":"w\tx"'), False),
    (_COUNTER.replace('"comm":"w"', '"comm":""'), False),
    (_COUNTER.replace('"comm":"w"', '"comm":"kworker/ü:線"'), True),
    (_COUNTER.replace('"comm":"w"', '"comm":"w\x7f"'), True),
    (_COUNTER.replace("io_read", "page_fault"), False),
    (_COUNTER.replace(',"bytes":8', ""), False),
    (_COUNTER.replace("}", ',"vendor":1}'), False),
    (_COUNTER.replace('"ts":5,"cpu":1', '"cpu":1,"ts":5'), False),
    (_COUNTER.replace(",", ", "), False),
    (_COUNTER.replace("}", "} "), False),
    (_COUNTER[:-1], False),
    # the text layer hands the line over with its ending translated to "\n"
    (_COUNTER.replace("\n", "\r\n"), True),
], ids=["io_read", "page_fault", "io_write", "zeros", "leading_zero", "18_digits",
        "19_digits", "19_digit_bytes", "minus_zero", "float", "tid_0",
        "escape_u", "escaped_backslash", "escaped_quote", "control_char",
        "empty_comm", "non_ascii_comm", "del_char", "page_fault_with_bytes",
        "io_read_without_bytes", "extra_key", "swapped_keys", "spaces",
        "trailing_blank", "no_final_newline", "crlf"])
def test_which_lines_take_the_counter_path(line, fast):
    taken = []

    def spy(text):
        m = match(text)
        taken.append(m is not None)
        return m
    match = events_mod._match_counter_line
    data = line.encode()
    with mock.patch.object(events_mod, "_match_counter_line", spy):
        got = _outcome(data)
    assert taken == [fast]
    assert got == _slow_outcome(data)


# mostly values the counter path takes; 0 (no valid tid) and the 18/19-digit edge
_digits = st.one_of(st.integers(1, 10 ** 6),
                    st.sampled_from([0, 10 ** 17, 10 ** 18 - 1, 10 ** 18, 10 ** 19]))
# names, and text rich in what JSON escapes or the counter path refuses
_comms = st.one_of(st.sampled_from(["apache2", "kworker/0:1", "w"]),
                   st.text('aZ0/: é線"\\\x00\t\x1f\x7f', max_size=5),
                   st.text(max_size=6))


@st.composite
def _counter_records(draw) -> dict:
    """A counter record with its keys in write_trace's order."""
    rec = {"ts": draw(_digits), "cpu": draw(_digits), "tid": draw(_digits),
           "comm": draw(_comms),
           "kind": draw(st.sampled_from(["page_fault", "io_read", "io_write"]))}
    if rec["kind"] != "page_fault":
        rec["bytes"] = draw(_digits)
    return rec


def _canonical_lines(records) -> bytes:
    return "".join(json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n"
                   for rec in records).encode()


@given(records=st.lists(_counter_records(), min_size=1, max_size=4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_canonical_counter_lines_read_the_same_on_both_paths(records):
    _assert_both_paths_agree(_canonical_lines(records))


@given(records=st.lists(_counter_records(), min_size=1, max_size=3), data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_mutated_counter_lines_fail_alike_on_both_paths(records, data):
    text = bytearray(_canonical_lines(records))
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
    _assert_both_paths_agree(bytes(text))


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
