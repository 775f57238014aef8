"""Deterministic synthetic traces for the paper's three anomalies.

Four scenarios emit delimited spans on a root thread plus the surrounding
scheduler choreography, with ground-truth labels for every span:

  lock_contention  slow worker spans block inside fcntl behind peer threads
                   holding a shared lock (~91% of the span inside fcntl,
                   ~82% of that blocked on peers, the rest waiting for CPU);
  cpu_contention   a periodic task is preempted by an irq-handler thread
                   occupying its CPU (9 ms slow vs 1 ms normal);
  disk_contention  server spans block in newfstat while a grep-like thread
                   holds ~43% of the disk service time and two kworker-like
                   threads share the rest;
  mixed            spans drawn from all three.

Every span shares one frame (_Gen.open_span / close_span): the root is
switched in from its CPU's filler, the span begins, the scenario's body
runs, the span ends at t0 + its jittered total, the root is switched out
blocked and the ground-truth record is appended.  _TABLE maps each
scenario name to its short name, its timing and the (prologue, span)
emitters its spans are drawn from; the CLI takes its names from there.

Identical (scenario, seed, parameters) produce byte-identical traces.
Timing targets are realized by exact integer partition plus seeded jitter,
so measured shares land within a couple of percent of the targets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import InvalidParameter
from .events import EventKind, TraceEvent, atomic_write_text, json_text, write_trace
from .states import SOFTIRQ_BLOCK


@dataclass
class ScenarioSpec:
    scenario: str
    seed: int = 0
    n_spans: int = 20
    slow_fraction: float = 0.5
    workers: int = 3                  # peer threads contending for the lock
    fast_us: float | None = None      # override the fast-span duration
    slowdown: float | None = None     # slow = fast * slowdown
    filler_events: int = 24           # counter events per span while running
    jitter: float = 0.015

    def __post_init__(self):
        self.scenario = _ALIASES.get(self.scenario, self.scenario)
        if self.scenario not in _TABLE:
            raise InvalidParameter(f"unknown scenario {self.scenario!r}")
        if not 0.0 <= self.slow_fraction <= 1.0:
            raise InvalidParameter("slow_fraction must be within [0, 1]")
        if self.n_spans < 1:
            raise InvalidParameter("n_spans must be >= 1")
        if self.workers < 1:
            raise InvalidParameter("workers must be >= 1")
        if self.filler_events < 0:
            raise InvalidParameter("filler_events must be >= 0")
        if not 0.0 <= self.jitter <= 0.05:
            raise InvalidParameter("jitter must be within [0, 0.05]")
        # written so that NaN fails too
        if self.slowdown is not None and not 1.0 < self.slowdown < math.inf:
            raise InvalidParameter("slowdown must be finite and > 1")
        if self.fast_us is not None and not 0 < self.fast_us < math.inf:
            raise InvalidParameter("fast_us must be finite and > 0")
        self._span_ns()

    def _span_ns(self) -> tuple[int, int]:
        """The fast and the slow span duration in ns, before jitter."""
        _, fast, slow, _ = _TABLE[self.scenario]
        ratio = slow / fast
        if self.fast_us is not None:
            fast = self.fast_us * 1000
        if self.slowdown is not None:
            ratio = self.slowdown
        # a jittered slow span lasts up to (1 + jitter) times its target
        if not math.isfinite(fast * ratio * (1.0 + self.jitter)):
            raise InvalidParameter(
                "fast_us * slowdown gives a span duration that is not finite")
        fast = int(fast)
        return fast, int(fast * ratio)


def _split_exact(total: int, n: int) -> list[int]:
    base, rem = divmod(total, n)
    return [base + 1] * rem + [base] * (n - rem)


def _split_jitter(total: int, n: int, rng: random.Random,
                  rel: float = 0.2) -> list[int]:
    """Partition *total* into n jittered parts that sum exactly."""
    if n == 1:
        return [total]
    weights = [1.0 + rng.uniform(-rel, rel) for _ in range(n)]
    scale = total / sum(weights)
    parts = [int(w * scale) for w in weights]
    for i in range(total - sum(parts)):
        parts[i % n] += 1
    return parts


# thread/cpu layout (disjoint across scenarios so "mixed" can combine them)
_BOOT_BASE = 800
_LOCK_CPU, _CPU_CPU, _DISK_CPU = 0, 1, 2
_GREP_CPU, _KW1_CPU, _KW2_CPU = 3, 4, 5
_LOCK_FILLER, _CPU_FILLER, _DISK_FILLER = 900, 901, 902
_CPU_ROOT_TID, _IRQ_TID = 3267, 4001
_GREP_TID, _KW1_TID, _KW2_TID = 9739, 5001, 5002
_IRQ_LINE = 154
_DISK_DEV = "sda"
_LOCK_SYSCALL = "fcntl"
_DISK_SYSCALL = "newfstat"
_IRQ_THREAD = "irq/154-hpd"


def _too_short(spec: ScenarioSpec, detail: str) -> InvalidParameter:
    """A refusal of spans too short for the scenario's plan, at detail's ts=."""
    return InvalidParameter(f"{spec.scenario}: spans too short for the scenario's plan, "
                            f"{detail}; raise fast_us or slowdown")


class _Frame(NamedTuple):
    """An open span: where it runs, and its begin time and jittered total."""
    cpu: int
    filler: int
    root: int
    span_id: str
    slow: bool
    t0: int
    total: int


class _Gen:
    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.now = 1_000
        self.fast_ns, self.slow_ns = spec._span_ns()
        self.comms: dict[int, str] = {}
        self.gt_spans: list[dict] = []

    def ev(self, ts: int, cpu: int, tid: int, kind: EventKind,
           **payload) -> TraceEvent:
        return TraceEvent(ts, cpu, tid, self.comms[tid], kind, payload)

    def register(self, tid: int, comm: str) -> None:
        self.comms[tid] = comm

    def jittered(self, target: int) -> int:
        j = self.spec.jitter
        return max(1, int(target * (1.0 + self.rng.uniform(-j, j))))

    def switch(self, ts: int, cpu: int, prev: int, prev_state: str,
               nxt: int) -> TraceEvent:
        return self.ev(ts, cpu, prev, EventKind.SCHED_SWITCH,
                       prev_tid=prev, prev_state=prev_state, next_tid=nxt)

    def filler(self, out: list[TraceEvent], cpu: int, tid: int,
               start: int, length: int, count: int) -> None:
        """Counter events spread across a running segment (start, start+length)."""
        if count <= 0:
            return
        spacing = length // (count + 1)
        if spacing < 1:
            raise _too_short(self.spec, f"filler_events={count} does not fit the "
                                        f"{length} ns segment at ts={start}")
        kinds = (EventKind.PAGE_FAULT, EventKind.IO_READ, EventKind.IO_WRITE)
        comm = self.comms[tid]
        randint = self.rng.randint
        for i in range(count):
            # page_fault carries no payload; io_read and io_write draw a size
            payload = {"bytes": 1024 * randint(1, 8)} if i % 3 else {}
            out.append(TraceEvent(start + spacing * (i + 1), cpu, tid, comm,
                                  kinds[i % 3], payload))

    def open_span(self, out: list[TraceEvent], cpu: int, filler: int,
                  root: int, span_id: str, slow: bool,
                  lead: int = 2_000) -> _Frame:
        """Draw the span's jittered total, switch root in from its CPU's
        filler, wait the lead gap and begin the span."""
        total = self.jittered(self.slow_ns if slow else self.fast_ns)
        out.append(self.switch(self.now, cpu, filler, "runnable", root))
        self.now += lead
        out.append(self.ev(self.now, cpu, root, EventKind.SPAN_BEGIN,
                           span_id=span_id))
        return _Frame(cpu, filler, root, span_id, slow, self.now, total)

    def close_span(self, out: list[TraceEvent], f: _Frame,
                   idle: tuple[int, int], cause: str,
                   slow_path: list[str]) -> None:
        """End the span at t0 + total, switch the root out blocked, draw
        the idle gap and record the span's ground truth."""
        t_end = f.t0 + f.total
        out.append(self.ev(t_end, f.cpu, f.root, EventKind.SPAN_END,
                           span_id=f.span_id))
        self.now = t_end + 2_000
        out.append(self.switch(self.now, f.cpu, f.root, "blocked", f.filler))
        self.now += self.rng.randint(*idle)
        self.gt_spans.append({
            "span_id": f.span_id, "label": "slow" if f.slow else "fast",
            "injected_cause": cause if f.slow else "none",
            "expected_path": slow_path if f.slow else [self.comms[f.root]],
        })

    # -- lock contention -----------------------------------------------------

    def lock_prologue(self) -> list[TraceEvent]:
        self.register(_BOOT_BASE + _LOCK_CPU, f"swapper/{_LOCK_CPU}")
        self.register(_LOCK_FILLER, f"swapper/{_LOCK_CPU}")
        for k in range(self.spec.workers):
            self.register(20_001 + k, "apache2")
        out = [self.switch(self.now, _LOCK_CPU, _BOOT_BASE + _LOCK_CPU,
                           "runnable", _LOCK_FILLER)]
        self.now += 1_000
        return out

    def lock_span(self, idx: int, span_id: str, slow: bool) -> list[TraceEvent]:
        spec = self.spec
        root = 10_000 + idx
        self.register(root, "apache2")
        peers = [20_001 + k for k in range(spec.workers)]
        out: list[TraceEvent] = []
        f = self.open_span(out, _LOCK_CPU, _LOCK_FILLER, root, span_id, slow)
        t0, total = f.t0, f.total
        if slow:
            # 91% of the span inside the lock syscall; within it 82% blocked
            # on the peer holding the lock and ~17.7% runnable behind it.
            in_sys = round(total * 0.91)
            prefix = round(total * 0.054)
            rounds = spec.workers
            run_in = max(rounds + 1, round(in_sys * 0.003))
            blocked_total = round(in_sys * 0.82)
            runnable_total = in_sys - blocked_total - run_in
            if blocked_total < rounds or runnable_total < rounds:
                raise _too_short(spec, f"the slow span at ts={t0} lasts {total} ns, "
                                       f"too short for {rounds} contention rounds")
            run_slices = _split_exact(run_in, rounds + 1)
            blocks = _split_jitter(blocked_total, rounds, self.rng)
            waits = _split_jitter(runnable_total, rounds, self.rng)
            self.filler(out, _LOCK_CPU, root, t0, prefix, spec.filler_events)
            t = t0 + prefix
            out.append(self.ev(t, _LOCK_CPU, root, EventKind.SYSCALL_ENTRY,
                               name=_LOCK_SYSCALL))
            t += run_slices[0]
            for r in range(rounds):
                peer = peers[r % len(peers)]
                out.append(self.switch(t, _LOCK_CPU, root, "blocked", peer))
                t += blocks[r]
                out.append(self.ev(t, _LOCK_CPU, peer, EventKind.SCHED_WAKEUP,
                                   waker_tid=peer, wakee_tid=root,
                                   waker_context="task"))
                t += waits[r]
                out.append(self.switch(t, _LOCK_CPU, peer, "runnable", root))
                t += run_slices[r + 1]
            out.append(self.ev(t, _LOCK_CPU, root, EventKind.SYSCALL_EXIT,
                               name=_LOCK_SYSCALL))
        else:
            prefix = round(total * 0.90)
            self.filler(out, _LOCK_CPU, root, t0, prefix, spec.filler_events)
            t = t0 + prefix
            out.append(self.ev(t, _LOCK_CPU, root, EventKind.SYSCALL_ENTRY,
                               name="writev"))
            t = t0 + total - 500
            out.append(self.ev(t, _LOCK_CPU, root, EventKind.SYSCALL_EXIT,
                               name="writev"))
        self.close_span(out, f, (50_000, 150_000), "lock_contention",
                        ["apache2", _LOCK_SYSCALL, "apache2#2"])
        return out

    # -- cpu contention -------------------------------------------------------

    def cpu_prologue(self) -> list[TraceEvent]:
        self.register(_BOOT_BASE + _CPU_CPU, f"swapper/{_CPU_CPU}")
        self.register(_CPU_FILLER, f"swapper/{_CPU_CPU}")
        self.register(_CPU_ROOT_TID, "ktimersoftd/3")
        self.register(_IRQ_TID, _IRQ_THREAD)
        out = [self.switch(self.now, _CPU_CPU, _BOOT_BASE + _CPU_CPU,
                           "runnable", _IRQ_TID)]
        self.now += 1_000
        out.append(self.switch(self.now, _CPU_CPU, _IRQ_TID, "blocked",
                               _CPU_FILLER))
        self.now += 1_000
        return out

    def cpu_span(self, idx: int, span_id: str, slow: bool) -> list[TraceEvent]:
        spec = self.spec
        root = _CPU_ROOT_TID
        # periodic activation: a timer wake ends the inter-span sleep
        out = [self.ev(self.now, _CPU_CPU, _CPU_FILLER,
                       EventKind.HRTIMER_EXPIRE_ENTRY)]
        self.now += 500
        out.append(self.ev(self.now, _CPU_CPU, _CPU_FILLER, EventKind.SCHED_WAKEUP,
                           waker_tid=_CPU_FILLER, wakee_tid=root,
                           waker_context="hrtimer"))
        self.now += 500
        out.append(self.ev(self.now, _CPU_CPU, _CPU_FILLER,
                           EventKind.HRTIMER_EXPIRE_EXIT))
        self.now += 1_000
        f = self.open_span(out, _CPU_CPU, _CPU_FILLER, root, span_id, slow,
                           lead=1_000)
        t0, total = f.t0, f.total
        if slow:
            irq_ns = 20_000
            runnable = round(total * 8 / 9)
            running = total - irq_ns - runnable
            if running < 0:
                raise _too_short(spec, f"the slow span at ts={t0} lasts {total} ns, less "
                                       f"than its {irq_ns} ns interrupt and {runnable} ns "
                                       "runnable wait")
            a1 = round(running * 0.45)
            a1b = round(running * 0.05)
            self.filler(out, _CPU_CPU, root, t0, a1, spec.filler_events)
            t = t0 + a1
            out.append(self.ev(t, _CPU_CPU, root, EventKind.IRQ_ENTRY, irq=_IRQ_LINE))
            out.append(self.ev(t + 5_000, _CPU_CPU, root, EventKind.SCHED_WAKEUP,
                               waker_tid=root, wakee_tid=_IRQ_TID,
                               waker_context="irq"))
            t += irq_ns
            out.append(self.ev(t, _CPU_CPU, root, EventKind.IRQ_EXIT, irq=_IRQ_LINE))
            t += a1b
            out.append(self.switch(t, _CPU_CPU, root, "runnable", _IRQ_TID))
            t += runnable
            out.append(self.switch(t, _CPU_CPU, _IRQ_TID, "blocked", root))
        else:
            self.filler(out, _CPU_CPU, root, t0, total, spec.filler_events)
        self.close_span(out, f, (100_000, 300_000), "cpu_contention",
                        ["ktimersoftd/3", "CPU", _IRQ_THREAD])
        return out

    # -- disk contention --------------------------------------------------------

    def disk_prologue(self) -> list[TraceEvent]:
        for cpu, tid, comm in ((_DISK_CPU, _DISK_FILLER, f"swapper/{_DISK_CPU}"),
                               (_GREP_CPU, _GREP_TID, "grep"),
                               (_KW1_CPU, _KW1_TID, "kworker/u8:1"),
                               (_KW2_CPU, _KW2_TID, "kworker/u8:2")):
            self.register(_BOOT_BASE + cpu, f"swapper/{cpu}")
            self.register(tid, comm)
        out = []
        for cpu, tid in ((_DISK_CPU, _DISK_FILLER), (_GREP_CPU, _GREP_TID),
                         (_KW1_CPU, _KW1_TID), (_KW2_CPU, _KW2_TID)):
            out.append(self.switch(self.now, cpu, _BOOT_BASE + cpu, "runnable", tid))
            self.now += 1_000
        return out

    def disk_span(self, idx: int, span_id: str, slow: bool) -> list[TraceEvent]:
        spec = self.spec
        root = 11_000 + idx
        self.register(root, "apache2")
        out: list[TraceEvent] = []
        f = self.open_span(out, _DISK_CPU, _DISK_FILLER, root, span_id, slow)
        t0, total = f.t0, f.total
        if slow:
            in_sys = round(total * 0.90)
            prefix = round(total * 0.05)
            eps = max(1_000, round(in_sys * 0.004))
            self.filler(out, _DISK_CPU, root, t0, prefix, spec.filler_events)
            t1 = t0 + prefix
            out.append(self.ev(t1, _DISK_CPU, root, EventKind.SYSCALL_ENTRY,
                               name=_DISK_SYSCALL))
            tb = t1 + eps
            out.append(self.switch(tb, _DISK_CPU, root, "blocked", _DISK_FILLER))
            tw = t1 + in_sys - eps
            self._disk_traffic(out, tb, tw, in_sys)
            out.append(self.ev(tw - 1_000, _DISK_CPU, _DISK_FILLER,
                               EventKind.SOFTIRQ_ENTRY, vec=SOFTIRQ_BLOCK))
            out.append(self.ev(tw, _DISK_CPU, _DISK_FILLER, EventKind.SCHED_WAKEUP,
                               waker_tid=_DISK_FILLER, wakee_tid=root,
                               waker_context="softirq"))
            out.append(self.ev(tw, _DISK_CPU, _DISK_FILLER,
                               EventKind.SOFTIRQ_EXIT, vec=SOFTIRQ_BLOCK))
            out.append(self.switch(tw, _DISK_CPU, _DISK_FILLER, "runnable", root))
            t2 = t1 + in_sys
            out.append(self.ev(t2, _DISK_CPU, root, EventKind.SYSCALL_EXIT,
                               name=_DISK_SYSCALL))
        else:
            prefix = round(total * 0.45)
            self.filler(out, _DISK_CPU, root, t0, prefix, spec.filler_events)
            t = t0 + prefix
            out.append(self.ev(t, _DISK_CPU, root, EventKind.SYSCALL_ENTRY,
                               name=_DISK_SYSCALL))
            t += round(total * 0.10)
            out.append(self.ev(t, _DISK_CPU, root, EventKind.SYSCALL_EXIT,
                               name=_DISK_SYSCALL))
        self.close_span(out, f, (50_000, 150_000), "disk_contention",
                        ["apache2", _DISK_SYSCALL, "DISK", "grep"])
        return out

    def _disk_traffic(self, out: list[TraceEvent], tb: int, tw: int,
                      in_sys: int) -> None:
        """Sequential disk requests inside the blocked window: the grep
        thread holds 43% of the syscall wall, two kworkers share the rest."""
        window = (tw - 1_000) - tb
        grep_total = round(in_sys * 0.43)
        idle_total = max(0, round(in_sys * 0.02))
        kw_total = window - grep_total - idle_total
        if kw_total < 2:
            raise _too_short(self.spec, f"the disk wait at ts={tb} leaves {kw_total} ns "
                                        "for the kworkers' requests")
        grep_chunks = _split_jitter(grep_total, 4, self.rng)
        kw1_chunks = _split_jitter(kw_total // 2, 2, self.rng)
        kw2_chunks = _split_jitter(kw_total - kw_total // 2, 2, self.rng)
        order = [(_GREP_TID, _GREP_CPU, grep_chunks[0]),
                 (_KW1_TID, _KW1_CPU, kw1_chunks[0]),
                 (_GREP_TID, _GREP_CPU, grep_chunks[1]),
                 (_KW2_TID, _KW2_CPU, kw2_chunks[0]),
                 (_GREP_TID, _GREP_CPU, grep_chunks[2]),
                 (_KW1_TID, _KW1_CPU, kw1_chunks[1]),
                 (_GREP_TID, _GREP_CPU, grep_chunks[3]),
                 (_KW2_TID, _KW2_CPU, kw2_chunks[1])]
        gaps = _split_exact(idle_total, len(order))
        t = tb
        for (tid, cpu, dur), gap in zip(order, gaps):
            t += gap
            out.append(self.ev(t, cpu, tid, EventKind.BLOCK_RQ_ISSUE,
                               dev=_DISK_DEV))
            t += dur
            out.append(self.ev(t, cpu, tid, EventKind.BLOCK_RQ_COMPLETE,
                               dev=_DISK_DEV))


_LOCK = (_Gen.lock_prologue, _Gen.lock_span)
_CPU = (_Gen.cpu_prologue, _Gen.cpu_span)
_DISK = (_Gen.disk_prologue, _Gen.disk_span)

# scenario -> (short name, fast and slow span ns before jitter, the
# (prologue, span) emitters its spans are drawn from, prologues in order)
_TABLE = {
    "lock_contention": ("lock", 2_815_000, 40_148_000, (_LOCK,)),
    "cpu_contention": ("cpu", 1_000_000, 9_000_000, (_CPU,)),
    "disk_contention": ("disk", 3_000_000, 30_000_000, (_DISK,)),
    "mixed": ("mixed", 2_815_000, 40_148_000, (_LOCK, _CPU, _DISK)),
}
SCENARIOS = tuple(_TABLE)
_ALIASES = {row[0]: name for name, row in _TABLE.items()}
# what --scenario accepts: the short names, then the long ones
SCENARIO_NAMES = tuple(dict.fromkeys([*_ALIASES, *SCENARIOS]))


def _last_ts(spec: ScenarioSpec, events: list[TraceEvent], last: int) -> int:
    """The events' last timestamp; InvalidParameter if one goes back in time."""
    for ev in events:
        if ev.ts < last:
            raise _too_short(spec, f"an event at ts={ev.ts} would follow one at ts={last}")
        last = ev.ts
    return last


def iter_events(spec: ScenarioSpec, gt_out: list[dict] | None = None) -> Iterator[TraceEvent]:
    """Stream the scenario's events; ground-truth records accumulate into
    gt_out (one per span, in emission order).  Raises InvalidParameter at
    the first span too short for its plan: one whose events go back in time."""
    gen = _Gen(spec)
    *_, emitters = _TABLE[spec.scenario]
    last = 0
    for prologue, _ in emitters:
        out = prologue(gen)
        last = _last_ts(spec, out, last)
        yield from out
    for i in range(spec.n_spans):
        _, emit = emitters[gen.rng.randrange(len(emitters))] \
            if len(emitters) > 1 else emitters[0]
        slow = gen.rng.random() < spec.slow_fraction
        out = emit(gen, i, f"s{i:04d}", slow)
        last = _last_ts(spec, out, last)
        yield from out
    if gt_out is not None:
        gt_out.extend(gen.gt_spans)


def ground_truth_dict(spec: ScenarioSpec, gt_spans: list[dict]) -> dict:
    return {"scenario": spec.scenario, "seed": spec.seed,
            "n_spans": spec.n_spans, "spans": gt_spans}


def generate(spec: ScenarioSpec) -> tuple[list[TraceEvent], dict]:
    """Materialize the trace and its ground truth."""
    gt: list[dict] = []
    events = list(iter_events(spec, gt))
    return events, ground_truth_dict(spec, gt)


def generate_files(spec: ScenarioSpec, trace_path: str | Path,
                   ground_truth_path: str | Path) -> None:
    """Stream the trace to disk (gzipped when its path ends in .gz) and
    write the ground-truth JSON; each file is replaced atomically."""
    gt: list[dict] = []
    write_trace(iter_events(spec, gt), trace_path)
    atomic_write_text(ground_truth_path, json_text(ground_truth_dict(spec, gt)))
