"""Independent reference implementations used to verify the analysis paths.

These avoid the package's query and graph machinery: range queries scan
every stored interval; graph weights accumulate into a plain dict; the
k-means reference runs a textbook Lloyd iteration.
"""

from __future__ import annotations

import random

from waitgraph.states import BlockReason, StateDatabase, StateKind, StateValue


def linear_query_range(db: StateDatabase, key: str, t_a: int, t_b: int) -> list[StateValue]:
    """Naive scan of every state value in the database."""
    hits = []
    for k in db.keys():
        for sv in db.intervals(k):
            if sv.key != key:
                continue
            if sv.end > t_a and sv.start < t_b:
                s, e = max(sv.start, t_a), min(sv.end, t_b)
                hits.append(StateValue(s, e, sv.key, sv.value))
    hits.sort(key=lambda sv: sv.start)
    return hits


def value_at(db: StateDatabase, key: str, t: int) -> object | None:
    """The value of the key's interval holding instant t, or None, by a scan."""
    for sv in db.intervals(key):
        if sv.start <= t < sv.end:
            return sv.value
    return None


def thread_tids(db: StateDatabase) -> list[int]:
    """The sorted tids that have a thread/{tid}/state key."""
    return sorted(int(key.split("/")[1]) for key in db.keys()
                  if key.startswith("thread/") and key.endswith("/state"))


def _clip_scan(db: StateDatabase, key: str, t_a: int, t_b: int) -> list[StateValue]:
    out = []
    for sv in db.intervals(key):
        if sv.end > t_a and sv.start < t_b:
            out.append(StateValue(max(sv.start, t_a), min(sv.end, t_b),
                                  sv.key, sv.value))
    return out


def _union_total(ivs: list[StateValue]) -> int:
    """Covered nanoseconds with overlapping intervals merged."""
    total = 0
    cur_s = cur_e = None
    for iv in sorted(ivs, key=lambda sv: sv.start):
        if cur_e is None:
            cur_s, cur_e = iv.start, iv.end
        elif iv.start <= cur_e:
            cur_e = max(cur_e, iv.end)
        else:
            total += cur_e - cur_s
            cur_s, cur_e = iv.start, iv.end
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def brute_force_edge_weights(db: StateDatabase, root_tid: int, ts_s: int,
                             ts_e: int, max_depth: int = 16) -> dict[tuple, int]:
    """Direct attribution of every blocked/runnable interval into a dict of
    (src, dst) -> waited ns, following the same walk discipline as the
    builder (episode order, visited windows, cycle and depth guards)."""
    weights: dict[tuple, int] = {}
    visited = {(root_tid, ts_s, ts_e)}
    stack = [root_tid]

    def thread_id(tid: int) -> tuple:
        return ("thread", tid, db.comm(tid))

    def add(src: tuple, dst: tuple, w: int) -> None:
        weights[(src, dst)] = weights.get((src, dst), 0) + w

    def syscall_at(tid: int, t: int) -> str | None:
        for sv in db.intervals(f"thread/{tid}/syscall"):
            if sv.start <= t < sv.end:
                return sv.value
        return None

    def last_cpu(tid: int, t: int) -> int | None:
        best = None
        for sv in db.intervals(f"thread/{tid}/cpu"):
            if sv.start < t:
                best = sv.value
            else:
                break
        return best

    def disk_usage(t_a: int, t_b: int) -> dict[int, list[StateValue]]:
        usage: dict[int, list[StateValue]] = {}
        for key in db.keys():
            if key.startswith("disk/"):
                for sv in _clip_scan(db, key, t_a, t_b):
                    usage.setdefault(int(sv.value), []).append(sv)
        for ivs in usage.values():
            ivs.sort(key=lambda sv: sv.start)
        return usage

    def cpu_usage(cpu: int, t_a: int, t_b: int) -> dict[int, list[StateValue]]:
        usage: dict[int, list[StateValue]] = {}
        for sv in _clip_scan(db, f"cpu/{cpu}/current_tid", t_a, t_b):
            usage.setdefault(int(sv.value), []).append(sv)
        return usage

    def recurse(tid: int, ws: int, we: int, depth: int) -> None:
        if we <= ws:
            return
        if tid in stack:
            return
        key = (tid, ws, we)
        if key in visited:
            return
        if depth + 1 > max_depth:
            return
        visited.add(key)
        stack.append(tid)
        walk(tid, ws, we, depth + 1)
        stack.pop()

    def walk(tid: int, a: int, b: int, depth: int) -> None:
        me = thread_id(tid)
        episodes = sorted(_clip_scan(db, f"thread/{tid}/state", a, b),
                          key=lambda sv: sv.start)
        for sv in episodes:
            st = sv.value
            dur = sv.end - sv.start
            if dur <= 0 or st.kind in (StateKind.RUNNING, StateKind.INTERRUPTED):
                continue
            ctx = syscall_at(tid, sv.start)
            if st.kind is StateKind.BLOCKED:
                if st.reason in (BlockReason.TASK, BlockReason.FUTEX) \
                        and st.waker_tid is not None:
                    waker = thread_id(st.waker_tid)
                    if ctx is not None:
                        sid = ("syscall", tid, ctx)
                        add(me, sid, dur)
                        add(sid, waker, dur)
                    else:
                        add(me, waker, dur)
                    recurse(st.waker_tid, sv.start, sv.end, depth)
                elif st.reason is BlockReason.DISK:
                    disk = ("resource", "DISK")
                    if ctx is not None:
                        sid = ("syscall", tid, ctx)
                        add(me, sid, dur)
                        add(sid, disk, dur)
                    else:
                        add(me, disk, dur)
                    usage = disk_usage(sv.start, sv.end)
                    usage.pop(tid, None)
                    for utid in sorted(usage):
                        ivs = usage[utid]
                        overlap = _union_total(ivs)
                        if overlap <= 0:
                            continue
                        add(disk, thread_id(utid), overlap)
                        recurse(utid, ivs[0].start, ivs[-1].end, depth)
            elif st.kind is StateKind.RUNNABLE:
                cpu_node = ("resource", "CPU")
                if ctx is not None:
                    sid = ("syscall", tid, ctx)
                    add(me, sid, dur)
                    add(sid, cpu_node, dur)
                else:
                    add(me, cpu_node, dur)
                cpu = last_cpu(tid, sv.start)
                if cpu is None:
                    continue
                usage = cpu_usage(cpu, sv.start, sv.end)
                usage.pop(tid, None)
                for utid in sorted(usage):
                    ivs = usage[utid]
                    overlap = _union_total(ivs)
                    if overlap <= 0:
                        continue
                    add(cpu_node, thread_id(utid), overlap)
                    recurse(utid, ivs[0].start, ivs[-1].end, depth)

    walk(root_tid, ts_s, ts_e, 0)
    return weights


def scan_span_features(events, span) -> dict[str, float]:
    """Re-derive one span's features straight from the raw events, tracking
    only the root thread's transitions (independent of StateDatabase)."""
    from waitgraph.events import EventKind

    tid = span.root_tid
    s, e = span.t_start, span.t_end
    state = None          # (name, since_ts); blocked carries a pending reason
    episodes: list[tuple[str, int, int]] = []
    cpu_cur: dict[int, int] = {}
    softirq_vec: dict[int, list[int]] = {}
    irq_depth: dict[int, int] = {}
    sys_stack: list[str] = []
    counters = {"page_faults": 0.0, "bytes_read": 0.0, "bytes_written": 0.0}
    softirq_reason = {1: "timer", 2: "network", 3: "network", 4: "disk"}

    def close(ts, new_name):
        nonlocal state
        if state is not None:
            name, since = state
            if ts > since:
                episodes.append((name, since, ts))
        state = (new_name, ts) if new_name else None

    for ev in events:
        k = ev.kind
        if k is EventKind.SCHED_SWITCH:
            prev, nxt = ev.payload["prev_tid"], ev.payload["next_tid"]
            if prev == tid:
                close(ev.ts, "blocked?" if ev.payload["prev_state"] == "blocked"
                      else "cpu")
            if nxt == tid:
                close(ev.ts, "running")
            cpu_cur[ev.cpu] = nxt
        elif k is EventKind.SCHED_WAKEUP and ev.payload["wakee_tid"] == tid:
            if state and state[0] == "blocked?":
                ctx = ev.payload["waker_context"]
                if ctx == "task":
                    reason = "futex" if (sys_stack and "futex" in sys_stack[-1]) \
                        else "task"
                elif ctx == "hrtimer":
                    reason = "timer"
                elif ctx == "softirq":
                    vecs = softirq_vec.get(ev.cpu) or []
                    reason = softirq_reason.get(vecs[-1], "other") if vecs else "other"
                else:
                    reason = "other"
                name, since = state
                state = (reason, since)
                close(ev.ts, "cpu")
        elif k in (EventKind.IRQ_ENTRY, EventKind.SOFTIRQ_ENTRY,
                   EventKind.HRTIMER_EXPIRE_ENTRY):
            if k is EventKind.SOFTIRQ_ENTRY:
                softirq_vec.setdefault(ev.cpu, []).append(ev.payload["vec"])
            depth = irq_depth.get(ev.cpu, 0)
            irq_depth[ev.cpu] = depth + 1
            if depth == 0 and cpu_cur.get(ev.cpu) == tid and state \
                    and state[0] == "running":
                close(ev.ts, "interrupt")
        elif k in (EventKind.IRQ_EXIT, EventKind.SOFTIRQ_EXIT,
                   EventKind.HRTIMER_EXPIRE_EXIT):
            if k is EventKind.SOFTIRQ_EXIT:
                softirq_vec.get(ev.cpu, [0]).pop()
            irq_depth[ev.cpu] = irq_depth.get(ev.cpu, 1) - 1
            if irq_depth[ev.cpu] == 0 and cpu_cur.get(ev.cpu) == tid and state \
                    and state[0] == "interrupt":
                close(ev.ts, "running")
        elif ev.tid == tid:
            if k is EventKind.SYSCALL_ENTRY:
                sys_stack.append(ev.payload["name"])
            elif k is EventKind.SYSCALL_EXIT and sys_stack:
                sys_stack.pop()
            elif s <= ev.ts < e:
                if k is EventKind.PAGE_FAULT:
                    counters["page_faults"] += 1
                elif k is EventKind.IO_READ:
                    counters["bytes_read"] += ev.payload["bytes"]
                elif k is EventKind.IO_WRITE:
                    counters["bytes_written"] += ev.payload["bytes"]
    if state is not None:
        close(max(ev.ts for ev in events), None)

    out = {"disk": [0, 0], "cpu": [0, 0], "futex": [0, 0], "task": [0, 0],
           "interrupt": [0, 0], "timer": [0, 0]}
    for name, since, until in episodes:
        a, b = max(since, s), min(until, e)
        if b <= a or name not in out:
            continue
        out[name][0] += 1
        out[name][1] += b - a
    feats = {
        "blocked_disk_count": out["disk"][0], "blocked_disk_us": out["disk"][1] / 1000,
        "cpu_wait_count": out["cpu"][0], "cpu_wait_us": out["cpu"][1] / 1000,
        "blocked_futex_count": out["futex"][0], "blocked_futex_us": out["futex"][1] / 1000,
        "blocked_task_count": out["task"][0], "blocked_task_us": out["task"][1] / 1000,
        "interrupted_count": out["interrupt"][0], "interrupted_us": out["interrupt"][1] / 1000,
        "blocked_timer_count": out["timer"][0], "blocked_timer_us": out["timer"][1] / 1000,
        "total_us": (e - s) / 1000,
    }
    feats.update(counters)
    return feats


def counter_lines_by_scan(events, t_a: int, t_b: int) -> list[str]:
    """The `inspect` lines of every cumulative counter clipped to [t_a, t_b),
    re-derived from the raw events.

    A counter steps at each distinct timestamp with a non-zero bump below
    the last event's timestamp and holds the sum of all bumps up to that
    instant until its next step, or until the last event.
    """
    from waitgraph.events import EventKind

    names = {EventKind.PAGE_FAULT: "pagefaults", EventKind.IO_READ: "bytes_read",
             EventKind.IO_WRITE: "bytes_written"}
    t_max = max(ev.ts for ev in events)
    bumps: dict[str, list[tuple[int, int]]] = {}
    for ev in events:
        if ev.kind in names:
            n = 1 if ev.kind is EventKind.PAGE_FAULT else ev.payload["bytes"]
            bumps.setdefault(f"thread/{ev.tid}/{names[ev.kind]}", []).append((ev.ts, n))
    lines = []
    for key in sorted(bumps):
        stamps = sorted({ts for ts, n in bumps[key] if n and ts < t_max})
        for start, end in zip(stamps, stamps[1:] + [t_max]):
            total = sum(n for ts, n in bumps[key] if ts <= start)
            s, e = max(start, t_a), min(end, t_b)
            if s < e:
                lines.append(f"{key}\t[{s}, {e})\t{total}")
    return lines


def lloyd_reference(points, k: int, seed: int, max_iter: int = 100):
    """Textbook Lloyd iteration with the same farthest-point seeding."""
    n = len(points)
    rng = random.Random(seed)
    centroids = [list(points[rng.randrange(n)])]
    while len(centroids) < k:
        best_i, best_d = 0, -1.0
        for i, p in enumerate(points):
            d = min(sum((x - y) ** 2 for x, y in zip(p, c)) for c in centroids)
            if d > best_d:
                best_i, best_d = i, d
        centroids.append(list(points[best_i]))

    def nearest(p):
        dists = [sum((x - y) ** 2 for x, y in zip(p, c)) for c in centroids]
        return dists.index(min(dists))

    seen = []
    assign = []
    for _ in range(max_iter):
        assign = [nearest(p) for p in points]
        sizes = [assign.count(c) for c in range(k)]
        for c in range(k):
            if sizes[c]:
                continue
            best_i, best_d = -1, -1.0
            for i, p in enumerate(points):
                if sizes[assign[i]] <= 1:
                    continue
                d = sum((x - y) ** 2 for x, y in zip(p, centroids[assign[i]]))
                if d > best_d:
                    best_i, best_d = i, d
            sizes[assign[best_i]] -= 1
            assign[best_i] = c
            sizes[c] = 1
        if assign in seen:  # a fixed point, or a cycle of repairs
            break
        seen.append(assign)
        dims = len(points[0])
        centroids = []
        for c in range(k):
            members = [points[i] for i in range(n) if assign[i] == c]
            centroids.append([sum(m[d] for m in members) / len(members)
                              for d in range(dims)])
    return assign


def objective(points, assign, k: int) -> float:
    """Sum of squared distances of points to their cluster means."""
    total = 0.0
    dims = len(points[0])
    for c in range(k):
        members = [points[i] for i in range(len(points)) if assign[i] == c]
        if not members:
            continue
        centroid = [sum(m[d] for m in members) / len(members) for d in range(dims)]
        total += sum(sum((x - y) ** 2 for x, y in zip(p, centroid)) for p in members)
    return total
