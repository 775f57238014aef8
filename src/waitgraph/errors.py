"""Exception types shared across the toolkit."""

from __future__ import annotations


class TraceAnalysisError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TraceAnalysisError):
    """Base class for bad input: a trace record, a span delimiter or a parameter."""


class MalformedRecord(InputError):
    """A trace line could not be parsed or fails field validation."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownEventKind(InputError):
    def __init__(self, line: int, kind: str):
        super().__init__(f"line {line}: unknown event kind {kind!r}")
        self.line = line
        self.kind = kind


class NonMonotonicTimestamp(InputError):
    def __init__(self, line: int, ts: int, prev_ts: int):
        super().__init__(f"line {line}: timestamp {ts} < previous {prev_ts}")
        self.line = line
        self.ts = ts
        self.prev_ts = prev_ts


class NestingViolation(InputError):
    """Entry/exit events of one family do not nest (exit without entry, or
    mismatched exit): syscalls per thread, interrupts per CPU, block
    requests per device."""


class SwitchConflict(InputError):
    """A context switch contradicts the recorded CPU occupancy (two threads
    running on one CPU, or one thread running on two)."""


class UnmatchedEnd(InputError):
    """A span end delimiter was seen with no matching open begin."""


class OverlappingSpan(InputError):
    """A span begin delimiter re-opened a span id that is still open."""


class EmptySpan(InputError):
    """A span ends at or before the timestamp it began at."""


class RootConflict(TraceAnalysisError):
    """``representative`` was given graphs with different roots (one
    cluster mixes spans whose root threads differ)."""


class TooFewSpans(InputError):
    """k-means was asked for more clusters than there are points."""


class EmptyCluster(TraceAnalysisError):
    """A representative graph was requested for an empty cluster."""


class InvalidParameter(InputError):
    """A scenario or CLI parameter is outside its allowed range."""
