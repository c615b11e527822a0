"""Spans recorded from the benchmark's side of each call into bandpos.

Every workload operation runs its bandpos calls through a tracer.  The
untraced tracer only forwards the call; the recording tracer keeps one span
per call (name, start, end, parent, operation id) in memory and writes them
out once, when the run ends.

A composite call such as ``classify_positivity`` hides its inner calls from
the benchmark.  Where the split inside it matters, the operation replays the
inner public calls on the same input after the composite returns, as replay
spans whose parent is the composite.  A span's self time is its duration
minus the durations of its direct children, replays included, so the
composite keeps only the time its replayed parts do not explain.  Replays
are extra work: the ``replaying()`` region that holds them, loop overhead
included, is left out of the operation's wall time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    replay: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


REPLAY_REGION = "replaying"


class NullTracer:
    """Forwards calls untimed; replays and self-checks are skipped."""

    tracing = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records a span around each call made through it."""

    tracing = True

    def __init__(self):
        self.spans: list[Span] = []
        self.self_check_failures: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [self._open("op", None, False)]

    def end_op(self) -> None:
        self._close(self._stack.pop())

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name, self._stack[-1], False)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._close(idx)

    def last(self, name: str) -> int:
        """Index of the most recent span of this name in the current op."""
        for idx in range(len(self.spans) - 1, -1, -1):
            span = self.spans[idx]
            if span.op != self._op:
                break
            if span.name == name:
                return idx
        raise KeyError(name)

    @contextmanager
    def replaying(self):
        """Region holding an operation's replays; its time is not the op's."""
        idx = self._open(REPLAY_REGION, self._stack[-1], True)
        try:
            yield
        finally:
            self._close(idx)

    def replay(self, parent: int, name, fn, *args, **kwargs):
        """Run a public call again as a replay child of span ``parent``."""
        idx = self._open(name, parent, True)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._close(idx)

    def self_check(self, ok: bool, message: str) -> None:
        if not ok:
            self.self_check_failures.append(f"op {self._op}: {message}")

    def _open(self, name, parent, replay) -> int:
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op, replay))
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()

    def write(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "replay": s.replay,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def summarize(spans: list[Span], span_names) -> tuple[dict, float, int]:
    """Per-span calls, median self ms per operation and share of wall time.

    Returns (stats, total op wall seconds, op count).  The median self time
    is taken over the operations that call the span at least once; a span no
    operation calls reports zero calls, time and share.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    op_wall: dict[int, float] = {}
    replay_time = defaultdict(float)
    self_by_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(int)
    for idx, span in enumerate(spans):
        if span.name == "op":
            op_wall[span.op] = span.duration
            continue
        if span.name == REPLAY_REGION:
            replay_time[span.op] += span.duration
            continue
        calls[span.name] += 1
        self_s = max(span.duration - child_time[idx], 0.0)
        self_by_op[span.name][span.op] += self_s
    for op in op_wall:
        op_wall[op] -= replay_time[op]
    total_wall = sum(op_wall.values())
    stats = {}
    for name in span_names:
        per_op = self_by_op.get(name, {})
        stats[name] = {
            "calls": calls.get(name, 0),
            "self_ms": statistics.median(per_op.values()) * 1e3 if per_op else 0.0,
            "share": sum(per_op.values()) / total_wall if total_wall > 0 else 0.0,
        }
    return stats, total_wall, len(op_wall)
