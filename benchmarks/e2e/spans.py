"""The harness's own in-memory span recorder.

Spans are recorded around calls into a layer, from outside it: name,
layer, start, end, the span that caused it, and an identifier shared by
all spans of one rep or job.  They stay in memory and are written once,
as Chrome-trace JSON, when the benchmark ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so the self times of a tree add up to the duration of
its root and a layer's busy time is the sum of the self times of its
spans.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional

#: Layer of spans that only group other spans (reps, benches, phases):
#: their self time is time no layer accounts for.
HARNESS = "harness"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    trace: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; nesting follows the ``with`` structure per thread."""

    def __init__(self, trace: str = "rep") -> None:
        self.trace = trace
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> Span:
        """Record a finished span from timestamps taken elsewhere."""
        with self._lock:
            span = Span(
                len(self.spans), name, layer, start, end, parent,
                trace or self.trace,
            )
            self.spans.append(span)
        return span

    @contextmanager
    def span(
        self, name: str, layer: str, trace: Optional[str] = None
    ) -> Iterator[Span]:
        """Time the ``with`` body; the yielded span may be relabelled
        (``span.layer = ...``) once the body knows what it did."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = self.add(
            name, layer, time.perf_counter(), 0.0,
            parent.id if parent else None,
            trace or (parent.trace if parent else None),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()


def spans_from_dicts(rows: Iterable[dict], trace: Optional[str] = None) -> List[Span]:
    """Spans shipped home by a child process (``asdict`` rows)."""
    spans = [Span(**row) for row in rows]
    if trace is not None:
        for span in spans:
            span.trace = trace
    return spans


def spans_to_dicts(spans: Iterable[Span]) -> List[dict]:
    return [asdict(span) for span in spans]


def covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children (two clients' jobs under one phase) are counted once.
    """
    children: Dict[int, List[tuple]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: span.duration - covered(children.get(span.id, []))
        for span in spans
    }


def layer_seconds(spans: List[Span]) -> Dict[str, float]:
    """Layer -> busy seconds (sum of the self times of its spans)."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def coverage(spans: List[Span], wall: float) -> float:
    """Share of ``wall`` seconds that spans of a real layer account
    for: everything but the self time of :data:`HARNESS` spans."""
    if wall <= 0:
        return 0.0
    attributed = sum(
        seconds
        for layer, seconds in layer_seconds(spans).items()
        if layer != HARNESS
    )
    return attributed / wall


def chrome_trace(groups: Dict[str, List[Span]]) -> dict:
    """Chrome-trace JSON: one process per group (workload), one thread
    per trace id, complete (``X``) events in microseconds."""
    events: List[dict] = []
    for pid, (group, spans) in enumerate(sorted(groups.items()), start=1):
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": group}}
        )
        tids: Dict[str, int] = {}
        origin = min((span.start for span in spans), default=0.0)
        for span in spans:
            tid = tids.setdefault(span.trace, len(tids) + 1)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.layer,
                    "pid": pid,
                    "tid": tid,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {"id": span.id, "parent": span.parent,
                             "trace": span.trace},
                }
            )
        for trace, tid in tids.items():
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": trace}}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
