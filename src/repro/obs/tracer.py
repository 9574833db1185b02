"""Span tracer: nestable wall-clock spans with a free null fallback.

Instrumentation sites write::

    from repro.obs import get_tracer

    with get_tracer().span("stage.compile", cat="stage", bench=name) as sp:
        ...
        sp.set(outcome="disk")

and pay nothing measurable when tracing is off: :func:`get_tracer`
returns the shared :data:`NULL_TRACER` whose ``span`` hands back one
reusable no-op context manager (no allocation, no clock read).
``tests/test_obs.py`` guards this with a per-span budget, the
end-to-end ledger records the cost (``obs.null_span_ns``), and
the scheduler's hot loop (the pack walk behind ``schedule_many``)
carries no tracer calls at all -- enforced structurally by
``tests/test_obs.py``.

The active tracer belongs to the running context, like
:data:`~repro.obs.metrics.CURRENT_JOB`: :func:`tracing` installs one
for the calling thread's context only, and a new thread starts with the
null tracer.  Two traced daemon jobs on two worker threads therefore
each record exactly their own spans, and an untraced job records none.

A recording :class:`Tracer` stamps spans with a monotonic clock
(``time.perf_counter``), the recording process id and thread id, so
spans merged from several processes (the parallel suite runner) keep
distinct Perfetto tracks.  Spans nest by timing alone: Chrome's trace
viewer reconstructs the stack from containment within one ``(pid,
tid)`` track, which is exactly how the events are recorded.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Typed span argument values (anything JSON-stable).
ArgValue = Any


@dataclass
class SpanEvent:
    """One finished span: a ``name`` over ``[start_us, start_us+dur_us]``."""

    name: str
    cat: str
    start_us: float
    dur_us: float
    pid: int
    tid: int
    args: Dict[str, ArgValue] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-stable form (the cross-process wire format)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanEvent":
        return cls(
            name=data["name"],
            cat=data.get("cat", ""),
            start_us=data["start_us"],
            dur_us=data["dur_us"],
            pid=data["pid"],
            tid=data["tid"],
            args=dict(data.get("args", {})),
        )


class _NullSpan:
    """The reusable do-nothing span of the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: ArgValue) -> None:
        """Ignore span args (null tracer)."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every operation is a no-op.

    Shared singleton (:data:`NULL_TRACER`); instrumentation sites only
    ever touch ``span``/``enabled`` so this class keeps the exact
    surface of :class:`Tracer` that call sites use.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, cat: str = "", **args: ArgValue) -> _NullSpan:
        return _NULL_SPAN

    def finished(self) -> List[SpanEvent]:
        return []


NULL_TRACER = NullTracer()


class _Span:
    """An open span; records itself on the tracer at ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, args: Dict[str, ArgValue]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0

    def set(self, **args: ArgValue) -> None:
        """Attach or update typed args on the open span."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        tracer.events.append(
            SpanEvent(
                name=self.name,
                cat=self.cat,
                start_us=self._start * 1e6,
                dur_us=(end - self._start) * 1e6,
                pid=tracer.pid,
                tid=tracer._tid(),
                args=self.args,
            )
        )
        return False


class Tracer:
    """Recording tracer: spans and cross-process absorption.

    ``clock`` (seconds, monotonic) and ``pid``/``tid`` are injectable so
    tests can produce byte-stable golden traces; defaults record real
    wall-clock under the real process/thread ids.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> None:
        self._clock = clock
        self.pid = os.getpid() if pid is None else pid
        self._fixed_tid = tid
        self.events: List[SpanEvent] = []

    def _tid(self) -> int:
        if self._fixed_tid is not None:
            return self._fixed_tid
        return threading.get_ident()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "", **args: ArgValue) -> _Span:
        """A context manager timing one named region."""
        return _Span(self, name, cat, args)

    # -- access ------------------------------------------------------------

    def finished(self) -> List[SpanEvent]:
        """All closed spans, in the order they closed."""
        return list(self.events)

    def absorb(self, events: Sequence[dict]) -> int:
        """Merge serialized events recorded by another process.

        Events keep their original pid/tid, so a merged export shows one
        Perfetto process track per worker.  Returns the absorbed count.
        """
        for data in events:
            self.events.append(SpanEvent.from_dict(data))
        return len(events)


# -- the active tracer -----------------------------------------------------

#: The tracer of the running context: the null tracer unless
#: :func:`tracing` installed a recording one.  A ``ContextVar``, so a
#: tracer installed in one thread (one daemon job, say) never records
#: another thread's spans.
_ACTIVE: ContextVar[Any] = ContextVar("repro_tracer", default=NULL_TRACER)


def get_tracer() -> Any:
    """The active tracer of this context (the null tracer unless one is
    installed by :func:`tracing`)."""
    return _ACTIVE.get()


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope a recording tracer to this context: install on entry,
    restore the previous one on exit."""
    installed = tracer or Tracer()
    token = _ACTIVE.set(installed)
    try:
        yield installed
    finally:
        _ACTIVE.reset(token)
