"""Domain layer of the evaluation service: jobs, states, observers.

Everything here is a pure data structure or protocol -- no sockets, no
threads, no evaluation imports -- so the orchestration above it stays
testable without infrastructure.  The four job kinds mirror the one-shot
CLI commands they replace:

* :class:`CompileJob` -- profile, select and transform one benchmark
  without executing (``repro compile``).
* :class:`RunJob` -- the full HELIX pipeline of one benchmark
  (``repro bench`` / ``EvaluationRunner.helix_run``).
* :class:`SuiteJob` -- Figure 9 over a benchmark list (``repro suite``).
* :class:`TraceJob` -- one pipeline under the span tracer
  (``repro trace``).

A :class:`Job` wraps a spec with identity and lifecycle: the state
machine is ``queued -> running -> done | failed | cancelled``, and a job
runs once.

Progress flows through the :class:`EvaluationObserver` protocol.  The
CLI's progress printer, the daemon's per-client event stream and tests'
recording observers are all just observers, and whoever emits an event
calls each observer of a plain list in turn.  Which job an event belongs
to is :data:`CURRENT_JOB`, set by the orchestrator on the thread that
runs the job's handler, so layers that know nothing about jobs (the
evaluation runner's stage reports) still emit well-attributed events.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union


class JobState(str, Enum):
    """Lifecycle of one job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Legal state-machine edges.
_TRANSITIONS: Dict[JobState, Tuple[JobState, ...]] = {
    JobState.QUEUED: (JobState.RUNNING, JobState.CANCELLED),
    JobState.RUNNING: (JobState.DONE, JobState.FAILED, JobState.CANCELLED),
    JobState.DONE: (),
    JobState.FAILED: (),
    JobState.CANCELLED: (),
}


class InvalidTransition(Exception):
    """An illegal job state-machine edge was requested."""


# -- job specs ---------------------------------------------------------------


@dataclass(frozen=True)
class CompileJob:
    """Profile, select and transform one benchmark (no execution)."""

    bench: str
    cores: int = 6
    include_ir: bool = False

    op = "compile"


@dataclass(frozen=True)
class RunJob:
    """Full HELIX pipeline of one benchmark: transform + simulate."""

    bench: str
    cores: int = 6

    op = "run"


@dataclass(frozen=True)
class SuiteJob:
    """Figure 9 over a benchmark list (``None`` = the whole suite)."""

    benches: Optional[Tuple[str, ...]] = None
    cores: int = 6

    op = "suite"


@dataclass(frozen=True)
class TraceJob:
    """One benchmark pipeline under the span tracer."""

    bench: str
    cores: int = 6
    include_trace: bool = False

    op = "trace"


JobSpec = Union[CompileJob, RunJob, SuiteJob, TraceJob]

_job_ids = itertools.count(1)


@dataclass
class Job:
    """One unit of service work: a spec plus identity and lifecycle."""

    spec: Any
    id: str = ""
    state: JobState = JobState.QUEUED
    #: Upper bound on the job's wall-clock (None = unbounded).
    timeout: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    #: ``repro.obs`` counter/gauge delta captured while the job ran
    #: (orchestrator-filled).
    metrics: Optional[dict] = None
    #: Capture spans while this job runs (``trace: true`` on the wire);
    #: the orchestrator runs traced jobs under ``tracing()``.
    trace: bool = False
    #: Serialized :class:`~repro.obs.tracer.SpanEvent` dicts recorded
    #: while the job ran (only when :attr:`trace`, or always for
    #: trace-op jobs).
    spans: Optional[List[dict]] = None
    #: Where the daemon wrote this job's Perfetto trace (``--trace-dir``).
    trace_path: Optional[str] = None
    #: Lifecycle timestamps (``time.monotonic``), for in-flight ages.
    submitted_monotonic: float = 0.0
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    #: Set by :meth:`request_cancel`; cooperative handlers poll it.
    cancel_requested: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: Set exactly once, when the job reaches a terminal state.
    finished: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.id:
            self.id = f"j{next(_job_ids)}"
        if not self.submitted_monotonic:
            self.submitted_monotonic = time.monotonic()

    @property
    def op(self) -> str:
        return getattr(self.spec, "op", type(self.spec).__name__)

    def transition(self, new: JobState) -> None:
        """Move to ``new``, enforcing the state machine."""
        if new not in _TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"job {self.id}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new
        if new is JobState.RUNNING:
            self.started_monotonic = time.monotonic()
        if new.terminal:
            self.finished_monotonic = time.monotonic()
            self.finished.set()

    def request_cancel(self) -> None:
        self.cancel_requested.set()

    def age_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the job started running.

        Falls back to time-since-submission while the job is queued.
        """
        if now is None:
            now = time.monotonic()
        end = self.finished_monotonic if self.finished_monotonic else now
        start = (
            self.started_monotonic
            if self.started_monotonic is not None
            else self.submitted_monotonic
        )
        return max(0.0, end - start)

    def as_dict(self) -> dict:
        """JSON-stable summary (the daemon's wire form of a job)."""
        spec: Dict[str, Any] = {}
        for name in getattr(self.spec, "__dataclass_fields__", {}):
            value = getattr(self.spec, name)
            spec[name] = list(value) if isinstance(value, tuple) else value
        summary = {
            "id": self.id,
            "op": self.op,
            "state": self.state.value,
            "error": self.error,
            "spec": spec,
            "metrics": self.metrics,
        }
        if self.trace_path is not None:
            summary["trace_path"] = self.trace_path
        return summary


# -- observer protocol -------------------------------------------------------


class EvaluationObserver:
    """Protocol through which service layers report progress.

    Implementations override any subset; the base class is a usable
    no-op (also exposed as :class:`NullObserver` /
    :data:`NULL_OBSERVER`).  ``job`` is :data:`CURRENT_JOB` where the
    event was emitted: ``None`` outside the service (a bare
    :class:`EvaluationRunner`).
    """

    def job_started(self, job: Optional[Job]) -> None:
        """``job`` entered RUNNING."""

    def stage_completed(
        self,
        job: Optional[Job],
        bench: str,
        stage: str,
        outcome: str,
        seconds: float,
    ) -> None:
        """One pipeline stage request finished; ``outcome`` is
        ``compute``, ``memory`` or ``disk``.  The parallel suite runner
        also reports each worker's whole benchmark, as ``stage="bench"``
        with outcome ``compute``."""

    def artifact_stored(
        self, job: Optional[Job], kind: str, key: str, outcome: str
    ) -> None:
        """Artifact-store traffic: ``outcome`` is ``store`` (newly
        persisted) or ``hit`` (served warm)."""

    def job_finished(self, job: Optional[Job]) -> None:
        """``job`` reached a terminal state (done/failed/cancelled)."""


class NullObserver(EvaluationObserver):
    """Observer that ignores everything (the default)."""


NULL_OBSERVER = NullObserver()


#: The job whose handler this thread is running (``None`` outside one).
#: The orchestrator sets it on whichever thread runs the handler, and
#: every emitter passes it as the ``job`` of the events it reports.
CURRENT_JOB: ContextVar[Optional[Job]] = ContextVar("current_job", default=None)


@dataclass
class ObservedEvent:
    """One recorded observer call (test/debug support)."""

    kind: str
    job_id: Optional[str]
    args: Dict[str, Any] = field(default_factory=dict)


class RecordingObserver(EvaluationObserver):
    """Thread-safe observer that records every event, in arrival order.

    Used by the daemon tests and the hypothesis event-ordering test;
    :meth:`for_job` slices one job's event stream back out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[ObservedEvent] = []

    def _record(self, event: str, job: Optional[Job], **args: Any) -> None:
        record = ObservedEvent(
            kind=event, job_id=job.id if job is not None else None, args=args
        )
        with self._lock:
            self.events.append(record)

    def job_started(self, job: Optional[Job]) -> None:
        self._record("job_started", job)

    def stage_completed(
        self,
        job: Optional[Job],
        bench: str,
        stage: str,
        outcome: str,
        seconds: float,
    ) -> None:
        self._record(
            "stage_completed", job,
            bench=bench, stage=stage, outcome=outcome, seconds=seconds,
        )

    def artifact_stored(
        self, job: Optional[Job], kind: str, key: str, outcome: str
    ) -> None:
        self._record(
            "artifact_stored", job, kind=kind, key=key, outcome=outcome
        )

    def job_finished(self, job: Optional[Job]) -> None:
        self._record(
            "job_finished", job,
            state=job.state.value if job is not None else None,
        )

    def for_job(self, job_id: str) -> List[ObservedEvent]:
        with self._lock:
            return [e for e in self.events if e.job_id == job_id]

    def kinds(self, job_id: str) -> List[str]:
        return [e.kind for e in self.for_job(job_id)]


def check_event_ordering(events: Sequence[ObservedEvent]) -> List[str]:
    """Validate one job's event stream against the observer contract.

    Returns a list of violations (empty = well-ordered):

    * the stream starts with ``job_started`` and ends with
      ``job_finished``,
    * ``job_started`` and ``job_finished`` each appear exactly once,
    * every stage/artifact event falls between the ``job_started`` and
      the ``job_finished``.
    """
    problems: List[str] = []
    if not events:
        return ["empty event stream"]
    if events[0].kind != "job_started":
        problems.append(f"first event is {events[0].kind}, not job_started")
    if events[-1].kind != "job_finished":
        problems.append(f"last event is {events[-1].kind}, not job_finished")
    finishes = [e for e in events if e.kind == "job_finished"]
    if len(finishes) != 1:
        problems.append(f"{len(finishes)} job_finished events (expected 1)")
    starts = [e for e in events if e.kind == "job_started"]
    if len(starts) != 1:
        problems.append(f"{len(starts)} job_started events (expected 1)")
    started = False
    for event in events:
        if event.kind == "job_started":
            started = True
        elif event.kind in ("stage_completed", "artifact_stored"):
            if not started:
                problems.append(f"{event.kind} before any job_started")
    return problems
