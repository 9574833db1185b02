"""Domain layer of the evaluation service: jobs and their states.

Everything here is a pure data structure -- no sockets, no threads, no
evaluation imports -- so the orchestration above it stays testable
without infrastructure.  The three job kinds mirror the one-shot CLI
commands they replace:

* :class:`CompileJob` -- profile, select and transform one benchmark
  without executing (``repro compile``).
* :class:`RunJob` -- the full HELIX pipeline of one benchmark
  (``repro bench`` / ``EvaluationRunner.run_result``).
* :class:`SuiteJob` -- Figure 9 over a benchmark list (``repro suite``).

A :class:`Job` wraps a spec with identity and lifecycle: the state
machine is ``queued -> running -> done | failed | cancelled``, and a job
runs once.  Any job may be traced (``trace: true`` on the wire): it then
runs under a recording tracer and keeps the spans it recorded.

Progress flows through the
:class:`~repro.obs.metrics.EvaluationObserver` protocol, attributed to
a job by :data:`~repro.obs.metrics.CURRENT_JOB`; both live beside the
evaluation runner's stage counters, so the pipeline reports progress
without importing this package.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple


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
    #: while the job ran (only when :attr:`trace`).
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
