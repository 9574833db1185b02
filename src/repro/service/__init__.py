"""Layered evaluation service: compile/run jobs as a long-lived daemon.

The one-shot CLI rebuilds orchestration per invocation; this package
restructures it into three explicit layers so the same pipelines can be
served to many concurrent clients from one warm process:

* **Domain** (:mod:`repro.service.jobs`) -- pure job and event
  dataclasses: the four job kinds (compile / run / suite / trace), the
  ``queued -> running -> done/failed/cancelled`` :class:`JobState`
  machine, and the :class:`EvaluationObserver` protocol through which
  every layer above reports progress.  No infrastructure imports.
* **Application** (:mod:`repro.service.orchestrator`, plus
  :mod:`repro.artifacts`) -- a queue-driven orchestrator executing jobs
  through the existing :class:`~repro.evaluation.runner.EvaluationRunner`
  against a shared content-addressed
  :class:`~repro.artifacts.ArtifactStore`, one worker thread per job,
  with per-job timeouts and cooperative cancellation.
* **Infrastructure** (:mod:`repro.service.daemon`,
  :mod:`repro.service.client`, and ``repro serve`` in
  :mod:`repro.cli`) -- an asyncio JSON-lines protocol over a Unix or
  TCP socket that streams observer events to each submitting client and
  drains gracefully on SIGTERM.

CLI progress output is *one more observer* -- the suite's ``--stats``
progress, the daemon's event stream and tests' recording observers all
implement the same domain protocol.
"""

from repro.service.jobs import (
    NULL_OBSERVER,
    CompileJob,
    EvaluationObserver,
    InvalidTransition,
    Job,
    JobState,
    NullObserver,
    RecordingObserver,
    RunJob,
    SuiteJob,
    TraceJob,
)
from repro.service.orchestrator import (
    JobCancelled,
    JobTimeout,
    Orchestrator,
)

__all__ = [
    "NULL_OBSERVER",
    "CompileJob",
    "EvaluationObserver",
    "InvalidTransition",
    "Job",
    "JobCancelled",
    "JobState",
    "JobTimeout",
    "NullObserver",
    "Orchestrator",
    "RecordingObserver",
    "RunJob",
    "SuiteJob",
    "TraceJob",
]
