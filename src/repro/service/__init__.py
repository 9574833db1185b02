"""Layered evaluation service: compile/run jobs as a long-lived daemon.

The one-shot CLI rebuilds orchestration per invocation; this package
restructures it into three explicit layers so the same pipelines can be
served to many concurrent clients from one warm process:

* **Domain** (:mod:`repro.service.jobs`) -- pure job dataclasses: the
  three job kinds (compile / run / suite) and the
  ``queued -> running -> done/failed/cancelled`` :class:`JobState`
  machine.  No infrastructure imports.  Every layer reports progress
  through the :class:`~repro.obs.metrics.EvaluationObserver` protocol,
  which lives beside the evaluation runner's stage counters.
* **Application** (:mod:`repro.service.orchestrator`, plus
  :mod:`repro.artifacts`) -- a queue-driven orchestrator executing jobs
  through the existing :class:`~repro.evaluation.runner.EvaluationRunner`
  against a shared content-addressed
  :class:`~repro.artifacts.ArtifactStore`, one worker thread per job,
  with per-job timeouts and cooperative cancellation.  Any job can be
  traced: it runs under its own recording tracer and keeps its spans.
* **Infrastructure** (:mod:`repro.service.daemon`,
  :mod:`repro.service.client`, and ``repro serve`` in
  :mod:`repro.cli`) -- an asyncio JSON-lines protocol over a Unix or
  TCP socket that streams observer events to each submitting client and
  drains gracefully on SIGTERM.

CLI progress output is *one more observer* -- the suite's ``--stats``
progress, the daemon's event stream and tests' recording observers all
implement the same protocol.

The package imports none of its modules: import each name from the
module that defines it, so an importer loads only what it uses.
"""
