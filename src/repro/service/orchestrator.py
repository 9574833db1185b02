"""Application layer: queue-driven orchestration of evaluation jobs.

The :class:`Orchestrator` owns a FIFO job queue and a pool of worker
threads, each of which executes jobs through per-job
:class:`~repro.evaluation.runner.EvaluationRunner` instances -- all
runners share one :class:`~repro.artifacts.ArtifactStore`, so artifacts
computed for one client warm every later request exactly like the
process-parallel suite runner's shared disk cache.  Every key hashes
exactly what its stage reads (:data:`repro.artifacts.KEY_INPUTS`), so a
job resubmitted at a different core count re-records only: the profile
and the sequential baseline (keyed on the cost model) are read back,
and only selection, Steps 1-9 and the recording run, which do read the
core count, happen again.  A
``run`` job repeated on the same machine reads its stored answer (kind
``"run"``) and enters no other stage.  Because every stage artifact is
an exact recorded object (never a timing), results are byte-identical
to the one-shot CLI regardless of which worker computed them or in what
order.

Execution discipline:

* **One thread per job.** Every op, ``suite`` included, runs on the
  worker thread that took it, over :attr:`Orchestrator.artifacts`; the
  daemon never forks, and a job runs once: nothing is retried.
* **Timeouts.** Each attempt may be bounded (``Job.timeout``); a timed
  out attempt fails the job, and the worker abandons its runner cache
  (the overrun handler may still be mutating those runners from its
  zombie thread -- Python cannot kill it, so the worker simply stops
  sharing state with it).
* **Cancellation.** :meth:`Orchestrator.cancel` finishes a queued job
  immediately; a running job is cancelled cooperatively -- handlers
  call :meth:`JobContext.check` between pipeline stages and raise
  :class:`JobCancelled` at the next checkpoint.
* **Shutdown.** :meth:`drain` stops intake and waits for the queue to
  empty (the daemon's SIGTERM path); :meth:`shutdown` additionally
  cancels whatever is still queued, delivers one poison pill per worker
  and joins them -- KeyboardInterrupt-safe, since only the main thread
  receives the signal.

Progress streams through the domain
:class:`~repro.service.jobs.EvaluationObserver` protocol, to a list of
sinks per job: the orchestrator-wide ones (:attr:`Orchestrator.sinks`),
then the observer the job was submitted with.  The orchestrator emits
``job_started``/``job_finished`` to them, and each of the job's runners
lists them after its own counters for its stage and artifact events.
The handler runs with :data:`~repro.service.jobs.CURRENT_JOB` set to
its job, so those events arrive attributed to it.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Type

from repro.artifacts import ArtifactStore
from repro.obs import REGISTRY, get_tracer, tracing
from repro.runtime.machine import MachineConfig
from repro.service.jobs import (
    CURRENT_JOB,
    CompileJob,
    EvaluationObserver,
    Job,
    JobState,
    RunJob,
    SuiteJob,
    TraceJob,
)


class JobCancelled(Exception):
    """Raised inside a handler at a cancellation checkpoint."""


class JobTimeout(Exception):
    """One attempt exceeded its wall-clock budget."""


#: The process-wide tracer is ambient, so trace-capturing jobs are
#: serialized; concurrent non-trace jobs keep running (their spans may
#: appear in the capture, attributed by their ``job`` span argument).
_TRACE_LOCK = threading.Lock()


@dataclass
class JobContext:
    """What a handler gets to work with during one attempt."""

    job: Job
    #: Where this job's events go, in order.
    sinks: List[EvaluationObserver]
    artifacts: ArtifactStore
    #: This attempt's runner cache (keyed by core count).  Runners are
    #: per-job on purpose: cross-job warmth flows through the shared
    #: :class:`ArtifactStore` instead of private memos, so every repeat
    #: request shows up as store hits and results never depend on which
    #: worker thread served the job.
    runners: Dict[int, Any] = field(default_factory=dict)

    @property
    def cancelled(self) -> bool:
        return self.job.cancel_requested.is_set()

    def check(self) -> None:
        """Cancellation checkpoint: raise if a cancel was requested."""
        if self.cancelled:
            raise JobCancelled(self.job.id)

    def runner(self, cores: int):
        """This attempt's :class:`EvaluationRunner` for ``cores``,
        reporting to this job's sinks after its own counters."""
        runner = self.runners.get(cores)
        if runner is None:
            from repro.evaluation.runner import EvaluationRunner

            runner = EvaluationRunner(
                MachineConfig(cores=cores),
                cache=self.artifacts,
            )
            runner.sinks += self.sinks
            self.runners[cores] = runner
        return runner


Handler = Callable[[JobContext, Any], dict]


class Orchestrator:
    """Executes evaluation jobs from a queue over shared artifacts."""

    def __init__(
        self,
        cache: Any = None,
        workers: int = 2,
        observer: Optional[EvaluationObserver] = None,
        default_timeout: Optional[float] = None,
    ) -> None:
        #: The store every job's runners share: ``cache`` itself, or one
        #: opened on the directory ``cache`` names (``None``: no disk).
        self.artifacts = (
            cache if isinstance(cache, ArtifactStore) else ArtifactStore(cache)
        )
        #: Sinks of every job's events, ahead of its own observer.
        self.sinks: List[EvaluationObserver] = (
            [] if observer is None else [observer]
        )
        self.default_timeout = default_timeout
        self.handlers: Dict[Type[Any], Handler] = {
            CompileJob: self._handle_compile,
            RunJob: self._handle_run,
            SuiteJob: self._handle_suite,
            TraceJob: self._handle_trace,
        }
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._job_observers: Dict[str, EvaluationObserver] = {}
        self._lock = threading.Lock()
        self._accepting = True
        self._threads: List[threading.Thread] = []
        for index in range(max(1, workers)):
            thread = threading.Thread(
                target=self._worker, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # -- intake ------------------------------------------------------------

    def submit(
        self,
        spec: Any,
        timeout: Optional[float] = None,
        observer: Optional[EvaluationObserver] = None,
        trace: bool = False,
    ) -> Job:
        """Queue one job; returns it immediately (state QUEUED).

        ``observer`` (optional) receives this job's events after the
        orchestrator-wide sinks -- the daemon registers the
        submitting connection's stream here.  ``trace`` asks the worker
        to run the job under a recording tracer and attach the captured
        spans to the job (``Job.spans``).
        """
        if type(spec) not in self.handlers:
            raise TypeError(f"no handler for job spec {type(spec).__name__}")
        with self._lock:
            if not self._accepting:
                raise RuntimeError("orchestrator is draining")
            job = Job(
                spec=spec,
                timeout=self.default_timeout if timeout is None else timeout,
                trace=trace,
            )
            self._jobs[job.id] = job
            if observer is not None:
                self._job_observers[job.id] = observer
        self._queue.put(job)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        """Block until ``job`` reaches a terminal state."""
        job.finished.wait(timeout)
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns whether the job will stop.

        A queued job is finished (CANCELLED) on the spot; a running one
        is flagged and stops at its handler's next checkpoint; terminal
        jobs are left alone (returns False).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state.terminal:
                return False
            job.request_cancel()
            if job.state is JobState.QUEUED:
                job.transition(JobState.CANCELLED)
                sinks = self._sinks_for(job)
                self._job_observers.pop(job.id, None)
            else:
                return True  # running: cooperative
        for sink in sinks:
            sink.job_finished(job)
        return True

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting submissions and wait for in-flight work.

        Returns True when every accepted job reached a terminal state
        within ``timeout`` (None = wait indefinitely).
        """
        with self._lock:
            self._accepting = False
            pending = [j for j in self._jobs.values() if not j.state.terminal]
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in pending:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            if not job.finished.wait(remaining):
                return False
        return True

    def shutdown(
        self, wait: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Cancel queued jobs, poison the workers, and join them."""
        with self._lock:
            self._accepting = False
            queued = [
                j for j in self._jobs.values() if j.state is JobState.QUEUED
            ]
        for job in queued:
            self.cancel(job.id)
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout)

    def status(self) -> dict:
        """Runtime introspection: queue depth, in-flight jobs, workers.

        The view the daemon's ``status`` RPC exposes: queue depth by
        state (every state present, zero or not), in-flight jobs with
        their ages, worker liveness -- a dead worker thread shows up as
        ``alive < configured`` -- and the artifact store's counters.
        """
        now = time.monotonic()
        with self._lock:
            jobs = list(self._jobs.values())
            accepting = self._accepting
        queue_depth = {state.value: 0 for state in JobState}
        for job in jobs:
            queue_depth[job.state.value] += 1
        in_flight = [
            {
                "job": job.id,
                "op": job.op,
                "bench": getattr(job.spec, "bench", None),
                "age_seconds": round(job.age_seconds(now), 3),
            }
            for job in jobs
            if job.state is JobState.RUNNING
        ]
        return {
            "accepting": accepting,
            "queue": queue_depth,
            "in_flight": in_flight,
            "workers": {
                "configured": len(self._threads),
                "alive": sum(
                    1 for thread in self._threads if thread.is_alive()
                ),
            },
            "artifacts": self.artifacts.counters(),
        }

    # -- execution ---------------------------------------------------------

    def _sinks_for(self, job: Job) -> List[EvaluationObserver]:
        extra = self._job_observers.get(job.id)
        return self.sinks if extra is None else self.sinks + [extra]

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while queued
                job.transition(JobState.RUNNING)
                sinks = self._sinks_for(job)
            for sink in sinks:
                sink.job_started(job)
            ctx = JobContext(job=job, sinks=sinks, artifacts=self.artifacts)
            handler = self.handlers[type(job.spec)]
            try:
                with get_tracer().span(f"job.{job.op}", cat="job", job=job.id):
                    result = self._attempt(handler, ctx, job)
            except JobCancelled:
                with self._lock:
                    job.transition(JobState.CANCELLED)
            except JobTimeout as exc:
                # The overrun handler's zombie thread keeps its own
                # per-job runners; only the thread-safe artifact store
                # is shared with it, so nothing to abandon here.
                with self._lock:
                    job.error = str(exc)
                    job.transition(JobState.FAILED)
            except Exception as exc:  # noqa: BLE001 - job isolation barrier
                with self._lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.transition(JobState.FAILED)
            else:
                with self._lock:
                    job.result = result
                    job.transition(JobState.DONE)
            # Terminal: the registration goes, or every finished job
            # would pin its connection's observer for the daemon's life.
            with self._lock:
                self._job_observers.pop(job.id, None)
            for sink in sinks:
                sink.job_finished(job)

    def _attempt(self, handler: Handler, ctx: JobContext, job: Job) -> dict:
        """One attempt, bounded by the job's timeout.

        Python threads cannot be killed, so the budget is enforced by
        running the handler in a disposable thread and abandoning it on
        overrun -- the worker raises :class:`JobTimeout` and never reads
        the late result.
        """
        if not job.timeout:
            return self._execute(handler, ctx, job)
        box: Dict[str, Any] = {}
        done = threading.Event()

        def target() -> None:
            try:
                box["result"] = self._execute(handler, ctx, job)
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=target, name=f"attempt-{job.id}", daemon=True
        )
        thread.start()
        if not done.wait(job.timeout):
            job.request_cancel()  # tell the zombie to stop at a checkpoint
            raise JobTimeout(
                f"job {job.id} exceeded its {job.timeout:.1f}s budget"
            )
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _execute(self, handler: Handler, ctx: JobContext, job: Job) -> dict:
        """Run one attempt body in the *calling* thread, capturing
        observability onto the job.

        The attempt runs under ``REGISTRY.isolated()``, so ``Job.metrics``
        is exactly this attempt's counter/gauge delta -- work done
        concurrently by other worker threads (or an abandoned zombie of
        a timed-out job) never contaminates it, and the scope's totals
        still fold back into the process-wide registry on exit.  Metrics
        (and spans, for traced jobs) are recorded in whichever thread
        executes the handler -- the worker itself, or the disposable
        timeout thread -- because the registry scope is thread-local.
        For the same reason :data:`CURRENT_JOB` is set here, so every
        event the handler's runners emit names this job.

        A ``trace``-flagged job additionally runs under the ambient
        recording tracer (serialized by ``_TRACE_LOCK``, like the
        dedicated trace op).  Trace-op jobs are excluded here -- their
        handler takes the same non-reentrant lock itself, possibly from
        a different (disposable) thread, and already attaches its spans.

        Late writes from abandoned timeout threads are suppressed: once
        the worker finished the job, the zombie's capture is dropped.
        """
        traced = job.trace and not isinstance(job.spec, TraceJob)
        spans: Optional[List[dict]] = None
        with REGISTRY.isolated() as scope:
            token = CURRENT_JOB.set(job)
            try:
                if traced:
                    with _TRACE_LOCK:
                        with tracing() as tracer:
                            result = handler(ctx, job.spec)
                        spans = [
                            event.as_dict() for event in tracer.finished()
                        ]
                else:
                    result = handler(ctx, job.spec)
            finally:
                CURRENT_JOB.reset(token)
                if not job.finished.is_set():
                    job.metrics = scope.snapshot()
        if spans is not None and not job.finished.is_set():
            job.spans = spans
        return result

    # -- default handlers --------------------------------------------------

    def _handle_compile(self, ctx: JobContext, spec: CompileJob) -> dict:
        from repro.core.loopinfo import HelixOptions
        from repro.ir.printer import module_to_str

        runner = ctx.runner(spec.cores)
        runner.module(spec.bench, "ref")
        ctx.check()
        selection = runner.selection(spec.bench)
        ctx.check()
        transformed, infos = runner._transform(
            spec.bench, selection.chosen, runner.machine, HelixOptions()
        )
        result = {
            "bench": spec.bench,
            "cores": spec.cores,
            "chosen": [list(loop) for loop in selection.chosen],
            "parallelized": len(infos),
        }
        if spec.include_ir:
            result["ir"] = module_to_str(transformed)
        return result

    def _handle_run(self, ctx: JobContext, spec: RunJob) -> dict:
        # The ``run`` stage: a stored answer, or the pipeline stage by
        # stage with a checkpoint between stages, so cancellation lands
        # there instead of only at the end.
        return ctx.runner(spec.cores).run_result(spec.bench, ctx.check)

    def _handle_suite(self, ctx: JobContext, spec: SuiteJob) -> dict:
        # Figure 9 on this thread, one ``figure9_row`` per bench over
        # this job's runner and so over the orchestrator's store, like
        # every other op.
        from repro.evaluation.figures import figure9

        start = time.perf_counter()
        fig9 = figure9(ctx.runner(spec.cores), spec.benches)
        return {
            "cores": spec.cores,
            "geomeans": {
                str(cores): fig9.geomean(cores) for cores in fig9.core_counts
            },
            "speedups": {
                bench: {str(cores): value for cores, value in row.items()}
                for bench, row in fig9.speedups.items()
            },
            "wall_seconds": time.perf_counter() - start,
            # In a worker thread a suite never stops part-way with a
            # partial figure; the key keeps the result's wire form.
            "interrupted": False,
            "rendered": fig9.render(),
        }

    def _handle_trace(self, ctx: JobContext, spec: TraceJob) -> dict:
        from repro.obs import chrome_trace

        ctx.check()
        with _TRACE_LOCK:
            # The job's first runner (cold memos, warm disk) so the
            # capture has a span for every stage the request enters.
            # Against a warm disk those are the profile, sequential and
            # execute reads: the stored plan stands in for selection and
            # Steps 1-9, so there are no selection or transform spans
            # (``repro trace``, which runs without a cache, still has
            # them).
            with tracing() as tracer:
                run = ctx.runner(spec.cores).helix_run(spec.bench)
            events = tracer.finished()
        # Attach the capture to the job so the daemon's --trace-dir
        # writer can export a per-job Perfetto file.
        if not ctx.job.finished.is_set():
            ctx.job.spans = [event.as_dict() for event in events]
        result = {
            "bench": spec.bench,
            "cores": spec.cores,
            "spans": len(events),
            "speedup": run.speedup,
            "output_matches": run.output_matches,
        }
        if spec.include_trace:
            result["trace"] = chrome_trace(
                events, registry_snapshot=REGISTRY.snapshot()
            )
        return result
