"""Infrastructure layer: the ``repro serve`` compile/run daemon.

An asyncio server (Unix socket by default, TCP optional) speaking a
JSON-lines protocol: every request and event is one JSON object per
``\\n``-terminated line.  Clients submit jobs and receive that job's
observer events streamed back as they happen, finishing with a
``job_finished`` event that carries the result payload.

Requests::

    {"op": "compile", "bench": "mcf", "cores": 6, "include_ir": false}
    {"op": "run",     "bench": "mcf", "cores": 6}
    {"op": "suite",   "benches": ["mcf", "vpr"], "cores": 6}
    {"op": "cancel",  "job": "j3"}
    {"op": "status"}
    {"op": "ping"}

Every job runs on the orchestrator worker thread that takes it; unknown
request keys are ignored.

Any job request may also carry ``"trace": true``: the orchestrator then
runs that job under a recording tracer, and the job's spans come back as
a schema-valid Perfetto trace with the job's metrics delta in
``otherData.metrics``, carried on the job's terminal event as
``"trace"``.

Any request may carry a client-chosen ``"id"``, echoed on the
``accepted`` event (and every subsequent event of that job also names
the server-side ``"job"`` id).  Events::

    {"event": "accepted",        "id": ..., "job": "j3", "op": "run"}
    {"event": "job_started",     "job": "j3", "op": "run"}
    {"event": "stage_completed", "job": "j3", "bench": "mcf",
     "stage": "compile", "outcome": "compute", "seconds": 0.41}
    {"event": "artifact_stored", "job": "j3", "kind": "recording",
     "key": "ab12...", "outcome": "store"}
    {"event": "job_finished",    "job": "j3", "state": "done",
     "result": {...}, "metrics": {...}, "trace": {...}}
    {"event": "pong"}
    {"event": "status", "run": ..., "uptime_seconds": ...,
     "queue": {...}, "in_flight": [...], "workers": {...},
     "metrics": {...}, "artifacts": {...}}
    {"event": "error",  "message": "..."}

Lifecycle: SIGTERM (or SIGINT) triggers a graceful drain -- the
listening socket closes, in-flight jobs run to completion (bounded by
``drain_timeout``), every connected client receives a ``draining``
event, and the process exits 0.  All observer events can additionally
be appended to a JSON-lines job log (``--log``), which is what the CI
``serve-smoke`` job uploads as its artifact.  Every log line is wrapped
with a monotonic ``"seq"`` and the daemon's ``"run"`` id, so
interleaved multi-connection logs are totally ordered and joinable to
:class:`~repro.obs.results.ResultsStore` history; a periodic
``heartbeat`` record (``--heartbeat``) proves liveness between jobs.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import REGISTRY, chrome_trace
from repro.obs.metrics import EvaluationObserver
from repro.obs.tracer import SpanEvent
from repro.service.jobs import CompileJob, Job, RunJob, SuiteJob
from repro.service.orchestrator import Orchestrator

#: Wire schema generation of the event stream.
PROTOCOL_VERSION = 4

_OPS = {
    "compile": lambda req: CompileJob(
        bench=req["bench"],
        cores=int(req.get("cores", 6)),
        include_ir=bool(req.get("include_ir", False)),
    ),
    "run": lambda req: RunJob(
        bench=req["bench"], cores=int(req.get("cores", 6))
    ),
    "suite": lambda req: SuiteJob(
        benches=tuple(req["benches"]) if req.get("benches") else None,
        cores=int(req.get("cores", 6)),
    ),
}


def validate_event(event: Any) -> List[str]:
    """Schema-check one streamed event; returns problems (empty = OK).

    This is the contract the CI ``serve-smoke`` job enforces over a
    live daemon's whole event stream.
    """
    problems: List[str] = []
    if not isinstance(event, dict):
        return ["event is not an object"]
    kind = event.get("event")
    if not isinstance(kind, str) or not kind:
        return ["missing event kind"]
    required: Dict[str, tuple] = {
        "accepted": ("job", "op"),
        "job_started": ("job", "op"),
        "stage_completed": ("job", "bench", "stage", "outcome", "seconds"),
        "artifact_stored": ("job", "kind", "key", "outcome"),
        "job_finished": ("job", "state"),
        "status": ("run", "uptime_seconds", "queue", "workers", "metrics"),
        "heartbeat": ("uptime_seconds", "queue", "workers"),
        "cancelled": ("job",),
        "error": ("message",),
        "pong": (),
        "draining": (),
    }
    if kind not in required:
        return [f"unknown event kind {kind!r}"]
    for field in required[kind]:
        if field not in event:
            problems.append(f"{kind} event missing {field!r}")
    if kind == "job_finished":
        if event.get("state") == "done" and "result" not in event:
            problems.append("done job_finished missing result")
    return problems


def job_trace(job: Job) -> dict:
    """The Perfetto trace of a traced job: its spans, with its metrics
    delta in ``otherData.metrics``."""
    spans = [SpanEvent.from_dict(data) for data in job.spans or ()]
    return chrome_trace(
        spans,
        registry_snapshot=job.metrics,
        process_names={pid: f"repro job {job.id} ({job.op})"
                       for pid in {s.pid for s in spans}},
    )


class _ConnectionObserver(EvaluationObserver):
    """Bridges orchestrator-thread observer calls onto one connection.

    Events are appended to the connection's asyncio queue via
    ``call_soon_threadsafe`` -- the observer protocol runs on worker
    threads, the writer coroutine drains on the event loop.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        events: "asyncio.Queue[Optional[dict]]",
        daemon: "Daemon",
    ) -> None:
        self._loop = loop
        self._events = events
        self._daemon = daemon

    def _emit(self, event: dict) -> None:
        self._daemon._log_event(event)
        try:
            self._loop.call_soon_threadsafe(self._events.put_nowait, event)
        except RuntimeError:
            pass  # loop already closed (client vanished during drain)

    def job_started(self, job: Optional[Job]) -> None:
        assert job is not None
        self._emit({"event": "job_started", "job": job.id, "op": job.op})

    def stage_completed(
        self,
        job: Optional[Job],
        bench: str,
        stage: str,
        outcome: str,
        seconds: float,
    ) -> None:
        self._emit(
            {
                "event": "stage_completed",
                "job": job.id if job else None,
                "bench": bench,
                "stage": stage,
                "outcome": outcome,
                "seconds": seconds,
            }
        )

    def artifact_stored(
        self, job: Optional[Job], kind: str, key: str, outcome: str
    ) -> None:
        self._emit(
            {
                "event": "artifact_stored",
                "job": job.id if job else None,
                "kind": kind,
                "key": key,
                "outcome": outcome,
            }
        )

    def job_finished(self, job: Optional[Job]) -> None:
        assert job is not None
        event = {
            "event": "job_finished",
            "job": job.id,
            "state": job.state.value,
            "error": job.error,
            "metrics": job.metrics,
        }
        if job.result is not None:
            event["result"] = job.result
        if job.spans is not None:
            event["trace"] = job_trace(job)
        self._emit(event)


class Daemon:
    """The ``repro serve`` server: protocol + lifecycle glue."""

    def __init__(
        self,
        orchestrator: Orchestrator,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        drain_timeout: float = 60.0,
        log_path: Optional[str] = None,
        heartbeat: float = 0.0,
    ) -> None:
        if socket_path is None and host is None:
            raise ValueError("daemon needs a unix socket path or a TCP host")
        self.orchestrator = orchestrator
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.log_path = log_path
        #: Seconds between heartbeat records in the job log (<= 0 off).
        self.heartbeat = heartbeat
        #: This daemon instance's run id: stamped on every log line so
        #: logs from successive daemon lifetimes never interleave
        #: ambiguously, and joinable to ResultsStore run provenance.
        self.run_id = uuid.uuid4().hex[:12]
        self._started_monotonic = time.monotonic()
        self._log_lock = threading.Lock()
        self._log_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: "set[asyncio.Queue[Optional[dict]]]" = set()
        #: Filled once the server is listening: ("unix", path) or
        #: ("tcp", host, port) -- tests read the ephemeral port here.
        self.endpoint: Optional[tuple] = None
        self.ready = threading.Event()

    # -- logging -----------------------------------------------------------

    def _log_event(self, event: dict) -> None:
        if self.log_path is None:
            return
        with self._log_lock:
            # Never mutate ``event`` -- the same dict is queued for the
            # client stream; the log line is a stamped copy.  seq is
            # assigned under the lock, so log order == seq order.
            self._log_seq += 1
            record = {"seq": self._log_seq, "run": self.run_id, **event}
            line = json.dumps(record, sort_keys=True, default=str)
            with open(self.log_path, "a") as handle:
                handle.write(line + "\n")

    # -- introspection -----------------------------------------------------

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def status(self) -> dict:
        """The ``status`` RPC payload: daemon + orchestrator + registry.

        Combines the daemon's identity and uptime, the orchestrator's
        live queue/worker view (:meth:`Orchestrator.status`), and the
        full process-wide metrics registry snapshot.
        """
        return {
            "run": self.run_id,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "metrics": REGISTRY.snapshot(),
            **self.orchestrator.status(),
        }

    async def _heartbeat_loop(self) -> None:
        """Periodic liveness record in the job log (first beat now)."""
        while True:
            snapshot = self.orchestrator.status()
            self._log_event(
                {
                    "event": "heartbeat",
                    "uptime_seconds": round(self.uptime_seconds(), 3),
                    "queue": snapshot["queue"],
                    "in_flight": len(snapshot["in_flight"]),
                    "workers": snapshot["workers"],
                }
            )
            await asyncio.sleep(self.heartbeat)

    # -- protocol ----------------------------------------------------------

    async def _handle_request(
        self,
        request: dict,
        events: "asyncio.Queue[Optional[dict]]",
        observer: _ConnectionObserver,
    ) -> None:
        op = request.get("op")
        req_id = request.get("id")
        if op == "ping":
            await events.put({"event": "pong", "id": req_id})
            return
        if op == "status":
            await events.put(
                {"event": "status", "id": req_id, **self.status()}
            )
            return
        if op == "cancel":
            ok = self.orchestrator.cancel(str(request.get("job")))
            await events.put(
                {
                    "event": "cancelled" if ok else "error",
                    "id": req_id,
                    **(
                        {"job": request.get("job")}
                        if ok
                        else {"message": f"no cancellable job "
                                         f"{request.get('job')!r}"}
                    ),
                }
            )
            return
        builder = _OPS.get(op or "")
        if builder is None:
            await events.put(
                {"event": "error", "id": req_id,
                 "message": f"unknown op {op!r}"}
            )
            return
        try:
            spec = builder(request)
        except (KeyError, TypeError, ValueError) as exc:
            await events.put(
                {"event": "error", "id": req_id,
                 "message": f"bad {op} request: {exc}"}
            )
            return
        timeout = request.get("timeout")
        try:
            job = self.orchestrator.submit(
                spec,
                timeout=float(timeout) if timeout is not None else None,
                observer=observer,
                trace=bool(request.get("trace", False)),
            )
        except RuntimeError as exc:  # draining
            await events.put(
                {"event": "error", "id": req_id, "message": str(exc)}
            )
            return
        accepted = {
            "event": "accepted", "id": req_id, "job": job.id, "op": job.op,
        }
        self._log_event(accepted)
        await events.put(accepted)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        events: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self._connections.add(events)
        observer = _ConnectionObserver(loop, events, self)

        async def write_events() -> None:
            while True:
                event = await events.get()
                if event is None:
                    break
                try:
                    writer.write(
                        json.dumps(event, default=str).encode() + b"\n"
                    )
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break

        writer_task = asyncio.create_task(write_events())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    await events.put(
                        {"event": "error",
                         "message": f"bad JSON: {exc}"}
                    )
                    continue
                await self._handle_request(request, events, observer)
        finally:
            self._connections.discard(events)
            # Flush whatever is queued, then stop the writer.
            await events.put(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Thread-safe graceful-drain trigger (tests, embedders)."""
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)

    async def serve(self, install_signal_handlers: bool = True) -> None:
        """Listen and serve until SIGTERM/SIGINT, then drain and exit."""
        self._stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        self._loop = loop
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stopping.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        if self.socket_path is not None:
            path = Path(self.socket_path)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=str(path)
            )
            self.endpoint = ("unix", str(path))
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port
            )
            sock = self._server.sockets[0].getsockname()
            self.endpoint = ("tcp", sock[0], sock[1])
        self.ready.set()
        beats: Optional[asyncio.Task] = None
        if self.heartbeat > 0 and self.log_path is not None:
            beats = asyncio.ensure_future(self._heartbeat_loop())
        try:
            await self._stopping.wait()
        finally:
            if beats is not None:
                beats.cancel()
                try:
                    await beats
                except asyncio.CancelledError:
                    pass
            await self._drain()

    async def _drain(self) -> None:
        """Graceful shutdown: close intake, finish jobs, notify, exit."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for events in list(self._connections):
            events.put_nowait({"event": "draining"})
        # Let running jobs finish (bounded), then stop the workers.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.orchestrator.drain(self.drain_timeout)
        )
        self.orchestrator.shutdown(wait=True, timeout=5.0)
        for events in list(self._connections):
            events.put_nowait(None)
        if self.socket_path is not None:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass


def serve_forever(
    orchestrator: Orchestrator,
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: int = 0,
    drain_timeout: float = 60.0,
    log_path: Optional[str] = None,
    heartbeat: float = 0.0,
    install_signal_handlers: bool = True,
) -> Daemon:
    """Blocking entry point used by ``repro serve``."""
    daemon = Daemon(
        orchestrator,
        socket_path=socket_path,
        host=host,
        port=port,
        drain_timeout=drain_timeout,
        log_path=log_path,
        heartbeat=heartbeat,
    )
    asyncio.run(daemon.serve(install_signal_handlers=install_signal_handlers))
    return daemon
