"""Synchronous client for the ``repro serve`` daemon.

A thin blocking wrapper over the JSON-lines socket protocol of
:mod:`repro.service.daemon`, used by the tests and the CI serve-smoke
job.  One :class:`ServiceClient` holds one connection; requests are
submitted with :meth:`request` and the per-job event stream is consumed
with :meth:`wait` (which returns the terminal ``job_finished`` event and
keeps every intermediate event in order).
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional


class ServiceError(Exception):
    """The daemon answered a request with an ``error`` event."""


class ServiceClient:
    """Blocking JSON-lines client for one daemon connection."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        timeout: Optional[float] = 300.0,
    ) -> None:
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        elif host is not None:
            self._sock = socket.create_connection((host, port), timeout)
        else:
            raise ValueError("client needs a unix socket path or a TCP host")
        self._file = self._sock.makefile("r", encoding="utf-8")
        #: Events read off the wire but not yet claimed by a wait().
        self._pending: List[dict] = []

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- wire primitives ---------------------------------------------------

    def send(self, request: dict) -> None:
        self._sock.sendall(json.dumps(request).encode() + b"\n")

    def _read_wire(self) -> dict:
        """The next event off the socket (never from ``_pending`` --
        callers that stash unclaimed events into ``_pending`` must read
        from the wire only, or they would recycle their own stash)."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def read_event(self) -> dict:
        if self._pending:
            return self._pending.pop(0)
        return self._read_wire()

    # -- protocol helpers --------------------------------------------------

    def request(self, request: dict) -> str:
        """Submit one job request; returns the server-side job id."""
        self.send(request)
        while True:
            event = self._read_wire()
            kind = event.get("event")
            if kind == "accepted":
                return event["job"]
            if kind == "error":
                raise ServiceError(event.get("message", "unknown error"))
            # Event of an earlier job on this connection: keep for its
            # wait() call.
            self._pending.append(event)

    def wait(self, job_id: str) -> dict:
        """Block until ``job_id`` finishes; returns the terminal event.

        Every event of *other* jobs seen along the way stays queued for
        their own ``wait`` calls; this job's intermediate events are
        recorded on the returned dict under ``"events"``.
        """
        events: List[dict] = []
        claimed: List[dict] = []
        for event in self._pending:
            if event.get("job") == job_id:
                events.append(event)
                claimed.append(event)
        for event in claimed:
            self._pending.remove(event)
        for event in events:
            if event.get("event") == "job_finished":
                event = dict(event)
                event["events"] = events[:-1]
                return event
        while True:
            event = self._read_wire()
            if event.get("job") != job_id:
                self._pending.append(event)
                continue
            if event.get("event") == "job_finished":
                event = dict(event)
                event["events"] = events
                return event
            events.append(event)

    def run(self, request: dict) -> dict:
        """Submit and wait in one call; raises on failed jobs."""
        finished = self.wait(self.request(request))
        if finished.get("state") != "done":
            raise ServiceError(
                f"job failed ({finished.get('state')}): "
                f"{finished.get('error')}"
            )
        return finished

    def cancel(self, job_id: str) -> bool:
        self.send({"op": "cancel", "job": job_id})
        while True:
            event = self._read_wire()
            if event.get("event") == "cancelled" and event.get("job") == job_id:
                return True
            if event.get("event") == "error":
                return False
            self._pending.append(event)

    def status(self) -> Dict[str, dict]:
        """The daemon's live introspection payload (``status`` RPC).

        Queue depth by job state, in-flight jobs with ages, worker
        liveness, uptime, artifact-store counters, and the full
        metrics-registry snapshot.
        """
        self.send({"op": "status"})
        while True:
            event = self._read_wire()
            if event.get("event") == "status":
                return event
            self._pending.append(event)

    def ping(self) -> bool:
        self.send({"op": "ping"})
        while True:
            event = self._read_wire()
            if event.get("event") == "pong":
                return True
            self._pending.append(event)
