"""Process and scratch-space plumbing for the harness.

Everything the benchmark writes lives under ``.bench_build/e2e`` at the
root of the checkout: one ``run-*`` directory per invocation (the
working directory of every child, removed on the way out) and one
populated cache per source version (the benchmark's build product).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SOURCES = ROOT / "src" / "repro"
BUILD = ROOT / ".bench_build" / "e2e"

#: A child that runs this long is stuck; a cold suite is ~25 s here.
CHILD_TIMEOUT_S = 150.0

SUITE_ARGS = ["-m", "repro", "suite", "--cores", "6", "--results-dir", ""]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Fixed hash seed: set/dict iteration order is one less thing that
    # differs between two runs of the same code.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_RESULTS_DIR", None)
    env.pop("REPRO_EVAL_CACHE", None)
    return env


def source_version() -> str:
    """Hash of the program's sources; names the populated cache.  The
    program keys its cache entries on its own hash of the same files, so
    a stale populated cache would only ever miss."""
    digest = hashlib.sha256()
    for path in sorted(SOURCES.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCES)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


@dataclass
class Child:
    """One finished child process."""

    returncode: int
    wall_s: float
    rss_mb: float
    stdout: Path
    stderr: Path

    def last_line(self) -> str:
        lines = self.stdout.read_text().splitlines()
        return lines[-1] if lines else ""


def run_child(args: List[str], tag: str, cwd: Path) -> Child:
    """Run ``python ARGS`` to completion and wait for it.

    ``os.wait4`` gives this child's own peak resident set; the
    ``RUSAGE_CHILDREN`` total would report the largest child so far.
    """
    stdout = cwd / f"{tag}.out"
    stderr = cwd / f"{tag}.err"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        # ``wait4`` has no timeout of its own.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr
    )


@contextmanager
def run_directory() -> Iterator[Path]:
    """A fresh scratch directory that is also the working directory
    while it exists, so children inherit it and the daemon's socket can
    be named by a short relative path however deep the checkout is."""
    BUILD.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


def compile_sources() -> None:
    """Byte-compile the program and the benchmark up front, so that no
    timed rep pays for ``.pyc`` compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         str(SOURCES), str(Path(__file__).parent)],
        check=True, env=child_env(), stdout=subprocess.DEVNULL,
    )


def tree_mb(path: Path) -> float:
    """Bytes of the regular files under ``path``, in MB."""
    return sum(
        f.stat().st_size for f in path.rglob("*") if f.is_file()
    ) / 1e6


# ------------------------------------------------------------ populated cache


def populated_cache() -> Path:
    """Directory of the populated cache for the current sources, holding
    ``cache/`` and the ``fig9.txt`` its populating run printed."""
    return BUILD / f"warm-{source_version()}"


def donate_cache(cache_dir: Path, fig9_text: str) -> None:
    """Keep a cold rep's cache as the populated cache (first donor wins);
    the rename is atomic, so a reader never sees half a cache."""
    target = populated_cache()
    if target.exists():
        return
    staging = Path(tempfile.mkdtemp(prefix="staging-", dir=BUILD))
    os.rename(cache_dir, staging / "cache")
    (staging / "fig9.txt").write_text(fig9_text)
    os.rename(staging, target)


def ensure_populated_cache(cwd: Path) -> Path:
    """The benchmark's build step: one cold ``repro suite`` per source
    version per checkout, unless a ``suite_cold`` run already donated."""
    target = populated_cache()
    if not target.exists():
        cache_dir = cwd / "populate-cache"
        child = run_child(
            SUITE_ARGS + ["--cache-dir", str(cache_dir)], "populate", cwd
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"populating cold suite exited {child.returncode}: "
                f"{child.stderr.read_text()[-2000:]}"
            )
        donate_cache(cache_dir, child.stdout.read_text())
    return target


# --------------------------------------------------------------------- daemon


class Daemon:
    """A ``repro serve`` process, terminated on every exit path."""

    SOCKET = "serve.sock"
    WORKERS = 2

    def __init__(self, cwd: Path, cache_dir: Path, tag: str) -> None:
        self._err = open(cwd / f"{tag}.err", "wb")
        self.spawned = time.perf_counter()
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.SOCKET, "--cache-dir", str(cache_dir),
             "--workers", str(self.WORKERS)],
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._err,
        )

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def connect(self, timeout: float = 60.0):
        """A connected client; retries until the daemon listens."""
        from repro.service.client import ServiceClient

        deadline = time.perf_counter() + timeout
        while True:
            if self.proc is None or self.proc.poll() is not None:
                raise RuntimeError("daemon exited before it listened")
            try:
                return ServiceClient(socket_path=self.SOCKET)
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (its peak resident set so far)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, wait for the drain, SIGKILL if it does not come."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=90)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            self._err.close()
        return proc.returncode
