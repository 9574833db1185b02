"""Evaluation of the benchmark suite, in process or on worker processes.

The per-benchmark pipelines are independent until Figure 9 aggregates
them, so the suite is one function,
:func:`~repro.evaluation.figures.figure9_row`, mapped over the benches.
A bench runs in a worker process of a :class:`ProcessPoolExecutor` only
when the store cannot answer its interpretation stages: its profile or
its sequential baseline, the entries whose keys take no interpretation
to compute, is missing.  Every other bench runs in this process, and a
pool starts only when it would have two workers, so a warm store forks
nothing.  A worker runs its bench's compile -> profile -> select ->
transform -> execute chain on a fresh runner over the suite's store,
persists every artifact there as an in-process run would, and returns
the bench's row: its speedups, its simulated-time accounting and what
it cost (stage counters, metrics and store traffic, each a delta).
The report and the figure are folds over the rows, in suite order, so
nothing a worker computed is read back from disk.  A worker that dies
breaks the pool: every bench it still owed a row then goes to one fresh
pool, and only if that one breaks too is each bench left run in this
process, over whatever the dead workers stored, so the suite still
completes with the same figure and the same store.  Generated
interpreter code is not an artifact: each process's interpreters
compile their own benchmark's functions.

Determinism: all stage artifacts are exact (recorded traces, not
timings), so a pooled run produces byte-identical figure output, the
same report counters and the same store entries as an in-process run
-- only the wall-clock differs.  Workers share the store's directory
safely (atomic writes; at worst two workers duplicate one computation).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.artifacts import code_version
from repro.evaluation.figures import Figure9Result, Figure9Row, figure9_row
from repro.evaluation.runner import EvaluationRunner
from repro.obs import REGISTRY, get_tracer, tracing
from repro.obs.metrics import (
    CURRENT_JOB,
    NULL_OBSERVER,
    EvaluationObserver,
    StageStats,
)
from repro.runtime.machine import MachineConfig


def suite_environment() -> Dict[str, object]:
    """Provenance of one suite run: enough to tell two report files from
    different hosts or checkouts apart without leaking anything
    host-private beyond coarse platform facts."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "code_version": code_version(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


@dataclass
class BenchOutcome:
    """One benchmark's accounting, from its :class:`Figure9Row`."""

    bench: str
    wall_seconds: float
    output_matches: bool
    stages: Dict[str, dict]

    def as_dict(self) -> dict:
        return {
            "bench": self.bench,
            "wall_seconds": self.wall_seconds,
            "output_matches": self.output_matches,
            "stages": self.stages,
        }


@dataclass
class SuiteReport:
    """Machine-readable record of one suite evaluation.

    ``to_json`` is what ``python -m repro suite --report PATH`` writes;
    the bench trajectory tracks these files across PRs.
    """

    jobs: int
    cores: int
    cache_dir: Optional[str]
    code_version: str
    wall_seconds: float = 0.0
    #: True when the run was interrupted (SIGINT/SIGTERM) and this
    #: report covers only the benchmarks that completed before that.
    interrupted: bool = False
    #: bench -> core count (as str, JSON keys) -> speedup.
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    geomeans: Dict[str, float] = field(default_factory=dict)
    benches: List[BenchOutcome] = field(default_factory=list)
    #: Stage counters: the sum of every bench's.
    stages: Dict[str, dict] = field(default_factory=dict)
    #: Per-analysis counters (the ``analysis:``-prefixed stage rows with
    #: the prefix stripped): hit/miss/invalidation accounting of the
    #: versioned :class:`~repro.analysis.manager.AnalysisManager`.
    analyses: Dict[str, dict] = field(default_factory=dict)
    #: Store traffic per artifact kind: the sum of every bench's.
    cache_traffic: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Where and on what the suite ran (:func:`suite_environment`).
    environment: Dict[str, object] = field(default_factory=dict)
    #: Per-benchmark simulated-time accounting: bench -> per-core
    #: busy/stall/signal/transfer cycle totals on the baseline machine
    #: (:func:`repro.obs.timeline.timeline_block`).
    timeline: Dict[str, dict] = field(default_factory=dict)
    #: Interpreter counters, summed over every bench's run in whichever
    #: process it ran: ``interp.backend.*`` selections plus the
    #: ``interp.superblock.*`` / ``interp.codegen.*`` formation and
    #: specialization statistics from :mod:`repro.runtime.codegen`.
    interp: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "cores": self.cores,
            "cache_dir": self.cache_dir,
            "code_version": self.code_version,
            "wall_seconds": self.wall_seconds,
            "interrupted": self.interrupted,
            "environment": self.environment,
            "speedups": self.speedups,
            "geomeans": self.geomeans,
            "benches": [b.as_dict() for b in self.benches],
            "stages": self.stages,
            "analyses": self.analyses,
            "cache_traffic": self.cache_traffic,
            "timeline": self.timeline,
            "interp": self.interp,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _run_bench(
    bench: str,
    machine: MachineConfig,
    cache_dir: Optional[str],
    trace: bool = False,
) -> Tuple[Figure9Row, List[dict]]:
    """Worker entry point: ``bench``'s Figure 9 row on a fresh runner
    over the suite's store, and the spans it recorded.

    With ``trace`` set the worker records its spans under a local tracer
    and ships them home serialized; they keep this process's pid, so the
    merged trace shows one track per worker."""
    runner = EvaluationRunner(machine, cache=cache_dir)
    if not trace:
        return figure9_row(runner, bench), []
    with tracing() as tracer:
        row = figure9_row(runner, bench)
    return row, [event.as_dict() for event in tracer.finished()]


def _stored(runner: EvaluationRunner, bench: str) -> bool:
    """Whether the store holds ``bench``'s profile and sequential
    baseline: the entries whose keys take no interpretation to compute.
    Only their existence is probed; nothing is read."""
    store = runner.artifacts
    return all(
        store.has(kind, store.key(kind, bench, machine=runner.machine))
        for kind in ("profile", "sequential")
    )


def _summarize(report: SuiteReport, rows: Sequence[Figure9Row]) -> None:
    """Fill ``report`` from the rows of the benches that completed."""
    stats = StageStats()
    traffic: Dict[str, Dict[str, int]] = {}
    interp: Dict[str, float] = {}
    for row in rows:
        stats.merge(row.stages)
        for kind, counts in row.traffic.items():
            total = traffic.setdefault(kind, dict.fromkeys(counts, 0))
            for what, count in counts.items():
                total[what] += count
        for name, value in row.metrics["counters"].items():
            if name.startswith("interp."):
                interp[name] = interp.get(name, 0) + value
        report.timeline[row.bench] = row.timeline
    fig9 = Figure9Result.of(rows)
    report.stages = stats.as_dict()
    report.analyses = stats.analyses()
    report.cache_traffic = dict(sorted(traffic.items()))
    report.interp = interp
    report.speedups = {
        bench: {str(cores): speedup for cores, speedup in row.items()}
        for bench, row in fig9.speedups.items()
    }
    if rows:
        report.geomeans = {
            str(cores): fig9.geomean(cores) for cores in fig9.core_counts
        }


class SuiteInterrupted(Exception):
    """A suite run stopped mid-flight: interrupted (SIGINT/SIGTERM), or
    one bench's row raised.

    Carries the partial :class:`SuiteReport` (completed benchmarks +
    merged stage counters, ``interrupted=True``) so callers can still
    persist what finished -- the CLI writes it to ``--report`` before
    exiting 130 on an interrupt and 1 on a failure.  ``bench`` names the
    bench whose row raised (``None`` for an interrupt); that error is
    the exception's ``__cause__``.
    """

    def __init__(self, report: "SuiteReport", bench: Optional[str] = None) -> None:
        super().__init__(
            "suite run interrupted" if bench is None else f"{bench} failed"
        )
        self.report = report
        self.bench = bench


def run_suite(
    machine: Optional[MachineConfig] = None,
    jobs: int = 0,
    cache_dir: Optional[str] = None,
    benches: Optional[Sequence[str]] = None,
    observer: Optional[EvaluationObserver] = None,
):
    """Evaluate the suite, one :func:`~repro.evaluation.figures.figure9_row`
    per benchmark, on up to ``jobs`` worker processes (``0``: one per
    CPU) and over the store in ``cache_dir`` (``None``: nothing kept).

    A bench whose profile or sequential baseline is not stored goes to a
    worker, and the pool starts only when at least two such benches and
    two jobs make two workers; every other bench runs in this process.
    So a warm store forks nothing.

    Returns ``(figure9, report, runner)``: the rendered-figure result,
    the :class:`SuiteReport`, and the runner that ran the in-process
    benches.  It is memory-warm for those benches only; a bench that ran
    in a worker is on disk, when there is a store.

    When a worker dies, the pool breaks, and every bench still pending
    on it with it: those benches go to one fresh pool.  Should that one
    break too, each bench it still owed is run in this process instead.

    ``observer`` receives the runner's stage/artifact events plus one
    ``stage="bench"`` completion per benchmark, in suite order -- CLI
    progress printing is just an observer here.

    On KeyboardInterrupt, or when a bench's row raises (its output
    diverged, its program faulted, in a worker or here), the worker pool
    is torn down cleanly (pending futures cancelled, running workers
    joined, nothing orphaned) and :class:`SuiteInterrupted` is raised
    carrying the partial report.
    """
    machine = machine or MachineConfig(cores=6)
    jobs = effective_jobs(jobs)
    observer = observer or NULL_OBSERVER
    start = time.perf_counter()
    runner = EvaluationRunner(machine, cache=cache_dir, observer=observer)
    if benches is not None:
        bench_list = list(benches)
        runner.benches = lambda: bench_list  # type: ignore[method-assign]
    report = SuiteReport(
        jobs=jobs,
        cores=machine.cores,
        cache_dir=cache_dir,
        code_version=code_version(),
        environment=suite_environment(),
    )
    rows: List[Figure9Row] = []

    def consume(row: Figure9Row) -> None:
        rows.append(row)
        report.benches.append(
            BenchOutcome(
                bench=row.bench,
                wall_seconds=row.wall_seconds,
                output_matches=row.output_matches,
                stages=row.stages,
            )
        )
        observer.stage_completed(
            CURRENT_JOB.get(), row.bench, "bench", "compute",
            row.wall_seconds,
        )

    tracer = get_tracer()
    pool = None
    futures: Dict[str, Future] = {}
    #: The bench whose row is being made, while one is.
    making: Optional[str] = None
    #: Whether a broken pool has been replaced (only once).
    replaced = False

    def submit(benches: Sequence[str]) -> None:
        nonlocal pool
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(benches)))
        for bench in benches:
            futures[bench] = pool.submit(
                _run_bench, bench, machine, cache_dir, tracer.enabled
            )

    def stopped() -> SuiteReport:
        # Partial accounting still gets written: the rows of whatever
        # completed, handed back on the exception (the CLI persists it
        # before exiting).
        _summarize(report, rows)
        report.interrupted = True
        report.wall_seconds = time.perf_counter() - start
        return report

    def harvest(bench: str, future: Future) -> None:
        nonlocal replaced
        try:
            row, spans = future.result()
        except BrokenProcessPool:
            # A worker died (killed, or out of memory) and took the pool
            # with it.  The first time, every bench it still owed a row
            # goes to a fresh pool; after that, this bench's row is made
            # here, over what the store holds by now.
            if replaced:
                consume(figure9_row(runner, bench))
                return
            replaced = True
            pool.shutdown(wait=True)
            submit([
                owed for owed in suite[len(rows):]
                if owed in futures and futures[owed].exception() is not None
            ])
            harvest(bench, futures[bench])
            return
        if spans:
            tracer.absorb(spans)
        REGISTRY.merge(row.metrics)
        consume(row)

    try:
        suite = runner.benches()
        cold = [bench for bench in suite if not _stored(runner, bench)]
        workers = min(jobs, len(cold))
        try:
            if workers >= 2:
                submit(cold)
            # Rows are consumed in suite order, whatever order the
            # workers finish in.
            for bench in suite:
                making = bench
                if bench in futures:
                    harvest(bench, futures[bench])
                else:
                    consume(figure9_row(runner, bench))
            making = None
        except BaseException:
            # Clean teardown on interrupt (or any worker failure):
            # cancel everything still pending, then wait so no worker
            # process outlives this call.  Rows that did complete are
            # harvested into the partial report.
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
                for bench in suite[len(rows):]:
                    future = futures.get(bench)
                    if (
                        future is not None
                        and future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        harvest(bench, future)
            raise
        if pool is not None:
            pool.shutdown()
        _summarize(report, rows)
        report.wall_seconds = time.perf_counter() - start
        return Figure9Result.of(rows), report, runner
    except KeyboardInterrupt:
        raise SuiteInterrupted(stopped()) from None
    except Exception as exc:
        if making is None:
            raise
        raise SuiteInterrupted(stopped(), making) from exc


def effective_jobs(requested: int) -> int:
    """A ``--jobs`` cap on worker processes: ``0`` is one per CPU."""
    if requested < 0:
        raise ValueError(f"jobs must be >= 0, not {requested}")
    return requested or max(1, os.cpu_count() or 1)
