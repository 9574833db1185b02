"""Process-parallel evaluation of the benchmark suite.

The per-benchmark pipelines are independent until the figures aggregate
them, so the suite fans out over a :class:`ProcessPoolExecutor`: each
worker runs one benchmark's compile -> profile -> select -> transform ->
execute chain against a *shared* artifact directory
(:class:`~repro.artifacts.ArtifactStore`) and persists every
interpretation artifact there.  The parent then replays
the same stage requests through its own :class:`EvaluationRunner`; they
all hit the freshly written disk entries, which merges the workers'
results into the parent's in-memory caches without pickling live
modules or executors across processes.  Generated interpreter code is
not an artifact: each worker's interpreters compile their own
benchmark's functions, and the parent, which reads every stage result
back from disk, compiles none.

Determinism: all stage artifacts are exact (recorded traces, not
timings), so ``--jobs N`` produces byte-identical figure output to a
sequential run -- only the wall-clock differs.  Workers that share one
machine also share the cache directory safely (atomic writes; at worst
two workers duplicate one computation).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.artifacts import code_version
from repro.evaluation import figures
from repro.evaluation.runner import EvaluationRunner, StageStats
from repro.obs import REGISTRY, get_tracer, metrics_delta, tracing
from repro.runtime.machine import MachineConfig
from repro.service.jobs import NULL_OBSERVER, EvaluationObserver


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
    """One worker's (or inline run's) per-benchmark accounting."""

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
    #: Aggregated stage counters: parent runner + all workers.
    stages: Dict[str, dict] = field(default_factory=dict)
    #: Per-analysis counters (the ``analysis:``-prefixed stage rows with
    #: the prefix stripped): hit/miss/invalidation accounting of the
    #: versioned :class:`~repro.analysis.manager.AnalysisManager`.
    analyses: Dict[str, dict] = field(default_factory=dict)
    #: Disk traffic of the parent's cache, per artifact kind.
    cache_traffic: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Where and on what the suite ran (:func:`suite_environment`).
    environment: Dict[str, object] = field(default_factory=dict)
    #: Per-benchmark simulated-time accounting: bench -> per-core
    #: busy/stall/signal/transfer cycle totals on the baseline machine
    #: (:func:`repro.obs.timeline.timeline_block`).
    timeline: Dict[str, dict] = field(default_factory=dict)
    #: Interpreter counters accumulated over this suite run (parent +
    #: all workers): ``interp.backend.*`` selections plus the
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
    bench: str, machine: MachineConfig, cache_root: str, trace: bool = False
) -> dict:
    """Worker entry point: one benchmark, results persisted to the
    shared cache.  Returns accounting only (artifacts travel by disk).

    With ``trace`` set the worker records its spans under a local tracer
    and ships them home serialized; they keep this process's pid, so the
    merged trace shows one track per worker."""
    start = time.perf_counter()
    spans: List[dict] = []
    metrics_before = REGISTRY.snapshot()
    runner = EvaluationRunner(machine, cache=cache_root)
    if trace:
        with tracing() as tracer:
            run = runner.helix_run(bench)
        spans = [event.as_dict() for event in tracer.finished()]
    else:
        run = runner.helix_run(bench)
    payload = BenchOutcome(
        bench=bench,
        wall_seconds=time.perf_counter() - start,
        output_matches=run.output_matches,
        stages=runner.stats.as_dict(),
    ).as_dict()
    payload["spans"] = spans
    # Ship only the delta this benchmark caused, so a reused worker
    # process never double-reports counts from an earlier benchmark.
    payload["metrics"] = metrics_delta(metrics_before, REGISTRY.snapshot())
    return payload


class SuiteInterrupted(Exception):
    """A suite run was interrupted (SIGINT/SIGTERM) mid-flight.

    Carries the partial :class:`SuiteReport` (completed benchmarks +
    merged stage counters, ``interrupted=True``) so callers can still
    persist what finished -- the CLI writes it to ``--report`` before
    exiting 130.
    """

    def __init__(self, report: "SuiteReport") -> None:
        super().__init__("suite run interrupted")
        self.report = report


def run_suite(
    machine: Optional[MachineConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    benches: Optional[Sequence[str]] = None,
    observer: Optional[EvaluationObserver] = None,
):
    """Evaluate the suite, optionally in parallel and/or disk-cached.

    Returns ``(figure9, report, runner)``: the rendered-figure result,
    the :class:`SuiteReport`, and the warm parent runner (reusable for
    further figures against the same caches).

    ``observer`` receives the parent runner's stage/artifact events
    plus one ``stage="bench"`` completion per worker benchmark -- CLI
    progress printing and the service daemon's event streams are both
    just observers here.

    On KeyboardInterrupt the worker pool is torn down cleanly (pending
    futures cancelled, running workers joined, nothing orphaned) and
    :class:`SuiteInterrupted` is raised carrying the partial report.
    """
    machine = machine or MachineConfig(cores=6)
    observer = observer or NULL_OBSERVER
    start = time.perf_counter()
    metrics_start = REGISTRY.snapshot()

    scratch = None
    cache_root = cache_dir
    if jobs > 1 and cache_root is None:
        # Workers hand artifacts to the parent through the cache, so
        # parallel mode always needs one; default to a scratch directory
        # that vanishes with the run.
        scratch = tempfile.TemporaryDirectory(prefix="repro-eval-cache-")
        cache_root = scratch.name

    try:
        runner = EvaluationRunner(
            machine, cache=cache_root or None, observer=observer
        )
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

        tracer = get_tracer()
        if jobs > 1:
            pool = ProcessPoolExecutor(max_workers=jobs)
            futures = [
                pool.submit(
                    _run_bench, bench, machine, cache_root,
                    tracer.enabled,
                )
                for bench in runner.benches()
            ]

            def consume(payload: dict) -> None:
                spans = payload.pop("spans", [])
                metrics = payload.pop("metrics", None)
                if spans:
                    tracer.absorb(spans)
                if metrics:
                    REGISTRY.merge(metrics)
                outcome = BenchOutcome(**payload)
                report.benches.append(outcome)
                observer.stage_completed(
                    None, outcome.bench, "bench", "compute",
                    outcome.wall_seconds,
                )

            consumed = 0
            try:
                # Completion order is racy; report in suite order.
                for future in futures:
                    consume(future.result())
                    consumed += 1
                pool.shutdown()
            except BaseException:
                # Clean teardown on interrupt (or any worker failure):
                # cancel everything still pending, then wait so no
                # worker process outlives this call.  Results that did
                # complete are harvested into the partial report.
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=True, cancel_futures=True)
                for future in futures[consumed:]:
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        consume(future.result())
                raise

        fig9 = figures.figure9(runner)

        stats = StageStats()
        for outcome in report.benches:
            stats.merge(outcome.stages)
        stats.merge(runner.stats.as_dict())
        # Simulated-time accounting: every figure-9 pipeline is warm in
        # the parent's memo by now, so this only walks stored traces.
        # It is a stage of the suite like the others, so it gets a row.
        from repro.obs.timeline import timeline_block

        for bench in runner.benches():
            run = runner.helix_run(bench)
            began = time.perf_counter()
            report.timeline[bench] = timeline_block(run.executor)
            stats.record("timeline", "compute", time.perf_counter() - began)
        report.stages = stats.as_dict()
        prefix = "analysis:"
        report.analyses = {
            stage[len(prefix):]: data
            for stage, data in report.stages.items()
            if stage.startswith(prefix)
        }
        report.speedups = {
            bench: {str(cores): speedup for cores, speedup in row.items()}
            for bench, row in fig9.speedups.items()
        }
        report.geomeans = {
            str(cores): fig9.geomean(cores) for cores in fig9.core_counts
        }
        if runner.artifacts.root is not None:
            report.cache_traffic = runner.artifacts.traffic()
        # Interpreter counters this run accumulated (worker deltas were
        # merged into the parent registry above, so one delta covers
        # both inline and parallel execution).
        interp_delta = metrics_delta(metrics_start, REGISTRY.snapshot())
        report.interp = {
            name: value
            for name, value in interp_delta["counters"].items()
            if name.startswith("interp.")
        }
        report.wall_seconds = time.perf_counter() - start
        return fig9, report, runner
    except KeyboardInterrupt:
        # Partial accounting still gets written: merge the stage
        # counters of whatever completed and hand the report back on
        # the exception (the CLI persists it before exiting 130).
        stats = StageStats()
        for outcome in report.benches:
            stats.merge(outcome.stages)
        stats.merge(runner.stats.as_dict())
        report.stages = stats.as_dict()
        report.interrupted = True
        report.wall_seconds = time.perf_counter() - start
        raise SuiteInterrupted(report) from None
    finally:
        if scratch is not None:
            scratch.cleanup()


def effective_jobs(requested: int) -> int:
    """Clamp a ``--jobs`` request to something sane for this host."""
    if requested < 1:
        return max(1, os.cpu_count() or 1)
    return requested
