"""Trace-scheduler benchmarks (``repro bench-sched``).

Times multi-machine sweep replay -- the read path behind Figures 9-13,
the prefetching study and the latency sweep -- with the compiled
scheduling engine (compact traces +
:meth:`~repro.runtime.parallel.ParallelExecutor.replay_many`) against
the original per-event reference engine
(:func:`~repro.runtime.sched.schedule_invocation_reference` once per
trace per machine).

Every timed pair is also a differential check: per machine, the two
engines must produce field-exact :class:`ScheduleResult` columns,
identical adjusted cycle counts and identical
:class:`~repro.runtime.parallel.LoopRunStats`, or the run aborts.  The
compiled side is timed cold -- its per-trace program compilation is
redone inside the timed region -- so the reported speedup includes
every cost the new representation adds.

The JSON report (``BENCH_sched.json`` by convention) accumulates the
repo's perf trajectory across PRs: CI uploads one per commit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.loopnest import LoopId
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import (
    LoopRunStats,
    ParallelExecutor,
    ParallelRunResult,
    schedule_invocation,
)
from repro.runtime.interpreter import ExecutionResult
from repro.runtime.sched import (
    ScheduleColumns,
    ScheduleResult,
    schedule_invocation_reference,
)
from repro.runtime.trace import InvocationTrace

#: Benchmarks used by ``--quick`` (CI smoke).
QUICK_BENCHES = ("gzip", "mcf", "equake", "bzip2")


def null_tracer_probe(spans: int = 100_000) -> Dict[str, float]:
    """Time ``spans`` disabled-tracer span entries.

    The observability layer promises that leaving tracing off costs
    nothing measurable; this probe keeps that promise on the record.  It
    times :data:`~repro.obs.NULL_TRACER` directly (not the ambient
    tracer, which a ``--trace`` run may have swapped) against an empty
    loop of the same length, so the reported per-span cost excludes loop
    overhead."""
    from repro.obs import NULL_TRACER

    start = time.perf_counter()
    for _ in range(spans):
        with NULL_TRACER.span("probe"):
            pass
    traced_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(spans):
        pass
    empty_seconds = time.perf_counter() - start
    return {
        "spans": float(spans),
        "seconds": traced_seconds,
        "empty_loop_seconds": empty_seconds,
        "ns_per_span": max(0.0, traced_seconds - empty_seconds)
        / spans
        * 1e9,
    }


def sweep_machines(base: MachineConfig) -> List[MachineConfig]:
    """The benchmark's machine sweep: a superset of what one full
    evaluation round (core counts, prefetch modes, latency sweep, TSO
    and SMT toggles) replays against."""
    machines: List[MachineConfig] = []
    for cores in (1, 2, 4):
        if cores != base.cores:
            machines.append(base.with_cores(cores))
    for mode in (PrefetchMode.NONE, PrefetchMode.MATCHED, PrefetchMode.IDEAL):
        machines.append(base.with_prefetch(mode))
    for latency in (4, 32, 220):
        machines.append(
            dataclasses.replace(
                base,
                signal_latency=max(latency, 4),
                word_transfer_cycles=max(latency, 4),
                prefetched_signal_latency=min(4, max(latency, 1)),
            )
        )
    machines.append(dataclasses.replace(base, total_store_ordering=False))
    machines.append(dataclasses.replace(base, smt=False))
    return machines


def reference_replay(
    executor: ParallelExecutor,
    machine: MachineConfig,
    legacy_traces: Optional[Sequence[InvocationTrace]] = None,
) -> Tuple[ParallelRunResult, List[ScheduleResult]]:
    """Replay one machine with the per-event reference engine: every
    trace's sequential span in the recorded run replaced by its
    reference schedule under ``machine``.  Returns the run result plus
    the per-trace schedule column for field-exact comparison."""
    if legacy_traces is None:
        legacy_traces = [t.to_invocation_trace() for t in executor.traces]
    info_by_id = {info.loop_id: info for info in executor.infos}
    adjusted = executor.cycles
    loop_stats: Dict[LoopId, LoopRunStats] = {}
    schedules: List[ScheduleResult] = []
    for trace in legacy_traces:
        info = info_by_id[trace.loop_id]
        new = schedule_invocation_reference(trace, info, machine)
        adjusted += new.parallel_cycles - new.sequential_cycles
        stats = loop_stats.setdefault(
            trace.loop_id, LoopRunStats(loop_id=trace.loop_id)
        )
        stats.invocations += 1
        stats.iterations += trace.iteration_count
        stats.sequential_cycles += new.sequential_cycles
        stats.parallel_cycles += new.parallel_cycles
        stats.signals += new.signals
        stats.waits += new.waits
        stats.wait_stall_cycles += new.wait_stall_cycles
        stats.transfer_words += new.transfer_words
        stats.loads += trace.loads
        schedules.append(new)
    result = ExecutionResult(
        output=list(executor.output),
        cycles=adjusted,
        instructions=executor.instructions,
    )
    run = ParallelRunResult(
        result=result,
        machine=machine,
        loop_stats=loop_stats,
        traces=list(legacy_traces),
    )
    return run, schedules


def _reset_compiled_state(executor: ParallelExecutor) -> None:
    """Drop every compiled artifact so the next ``replay_many`` is cold:
    traces are regrouped, their programs recompile and every column is
    rescheduled."""
    for trace in executor.traces:
        trace._program = None
        trace._signature = None
    executor._schedules.clear()
    executor.grouping = None


def _compiled_columns(
    executor: ParallelExecutor, machines: Sequence[MachineConfig]
) -> Dict[str, List[ScheduleResult]]:
    """The compiled lane's schedule columns, keyed by machine
    fingerprint: :func:`schedule_invocation` once per trace x machine,
    independent of the executor's batched ``replay_many`` path."""
    grid = {machine.fingerprint(): machine for machine in machines}
    info_by_id = {info.loop_id: info for info in executor.infos}
    columns: Dict[str, List[ScheduleResult]] = {fp: [] for fp in grid}
    for trace in executor.traces:
        info = info_by_id[trace.loop_id]
        for fingerprint, machine in grid.items():
            columns[fingerprint].append(
                schedule_invocation(trace, info, machine)
            )
    return columns


@dataclass
class SweepTiming:
    """Timed sweep-replay comparison of all engines on one benchmark.

    Three lanes: the reference per-event interpreter, the per-machine
    compiled engine (``schedule_invocation`` per trace per machine) and
    the batched engine (the vectorized ``schedule_many``, what
    ``replay_many`` runs).
    """

    name: str
    traces: int
    iterations: int
    events: int
    machines: int
    reference_seconds: float
    compiled_seconds: float
    batched_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        if self.compiled_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.compiled_seconds

    @property
    def batched_speedup(self) -> float:
        """Batched-engine gain over the per-machine compiled engine."""
        if self.batched_seconds <= 0:
            return float("inf")
        return self.compiled_seconds / self.batched_seconds

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "traces": self.traces,
            "iterations": self.iterations,
            "events": self.events,
            "machines": self.machines,
            "reference_seconds": self.reference_seconds,
            "compiled_seconds": self.compiled_seconds,
            "batched_seconds": self.batched_seconds,
            "speedup": self.speedup,
            "batched_speedup": self.batched_speedup,
        }


@dataclass
class SchedBenchReport:
    """Everything one ``bench-sched`` invocation measured."""

    repeat: int
    machines: int
    programs: List[SweepTiming] = field(default_factory=list)
    #: :func:`null_tracer_probe` measurement of the disabled tracer.
    null_tracer: Dict[str, float] = field(default_factory=dict)

    @property
    def geomean_speedup(self) -> float:
        if not self.programs:
            return 1.0
        product = 1.0
        for timing in self.programs:
            product *= timing.speedup
        return product ** (1.0 / len(self.programs))

    @property
    def min_speedup(self) -> float:
        if not self.programs:
            return 1.0
        return min(t.speedup for t in self.programs)

    @property
    def aggregate_speedup(self) -> float:
        """Total-time ratio: weights each benchmark by its runtime."""
        reference = sum(t.reference_seconds for t in self.programs)
        compiled = sum(t.compiled_seconds for t in self.programs)
        if compiled <= 0:
            return float("inf")
        return reference / compiled

    @property
    def min_batched_speedup(self) -> float:
        if not self.programs:
            return 1.0
        return min(t.batched_speedup for t in self.programs)

    @property
    def aggregate_batched_speedup(self) -> float:
        """Batched vs per-machine compiled engine, runtime-weighted."""
        compiled = sum(t.compiled_seconds for t in self.programs)
        batched = sum(t.batched_seconds for t in self.programs)
        if batched <= 0:
            return float("inf")
        return compiled / batched

    def as_dict(self) -> dict:
        return {
            "repeat": self.repeat,
            "machines": self.machines,
            "programs": [t.as_dict() for t in self.programs],
            "null_tracer": self.null_tracer,
            "summary": {
                "geomean_speedup": self.geomean_speedup,
                "aggregate_speedup": self.aggregate_speedup,
                "min_speedup": self.min_speedup,
                "aggregate_batched_speedup": self.aggregate_batched_speedup,
                "min_batched_speedup": self.min_batched_speedup,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render(self) -> str:
        lines = [
            f"{'program':<10} {'traces':>7} {'events':>10} "
            f"{'reference s':>12} {'compiled s':>11} {'speedup':>8} "
            f"{'batched s':>10} {'batched x':>10}"
        ]
        for t in self.programs:
            lines.append(
                f"{t.name:<10} {t.traces:>7,} {t.events:>10,} "
                f"{t.reference_seconds:>12.3f} {t.compiled_seconds:>11.3f} "
                f"{t.speedup:>7.2f}x "
                f"{t.batched_seconds:>10.3f} {t.batched_speedup:>9.2f}x"
            )
        lines.append(
            f"{'geomean':<10} {'':>7} {'':>10} "
            f"{sum(t.reference_seconds for t in self.programs):>12.3f} "
            f"{sum(t.compiled_seconds for t in self.programs):>11.3f} "
            f"{self.geomean_speedup:>7.2f}x "
            f"{sum(t.batched_seconds for t in self.programs):>10.3f} "
            f"{self.aggregate_batched_speedup:>9.2f}x"
        )
        if self.null_tracer:
            lines.append(
                f"disabled tracer: "
                f"{self.null_tracer['ns_per_span']:.1f} ns/span over "
                f"{int(self.null_tracer['spans']):,} no-op spans"
            )
        return "\n".join(lines)


def _check_equivalence(
    name: str,
    executor: ParallelExecutor,
    machines: Sequence[MachineConfig],
    legacy_traces: Sequence[InvocationTrace],
) -> None:
    """Field-exact differential between all engines for one bench.

    ``replay_many`` fills its columns through the batched engine; the
    per-machine compiled engine recomputes them independently, and both
    must match the reference interpreter field for field."""
    compiled_runs = executor.replay_many(machines)
    compiled_columns = _compiled_columns(executor, machines)
    for machine in machines:
        fingerprint = machine.fingerprint()
        if (
            executor.schedules(machine) != compiled_columns[fingerprint]
        ):  # pragma: no cover - engine bug
            raise AssertionError(
                f"batched/per-machine schedule divergence on {name!r} "
                f"under {fingerprint}"
            )
    for machine, compiled in zip(machines, compiled_runs):
        reference, ref_schedules = reference_replay(
            executor, machine, legacy_traces
        )
        new_schedules = executor.schedules(machine)
        if new_schedules != ref_schedules:  # pragma: no cover - engine bug
            for idx, (new, ref) in enumerate(
                zip(new_schedules, ref_schedules)
            ):
                if new != ref:
                    raise AssertionError(
                        f"schedule divergence on {name!r} trace {idx} "
                        f"under {machine.fingerprint()}: "
                        f"compiled={new} reference={ref}"
                    )
        if (
            compiled.result.cycles != reference.result.cycles
            or compiled.loop_stats != reference.loop_stats
        ):  # pragma: no cover - engine bug
            raise AssertionError(
                f"replay divergence on {name!r} under "
                f"{machine.fingerprint()}: compiled cycles="
                f"{compiled.result.cycles} stats={compiled.loop_stats} "
                f"reference cycles={reference.result.cycles} "
                f"stats={reference.loop_stats}"
            )


def run_sched_bench(
    benches: Optional[Sequence[str]] = None,
    repeat: int = 1,
    machine: Optional[MachineConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SchedBenchReport:
    """Time sweep replay with all three engines on ``benches``.

    Uses the shared evaluation runner (honouring ``REPRO_EVAL_CACHE``)
    to obtain recorded traces; raises :class:`AssertionError` if the
    engines ever disagree on any schedule field.
    """
    from repro.evaluation.runner import default_runner

    runner = default_runner()
    names = list(benches) if benches is not None else runner.benches()
    machines = sweep_machines(runner.machine)
    report = SchedBenchReport(
        repeat=repeat,
        machines=len(machines),
        null_tracer=null_tracer_probe(),
    )
    for name in names:
        if progress:
            progress(name)
        run = runner.helix_run(name)
        executor = run.executor
        legacy_traces = [t.to_invocation_trace() for t in executor.traces]
        _check_equivalence(name, executor, machines, legacy_traces)

        reference_best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            for probe in machines:
                reference_replay(executor, probe, legacy_traces)
            reference_best = min(
                reference_best, time.perf_counter() - start
            )

        compiled_best = float("inf")
        for _ in range(repeat):
            _reset_compiled_state(executor)
            start = time.perf_counter()
            for fingerprint, column in _compiled_columns(
                executor, machines
            ).items():
                executor._schedules[fingerprint] = (
                    ScheduleColumns.from_results(column)
                )
            executor.replay_many(machines)
            compiled_best = min(compiled_best, time.perf_counter() - start)

        batched_best = float("inf")
        for _ in range(repeat):
            _reset_compiled_state(executor)
            start = time.perf_counter()
            executor.replay_many(machines)
            batched_best = min(batched_best, time.perf_counter() - start)

        report.programs.append(
            SweepTiming(
                name=name,
                traces=len(executor.traces),
                iterations=sum(t.iteration_count for t in executor.traces),
                events=sum(t.event_count for t in executor.traces),
                machines=len(machines),
                reference_seconds=reference_best,
                compiled_seconds=compiled_best,
                batched_seconds=batched_best,
            )
        )
    return report
