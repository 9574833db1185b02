"""Simulated-time per-core schedule timelines.

Where :mod:`repro.obs.tracer` records *wall-clock* spans of the pipeline
itself, this module exports the *simulated* schedule of a parallel run:
one Perfetto track per core of the modelled CMP, showing exactly where
every cycle of every invocation went -- compute segments, wait stalls,
iteration-start signal latency, data-transfer slots, thread
configuration and wind-down collection.  This makes the paper's
per-segment overhead attribution (HELIX Table 2 / Figures 8-9) directly
visible per machine configuration.

Two consumers, two sources.  :func:`timeline_block` (the ``timeline``
block of every ``suite --report``) wants per-core category totals only,
and reads them off the schedule walk that times the run: each
:class:`~repro.runtime.sched.ScheduleColumns` carries the per-core
``compute`` / ``stall`` / ``signal`` / ``transfer`` cycles its walk
accumulated, so the block takes the executor's memoized column of the
machine (scheduling it first if it is missing) and adds thread
configuration, wind-down collection and the main thread's sequential
time in closed form.  It places nothing.

:func:`run_timeline` (``repro trace --sim-timeline``) wants every
interval, and gets them from the reference scheduler,
:func:`~repro.runtime.sched.schedule_invocation_reference`, which
reports each interval it places as it walks an invocation; this module
shifts them into the run's absolute cycles as :class:`Segment`\\ s and
fills the gaps between invocations with the main thread's sequential
time.  It walks no schedule of its own and compiles no trace program.

The reference is the oracle of both the compiled schedulers and the
block: ``tests/test_timeline.py`` asserts, on the full sched-differential
machine grid, that its segments' totals match the
:class:`~repro.runtime.sched.ScheduleResult` aggregates *exactly*, that
segments on one core never overlap and close to ``parallel_cycles *
cores``, and that :func:`timeline_block` equals its per-core totals on
every engine path of the scheduler.

Timestamps are simulated cycles exported as trace microseconds, so
Perfetto's time axis reads directly in kilocycles/megacycles.

This module depends on the runtime layer and is deliberately *not*
re-exported from :mod:`repro.obs` (which the runtime itself imports);
import it explicitly as ``repro.obs.timeline``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import RecordedRun
from repro.runtime.sched import CORE_FIELDS, schedule_invocation_reference

#: Segment categories, in display order.  ``config``/``collect`` are the
#: per-invocation thread setup and wind-down costs, ``sequential`` is
#: main-thread execution outside parallelized loops, and the remaining
#: four are the :meth:`ScheduleResult.overhead_breakdown` buckets.
CATEGORIES = (
    "sequential",
    "config",
    "compute",
    "stall",
    "signal",
    "transfer",
    "collect",
)


@dataclass
class Segment:
    """One contiguous occupation of one core, in simulated cycles."""

    core: int
    category: str
    start: int
    end: int

    @property
    def cycles(self) -> int:
        return self.end - self.start


def run_timeline(
    executor: RecordedRun,
    machine: Optional[MachineConfig] = None,
) -> List[Segment]:
    """The whole run's per-core segments, in absolute simulated cycles.

    ``machine`` replays the recorded traces under a different
    configuration (like :meth:`RecordedRun.replay`).  Each
    invocation is placed by the reference scheduler; gaps between
    invocations are the main thread's sequential execution, read off
    the recording's sequential clock: from one trace's ``end_cycles`` to
    the next one's ``start_cycles``.  Asks for no schedule column.
    """
    machine = machine or executor.machine
    info_by_id = {info.loop_id: info for info in executor.infos}
    segments: List[Segment] = []
    cursor = 0

    def sequential(length: int) -> None:
        """Main-thread execution outside the parallelized loops."""
        nonlocal cursor
        if length:
            segments.append(Segment(0, "sequential", cursor, cursor + length))
            cursor += length

    def place(core: int, category: str, start: int, end: int) -> None:
        segments.append(Segment(core, category, cursor + start, cursor + end))

    recorded_end = 0  # end of the previous invocation, recorded clock
    for trace in executor.traces:
        sequential(trace.start_cycles - recorded_end)
        if trace.iteration_count == 0:
            # The loop body never ran; the invocation is its sequential
            # span on the main core, under every machine.
            sequential(trace.end_cycles - trace.start_cycles)
        else:
            cursor += schedule_invocation_reference(
                trace.to_invocation_trace(),
                info_by_id[trace.loop_id],
                machine,
                place,
            ).parallel_cycles
        recorded_end = trace.end_cycles
    sequential(executor.cycles - recorded_end)
    return segments


def core_totals(
    segments: List[Segment], cores: int
) -> List[Dict[str, int]]:
    """Per-core cycle totals by category (every category always keyed)."""
    totals = [dict.fromkeys(CATEGORIES, 0) for _ in range(cores)]
    for seg in segments:
        totals[seg.core][seg.category] += seg.end - seg.start
    return totals


def timeline_block(
    executor: RecordedRun,
    machine: Optional[MachineConfig] = None,
) -> Dict[str, object]:
    """The JSON ``timeline`` block: per-core and total cycle buckets.

    ``compute`` / ``stall`` / ``signal`` / ``transfer`` per core are the
    accounting of the executor's schedule column of ``machine``
    (scheduled first if the memo lacks it).  The rest is closed form:
    every invocation that ran an iteration configures a thread on every
    core and is collected on core 0, and the recorded clock outside
    those invocations is core 0's ``sequential`` time.  ``total_cycles``
    is the run's length under ``machine``
    (``executor.replay(machine).cycles``).  Builds no :class:`Segment`.
    """
    machine = machine or executor.machine
    cores = machine.cores
    columns = executor.schedule_columns(machine)
    spans = [
        t.end_cycles - t.start_cycles
        for t in executor.traces
        if t.iteration_count
    ]
    conf = machine.config_cycles_per_thread * max(cores - 1, 1)
    per_core = [dict.fromkeys(CATEGORIES, 0) for _ in range(cores)]
    for name, row in zip(CORE_FIELDS, columns.per_core[:, :cores].tolist()):
        for totals, cycles in zip(per_core, row):
            totals[name] = cycles
    for totals in per_core:
        totals["config"] = conf * len(spans)
    per_core[0]["collect"] = (machine.signal_latency + cores - 1) * len(spans)
    per_core[0]["sequential"] = executor.cycles - sum(spans)
    return {
        "cores": cores,
        "total_cycles": executor.cycles
        + int(columns.parallel_cycles.sum())
        - int(columns.sequential_cycles.sum()),
        "per_core": [{"core": i, **row} for i, row in enumerate(per_core)],
        "totals": {
            category: sum(row[category] for row in per_core)
            for category in CATEGORIES
        },
    }


def timeline_events(
    segments: List[Segment],
    machine: MachineConfig,
    pid: int = 0,
) -> List[dict]:
    """Chrome trace events for the simulated timeline.

    One thread track per core under a dedicated process; cycles map 1:1
    to trace microseconds.  Feed the result to
    :func:`repro.obs.export.chrome_trace` as ``extra_events`` (or export
    it alone).
    """
    label = (
        f"simulated CMP: {machine.cores} cores, "
        f"{machine.effective_prefetch_mode.name.lower()} prefetch"
    )
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for core in range(machine.cores):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": core,
                "args": {"name": f"core {core}"},
            }
        )
    for seg in segments:
        events.append(
            {
                "name": seg.category,
                "cat": "sim",
                "ph": "X",
                "ts": seg.start,
                "dur": seg.end - seg.start,
                "pid": pid,
                "tid": seg.core,
            }
        )
    return events
