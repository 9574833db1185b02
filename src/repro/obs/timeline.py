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

:func:`run_timeline` (``repro trace --sim-timeline``) and
:func:`invocation_segments` want every interval, and get them from a
placement walk, :func:`_place`, that re-derives the schedule with the
same model as :func:`~repro.runtime.sched.schedule_compact` (general
path only; the scheduler's fast paths are timing-equivalent shortcuts)
and emits each interval as a :class:`Segment` in absolute cycles.  It
works from the grouping :func:`~repro.runtime.sched.schedule_many`
works from, which the executor keeps per trace list, and places every
trace through the program of its shape's first trace -- the one the
scheduler compiles -- so it compiles at most one program per shape.

The segment walk is the oracle of both the scheduler and the block:
``tests/test_timeline.py`` asserts, on the full sched-differential
machine grid, that its totals match the
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
from typing import Dict, List, Optional, Tuple

from repro.core.loopinfo import ParallelizedLoop
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import CORE_FIELDS
from repro.runtime.trace import (
    CTRL_DEP,
    OP_NEXT,
    OP_SIGNAL,
    OP_WAIT,
    OP_WAIT_SYNC,
    CompactInvocationTrace,
    TraceProgram,
)

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


def _place(
    prog: TraceProgram,
    trace: CompactInvocationTrace,
    loop: ParallelizedLoop,
    machine: MachineConfig,
    base: int,
    segments: List[Segment],
) -> int:
    """Place one invocation on the cores, appending every interval it
    occupies to ``segments`` as a :class:`Segment` shifted by ``base``.

    ``prog`` is the program of ``trace``'s shape
    (:func:`~repro.runtime.sched.trace_signature`); ``trace``'s own
    timestamps come from its raw ``ev_at`` column through ``prog.raw``
    (:meth:`~repro.runtime.trace.TraceProgram.stamps`).
    Returns the invocation's parallel length
    (``ScheduleResult.parallel_cycles``); time zero is the start of
    thread configuration.  The trace must have iterations.
    """
    it_start, it_end = trace.it_start, trace.it_end
    n = len(it_start)
    cores = machine.cores
    latency = machine.signal_latency
    fast = machine.prefetched_signal_latency
    mode = machine.effective_prefetch_mode
    transfer = machine.word_transfer_cycles
    counted = loop.counted
    conf = machine.config_cycles_per_thread * max(cores - 1, 1)
    wind_down = latency + cores - 1
    barrier = 0 if machine.total_store_ordering else machine.barrier_cycles

    if conf:
        for core in range(cores):
            segments.append(Segment(core, "config", base, base + conf))

    mode_none = mode is PrefetchMode.NONE
    mode_ideal = mode is PrefetchMode.IDEAL
    helix = mode is PrefetchMode.HELIX
    do_helper = helix or mode is PrefetchMode.MATCHED
    helix_agenda: Tuple[int, ...] = ()
    ctrl_helix_agenda: Tuple[int, ...] = ()
    if helix:
        helix_agenda = tuple(loop.helper_order)
        ctrl_helix_agenda = (CTRL_DEP,) + helix_agenda

    op_, a1_ = prog.op, prog.a1
    pre_, off, tail = prog.pre, prog.off, prog.tail
    at_ = prog.stamps(trace)
    core_free = [conf] * cores
    helper_free = [0] * cores
    prev_sig: Dict[int, int] = {}
    prev_next: Optional[int] = None
    max_end = 0

    for i in range(n):
        core = i % cores

        # Helper-thread prefetch agenda; a counted loop whose predecessor
        # signalled nothing has nothing to prefetch.
        pf: Optional[Dict[int, int]] = None
        if do_helper and i > 0 and (prev_sig or not counted):
            pf = {}
            if counted:
                agenda = helix_agenda if helix else prog.agendas[i]
            else:
                agenda = (
                    ctrl_helix_agenda
                    if helix
                    else (CTRL_DEP,) + prog.agendas[i]
                )
            cursor = helper_free[core]
            for dep in agenda:
                if dep in pf:
                    continue
                ts = prev_next if dep == CTRL_DEP else prev_sig.get(dep)
                if ts is None:
                    continue
                cursor = (cursor if cursor > ts else ts) + latency
                pf[dep] = cursor
            helper_free[core] = cursor

        t = core_free[core]
        if i > 0 and not counted:
            assert prev_next is not None, "iteration without start signal"
            ts = prev_next
            started = t
            if mode_none:
                t = (t if t > ts else ts) + latency
            elif mode_ideal:
                t = (t if t > ts else ts) + fast
            else:
                pull = (t if t > ts else ts) + latency
                done = pf.get(CTRL_DEP) if pf is not None else None
                if done is None:
                    t = pull
                else:
                    alt = t + fast
                    if done > alt:
                        alt = done
                    t = pull if pull < alt else alt
            if t > started:
                segments.append(
                    Segment(core, "signal", base + started, base + t)
                )

        cur_sig: Dict[int, int] = {}
        cur_next: Optional[int] = None
        # ``pos`` is where the open compute stretch began; a stall or a
        # transfer closes it, and so does the end of the iteration.
        pos = t
        last = it_start[i]

        for j in range(off[i], off[i + 1]):
            at = at_[j]
            t += at - last
            last = at
            if barrier:
                t += pre_[j] * barrier
            o = op_[j]
            if o == OP_NEXT:
                cur_next = t
            elif o == OP_WAIT_SYNC:
                t += barrier
                ts = prev_sig[a1_[j]]
                if mode_none:
                    arrival = (t if t > ts else ts) + latency
                elif mode_ideal:
                    arrival = (t if t > ts else ts) + fast
                else:
                    pull = (t if t > ts else ts) + latency
                    done = pf.get(a1_[j]) if pf is not None else None
                    if done is None:
                        arrival = pull
                    else:
                        alt = t + fast
                        if done > alt:
                            alt = done
                        arrival = pull if pull < alt else alt
                if arrival > t:
                    if t > pos:
                        segments.append(
                            Segment(core, "compute", base + pos, base + t)
                        )
                    segments.append(
                        Segment(core, "stall", base + t, base + arrival)
                    )
                    t = arrival
                    pos = t
            elif o == OP_WAIT:
                t += barrier
            elif o == OP_SIGNAL:
                t += barrier
                cur_sig[a1_[j]] = t
            else:  # OP_XFER
                cost = a1_[j] * transfer
                if cost:
                    if t > pos:
                        segments.append(
                            Segment(core, "compute", base + pos, base + t)
                        )
                    segments.append(
                        Segment(core, "transfer", base + t, base + t + cost)
                    )
                    t += cost
                    pos = t

        t += it_end[i] - last
        if barrier:
            t += tail[i] * barrier
        if t > pos:
            segments.append(Segment(core, "compute", base + pos, base + t))
        core_free[core] = t
        if t > max_end:
            max_end = t
        prev_sig = cur_sig
        prev_next = cur_next

    # Main thread collects the exit variable and stops parallel threads.
    if wind_down:
        segments.append(
            Segment(0, "collect", base + max_end, base + max_end + wind_down)
        )
    return max_end + wind_down


def invocation_segments(
    trace: CompactInvocationTrace,
    loop: ParallelizedLoop,
    machine: MachineConfig,
) -> List[Segment]:
    """Per-core segments of one invocation, in invocation-local time.

    Time zero is the start of thread configuration; the last segment
    ends at ``ScheduleResult.parallel_cycles``.  Zero-iteration
    invocations yield no segments (the caller shows their sequential
    span on the main core).
    """
    segments: List[Segment] = []
    if trace.iteration_count:
        _place(trace.program, trace, loop, machine, 0, segments)
    return segments


def run_timeline(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> List[Segment]:
    """The whole run's per-core segments, in absolute simulated cycles.

    ``machine`` replays the recorded traces under a different
    configuration (like :meth:`ParallelExecutor.replay`).  Gaps between
    invocations are the main thread's sequential execution, read off
    the recording's sequential clock: from one trace's ``end_cycles`` to
    the next one's ``start_cycles``.  Asks for no schedule column.
    """
    machine = machine or executor.machine
    info_by_id = {info.loop_id: info for info in executor.infos}
    traces = executor.traces
    shapes, first, index = executor.invocation_groups()
    compiled = {
        distinct: traces[first[members[0]]]
        for members in shapes
        for distinct in members
    }
    segments: List[Segment] = []
    cursor = 0

    def sequential(length: int) -> None:
        """Main-thread execution outside the parallelized loops."""
        nonlocal cursor
        if length:
            segments.append(Segment(0, "sequential", cursor, cursor + length))
            cursor += length

    recorded_end = 0  # end of the previous invocation, recorded clock
    for trace, distinct in zip(traces, index.tolist()):
        sequential(trace.start_cycles - recorded_end)
        if trace.iteration_count == 0:
            # The loop body never ran; the invocation is its sequential
            # span on the main core, under every machine.
            sequential(trace.end_cycles - trace.start_cycles)
        else:
            cursor += _place(
                compiled[distinct].program, trace,
                info_by_id[trace.loop_id], machine, cursor, segments,
            )
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
    executor: ParallelExecutor,
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
