"""Simulated-time per-core schedule timelines.

Where :mod:`repro.obs.tracer` records *wall-clock* spans of the pipeline
itself, this module exports the *simulated* schedule of a parallel run:
one Perfetto track per core of the modelled CMP, showing exactly where
every cycle of every invocation went -- compute segments, wait stalls,
iteration-start signal latency, data-transfer slots, thread
configuration and wind-down collection.  This makes the paper's
per-segment overhead attribution (HELIX Table 2 / Figures 8-9) directly
visible per machine configuration.

The walk re-derives the placement from the compiled
:class:`~repro.runtime.trace.TraceProgram` with the same model as
:func:`~repro.runtime.sched.schedule_compact` (general path only; the
scheduler's fast paths are timing-equivalent shortcuts).  The segment
totals therefore match the :class:`~repro.runtime.sched.ScheduleResult`
aggregates *exactly* -- ``tests/test_timeline.py`` asserts this on the
full sched-differential machine grid, together with per-core
non-overlap and the ``parallel_cycles * cores`` accounting.

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
from repro.runtime.trace import (
    CTRL_DEP,
    OP_SIGNAL,
    OP_WAIT,
    OP_WAIT_SYNC,
    OP_XFER,
    CompactInvocationTrace,
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
    prog = trace.program
    n = len(prog.spans)
    segments: List[Segment] = []
    if n == 0:
        return segments

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
            segments.append(Segment(core, "config", 0, conf))

    mode_none = mode is PrefetchMode.NONE
    mode_ideal = mode is PrefetchMode.IDEAL
    helix = mode is PrefetchMode.HELIX
    do_helper = helix or mode is PrefetchMode.MATCHED
    helix_agenda: Tuple[int, ...] = ()
    ctrl_helix_agenda: Tuple[int, ...] = ()
    if helix:
        helix_agenda = tuple(loop.helper_order)
        ctrl_helix_agenda = (CTRL_DEP,) + helix_agenda

    op_, a1_, a2_, at_ = prog.op, prog.a1, prog.a2, prog.at
    pre_, off, tail = prog.pre, prog.off, prog.tail
    it_start, it_end = trace.it_start, trace.it_end
    slots = [0] * prog.slot_count
    core_free = [conf] * cores
    helper_free = [0] * cores
    prev_sig: Dict[int, int] = {}
    prev_next: Optional[int] = None
    max_end = 0

    for i in range(n):
        core = i % cores

        pf: Optional[Dict[int, int]] = None
        if do_helper and i > 0:
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
                segments.append(Segment(core, "signal", started, t))

        cur_sig: Dict[int, int] = {}
        cur_next: Optional[int] = None
        pos = t
        last = it_start[i]

        for j in range(off[i], off[i + 1]):
            t += at_[j] - last
            last = at_[j]
            if barrier:
                t += pre_[j] * barrier
            o = op_[j]
            if o == OP_WAIT_SYNC:
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
                        segments.append(Segment(core, "compute", pos, t))
                    segments.append(Segment(core, "stall", t, arrival))
                    t = arrival
                    pos = t
                slots[a2_[j]] = t
            elif o == OP_WAIT:
                t += barrier
                slots[a2_[j]] = t
            elif o == OP_SIGNAL:
                t += barrier
                cur_sig[a1_[j]] = t
            elif o == OP_XFER:
                cost = a1_[j] * transfer
                if cost:
                    if t > pos:
                        segments.append(Segment(core, "compute", pos, t))
                    segments.append(Segment(core, "transfer", t, t + cost))
                    t += cost
                    pos = t
            else:  # OP_NEXT
                cur_next = t

        t += it_end[i] - last
        if barrier:
            t += tail[i] * barrier
        if t > pos:
            segments.append(Segment(core, "compute", pos, t))
        core_free[core] = t
        if t > max_end:
            max_end = t
        prev_sig = cur_sig
        prev_next = cur_next

    # Main thread collects the exit variable and stops parallel threads.
    if wind_down:
        segments.append(Segment(0, "collect", max_end, max_end + wind_down))
    return segments


def run_timeline(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> List[Segment]:
    """The whole run's per-core segments, in absolute simulated cycles.

    ``machine`` replays the recorded traces under a different
    configuration (like :meth:`ParallelExecutor.replay`); gaps between
    invocations are the main thread's sequential execution, whose length
    is machine-independent, so they are carried over from the recorded
    (executed-machine) timeline.
    """
    if machine is None:
        machine = executor.machine
    exec_col = executor.schedules()
    replay_col = executor.schedules(machine)
    info_by_id = {info.loop_id: info for info in executor.infos}

    segments: List[Segment] = []
    cursor = 0
    exec_end = 0  # end of the previous invocation in *executed* time
    for trace, exec_sched, replay_sched in zip(
        executor.traces, exec_col, replay_col
    ):
        gap = trace.start_cycles - exec_end
        if gap:
            segments.append(Segment(0, "sequential", cursor, cursor + gap))
        base = cursor + gap
        if trace.iteration_count == 0:
            # The loop body never ran; the invocation is its sequential
            # span on the main core.
            if replay_sched.parallel_cycles:
                segments.append(
                    Segment(
                        0,
                        "sequential",
                        base,
                        base + replay_sched.parallel_cycles,
                    )
                )
        else:
            for seg in invocation_segments(
                trace, info_by_id[trace.loop_id], machine
            ):
                segments.append(
                    Segment(
                        seg.core,
                        seg.category,
                        base + seg.start,
                        base + seg.end,
                    )
                )
        cursor = base + replay_sched.parallel_cycles
        exec_end = trace.start_cycles + exec_sched.parallel_cycles

    tail = executor.cycles - exec_end
    if tail:
        segments.append(Segment(0, "sequential", cursor, cursor + tail))
    return segments


def core_totals(
    segments: List[Segment], cores: int
) -> List[Dict[str, int]]:
    """Per-core cycle totals by category (every category always keyed)."""
    totals = [{category: 0 for category in CATEGORIES} for _ in range(cores)]
    for seg in segments:
        totals[seg.core][seg.category] += seg.end - seg.start
    return totals


def timeline_block(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> Dict[str, object]:
    """The JSON ``timeline`` block: per-core and total cycle buckets."""
    if machine is None:
        machine = executor.machine
    segments = run_timeline(executor, machine)
    per_core = core_totals(segments, machine.cores)
    return {
        "cores": machine.cores,
        "total_cycles": executor.cycles if machine == executor.machine
        else None,
        "per_core": [
            {"core": i, **per_core[i]} for i in range(machine.cores)
        ],
        "totals": {
            category: sum(c[category] for c in per_core)
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
