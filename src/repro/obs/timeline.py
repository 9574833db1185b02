"""Simulated-time per-core schedule timelines.

Where :mod:`repro.obs.tracer` records *wall-clock* spans of the pipeline
itself, this module exports the *simulated* schedule of a parallel run:
one Perfetto track per core of the modelled CMP, showing exactly where
every cycle of every invocation went -- compute segments, wait stalls,
iteration-start signal latency, data-transfer slots, thread
configuration and wind-down collection.  This makes the paper's
per-segment overhead attribution (HELIX Table 2 / Figures 8-9) directly
visible per machine configuration.

There is one placement walk (:func:`_place`, run-level driver
:func:`_walk_run`) and it has two consumers.  :func:`timeline_block`
(the ``timeline`` block of every ``suite --report``) only wants per-core
category totals, so the walk adds every interval it places to a
per-core total and builds no per-segment object at all;
:func:`run_timeline` (``repro trace --sim-timeline``) hands the same
walk a list and gets each interval as a :class:`Segment`, already in
absolute cycles.  The timing model is written once, in ``_place``.

The walk re-derives the placement with the same model as
:func:`~repro.runtime.sched.schedule_compact` (general path only; the
scheduler's fast paths are timing-equivalent shortcuts).  It works from
the grouping :func:`~repro.runtime.sched.schedule_many` works from,
which the executor keeps per trace list: traces by loop and shape, and
within a shape by distinct invocation.  One compiled
:class:`~repro.runtime.trace.TraceProgram` is read per shape --
compilation looks at event kinds, dependences, slicing and word counts,
never at timestamps, so a program's structural columns hold for every
trace of its shape and each trace's own timestamps are gathered from its
raw ``ev_at`` column through the program's ``raw`` index -- so
accounting a replayed run compiles nothing the scheduler had not
compiled.  When only totals are wanted, one member of each distinct
invocation is placed and its intervals are counted once per occurrence
(equal offsets give equal per-core buckets); the segment list places
every trace.

The totals match the :class:`~repro.runtime.sched.ScheduleResult`
aggregates *exactly* -- ``tests/test_timeline.py`` asserts this on the
full sched-differential machine grid, together with per-core
non-overlap, the ``parallel_cycles * cores`` accounting and the
equality of the two consumers.

Timestamps are simulated cycles exported as trace microseconds, so
Perfetto's time axis reads directly in kilocycles/megacycles.

This module depends on the runtime layer and is deliberately *not*
re-exported from :mod:`repro.obs` (which the runtime itself imports);
import it explicitly as ``repro.obs.timeline``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.loopinfo import ParallelizedLoop
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.trace import (
    CTRL_DEP,
    OP_NEXT,
    OP_SIGNAL,
    OP_WAIT,
    OP_WAIT_SYNC,
    OP_XFER,
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
    totals: List[Dict[str, int]],
    segments: Optional[List[Segment]],
    times: int = 1,
) -> int:
    """Place one invocation on the cores: the timing model, once.

    ``prog`` is the compiled program of *any* trace with ``trace``'s
    shape (:func:`~repro.runtime.sched.trace_signature`); only its
    shape-determined columns are read, and ``trace``'s own timestamps
    come from its raw ``ev_at`` column through ``prog.raw``.

    Every occupied interval is added to ``totals[core][category]``,
    ``times`` times over (the occurrences of this invocation in the run,
    which all place alike); when ``segments`` is a list it is also
    appended there, once, as a :class:`Segment` shifted by ``base``.
    Returns the invocation's
    parallel length (``ScheduleResult.parallel_cycles``); time zero is
    the start of thread configuration.  The trace must have iterations.
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
    emit = segments is not None

    if conf:
        for core in range(cores):
            totals[core]["config"] += conf * times
            if emit:
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

    op_, a1_, a2_ = prog.op, prog.a1, prog.a2
    pre_, off, tail = prog.pre, prog.off, prog.tail
    at_ = list(map(trace.ev_at.__getitem__, prog.raw))
    slots = [0] * prog.slot_count
    core_free = [conf] * cores
    helper_free = [0] * cores
    prev_sig: Dict[int, int] = {}
    prev_next: Optional[int] = None
    max_end = 0

    for i in range(n):
        core = i % cores
        row = totals[core]

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
                row["signal"] += (t - started) * times
                if emit:
                    segments.append(
                        Segment(core, "signal", base + started, base + t)
                    )

        cur_sig: Dict[int, int] = {}
        cur_next: Optional[int] = None
        # ``pos`` is where the open compute stretch began; a stall or a
        # transfer closes it, and so does the end of the iteration.
        pos = t
        computed = stalled = moved = 0
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
                    computed += t - pos
                    stalled += arrival - t
                    if emit:
                        if t > pos:
                            segments.append(
                                Segment(core, "compute", base + pos, base + t)
                            )
                        segments.append(
                            Segment(core, "stall", base + t, base + arrival)
                        )
                    t = arrival
                    pos = t
                slots[a2_[j]] = t
            elif o == OP_WAIT:
                t += barrier
                slots[a2_[j]] = t
            elif o == OP_SIGNAL:
                t += barrier
                cur_sig[a1_[j]] = t
            else:  # OP_XFER
                cost = a1_[j] * transfer
                if cost:
                    computed += t - pos
                    moved += cost
                    if emit:
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
        row["compute"] += (computed + t - pos) * times
        if stalled:
            row["stall"] += stalled * times
        if moved:
            row["transfer"] += moved * times
        if emit and t > pos:
            segments.append(Segment(core, "compute", base + pos, base + t))
        core_free[core] = t
        if t > max_end:
            max_end = t
        prev_sig = cur_sig
        prev_next = cur_next

    # Main thread collects the exit variable and stops parallel threads.
    if wind_down:
        totals[0]["collect"] += wind_down * times
        if emit:
            segments.append(
                Segment(
                    0, "collect", base + max_end, base + max_end + wind_down
                )
            )
    return max_end + wind_down


def _empty_totals(cores: int) -> List[Dict[str, int]]:
    return [{category: 0 for category in CATEGORIES} for _ in range(cores)]


def _walk_run(
    executor: ParallelExecutor,
    machine: MachineConfig,
    segments: Optional[List[Segment]],
) -> Tuple[List[Dict[str, int]], int]:
    """Walk the whole run under ``machine``, in absolute simulated cycles.

    Returns the per-core category totals and the run's total cycles
    under ``machine``; ``segments``, when a list, receives every
    interval as well (see :func:`_place`).  Gaps between invocations are
    the main thread's sequential execution, read off the recording's
    sequential clock: from one trace's ``end_cycles`` to the next one's
    ``start_cycles``.

    Traces are grouped as :func:`~repro.runtime.sched.schedule_many`
    groups them (the executor keeps the grouping), and every trace is
    placed through the program of its shape's first member -- the one
    the scheduler compiled -- so accounting compiles at most one
    program per shape.  Without ``segments`` only the totals are
    wanted, and invocations that ran alike place alike: one member of
    each distinct invocation is placed, its intervals counted once per
    occurrence, and its length reused by the others.
    """
    totals = _empty_totals(machine.cores)
    info_by_id = {info.loop_id: info for info in executor.infos}
    traces = executor.traces
    shapes, first, index = executor.invocation_groups()
    compiled = {
        distinct: traces[first[members[0]]]
        for members in shapes
        for distinct in members
    }
    index = index.tolist()
    totals_only = segments is None
    occurrences = Counter(index)
    lengths: Dict[int, int] = {}
    cursor = 0

    def sequential(length: int) -> None:
        """Main-thread execution outside the parallelized loops."""
        nonlocal cursor
        if length:
            totals[0]["sequential"] += length
            if segments is not None:
                segments.append(
                    Segment(0, "sequential", cursor, cursor + length)
                )
            cursor += length

    recorded_end = 0  # end of the previous invocation, recorded clock
    for trace, distinct in zip(traces, index):
        sequential(trace.start_cycles - recorded_end)
        if trace.iteration_count == 0:
            # The loop body never ran; the invocation is its sequential
            # span on the main core, under every machine.
            sequential(trace.end_cycles - trace.start_cycles)
        else:
            length = lengths.get(distinct)
            if length is None:
                length = _place(
                    compiled[distinct].program, trace,
                    info_by_id[trace.loop_id], machine,
                    cursor, totals, segments,
                    occurrences[distinct] if totals_only else 1,
                )
                if totals_only:
                    lengths[distinct] = length
            cursor += length
        recorded_end = trace.end_cycles
    sequential(executor.cycles - recorded_end)
    return totals, cursor


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
        _place(
            trace.program, trace, loop, machine,
            0, _empty_totals(machine.cores), segments,
        )
    return segments


def run_timeline(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> List[Segment]:
    """The whole run's per-core segments, in absolute simulated cycles.

    ``machine`` replays the recorded traces under a different
    configuration (like :meth:`ParallelExecutor.replay`).
    """
    segments: List[Segment] = []
    _walk_run(executor, machine or executor.machine, segments)
    return segments


def core_totals(
    segments: List[Segment], cores: int
) -> List[Dict[str, int]]:
    """Per-core cycle totals by category (every category always keyed)."""
    totals = _empty_totals(cores)
    for seg in segments:
        totals[seg.core][seg.category] += seg.end - seg.start
    return totals


def timeline_block(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> Dict[str, object]:
    """The JSON ``timeline`` block: per-core and total cycle buckets.

    Accumulated in the walk itself; no :class:`Segment` is built.
    ``total_cycles`` is the run's length under ``machine``
    (``executor.replay(machine).cycles``).
    """
    machine = machine or executor.machine
    per_core, total_cycles = _walk_run(executor, machine, None)
    return {
        "cores": machine.cores,
        "total_cycles": total_cycles,
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
