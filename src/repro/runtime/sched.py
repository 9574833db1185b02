"""Invocation schedulers: two compiled engines and their reference.

:func:`schedule_compact` is the scalar production scheduler.  It
consumes the :class:`~repro.runtime.trace.TraceProgram` of the trace's
shape and the trace's own stamps, and reconstructs the parallel
schedule of one invocation under a
:class:`~repro.runtime.machine.MachineConfig`.  Because duplicate
filtering, producer sets, word counts and wait/signal pairing were
resolved at pack time, the per-machine walk touches only integers plus
the previous iteration's signal timetable, and a **counted DOALL**
shape (counted loop, no waits/signals/transfers at all) skips the walk
entirely: the finish time is ``conf + max per-core span sum``, computed
by slicing the trace's iteration stamps.

:func:`schedule_many` is the batched entry point behind machine-grid
sweeps and behind every executor's timing.  It groups traces by shape
(:func:`trace_signature`) and, within a shape, into *distinct
invocations* (equal stamp columns: stamps are offsets from the start of
the invocation), schedules each distinct invocation once and fans the
result out by index.  A shape whose ``distinct members x machines``
reach :data:`_MIN_COHORT` runs through the numpy-vectorized
:func:`_schedule_cohort` walk, whose vector axis is that product: one
opcode pass advances every member under every machine of a prefetch-mode
class, and axes wider than :data:`_MAX_WIDTH` are walked in chunks.
Smaller shapes -- a few traces under one to three machines -- are
scheduled per member and machine by :func:`schedule_compact`, with which
every column is field-exact.  Either way a shape's first trace is
compiled and its program handed to the others.  Results are columnar
(:class:`ScheduleColumns`: one int64 array per :class:`ScheduleResult`
field); the objects are built only for callers that ask for them.

Both engines also account the time per core as they walk: what each
core of each machine spent computing, stalled, waiting for the control
signal and forwarding data over the whole trace list
(:attr:`ScheduleColumns.per_core`, the report's ``timeline`` block).
Each core's clock runs from thread configuration through exactly those
four, so one of them is always what is left of the clock: compute in
the scalar engine, which keeps stalls per core; stall in the cohort
walk, which has compute and forwarding in closed form per core
count.

:func:`schedule_invocation_reference` is the original per-event
interpreter over the raw :class:`~repro.runtime.trace.InvocationTrace`.
It is the differential oracle -- ``tests/test_sched_differential``
enforces field-exact :class:`ScheduleResult` equality between the
engines, and keeps the scalar engine at least 1.1x faster than it --
and the simulated timeline's placement: asked to, it reports every
interval a core spends configuring, computing, stalled, waiting for the
control signal, forwarding data or collecting as it walks
(:func:`repro.obs.timeline.run_timeline`).  It is written for clarity,
not speed.

All engines implement the same model (see
:mod:`repro.runtime.parallel` for the methodology): per-core clocks with
round-robin iteration assignment, pull-based signal completion
``max(t, ts) + L``, helper-thread prefetch agendas, data forwarding
charged per word actually produced by the predecessor, and memory
barriers on non-TSO machines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.loopinfo import LoopInfo
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.trace import (
    CTRL_DEP,
    OP_SIGNAL,
    OP_WAIT,
    OP_WAIT_SYNC,
    OP_XFER,
    CompactInvocationTrace,
    InvocationTrace,
    TraceProgram,
)


@dataclass
class ScheduleResult:
    """Timing of one invocation under a specific machine."""

    parallel_cycles: int
    sequential_cycles: int
    signals: int = 0
    waits: int = 0
    wait_stall_cycles: int = 0
    transfer_words: int = 0
    #: Busy compute cycles across all cores: every iteration's
    #: sequential span plus the memory-barrier cost of each recorded
    #: wait/signal (zero on TSO machines).
    compute_cycles: int = 0
    #: Cycles spent receiving iteration-start control signals (the
    #: successor's wait on the predecessor's IterationFlag store);
    #: always zero for counted loops, which derive iteration numbers
    #: locally.
    signal_cycles: int = 0
    #: Cycles spent forwarding data words between cores.
    transfer_cycles: int = 0

    def overhead_breakdown(self) -> Dict[str, int]:
        """Where the busy cycles of this invocation went.

        The four buckets are disjoint: together with the per-thread
        configuration cost, the wind-down collection and per-core idle
        time they account exactly for ``parallel_cycles * cores`` (the
        reference scheduler places every bucket on its core for the
        simulated-time timeline; ``tests/test_timeline.py`` asserts the
        accounting).
        """
        return {
            "compute": self.compute_cycles,
            "wait_stall": self.wait_stall_cycles,
            "signal": self.signal_cycles,
            "transfer": self.transfer_cycles,
        }


#: The per-core buckets of the schedulers' accounting
#: (:attr:`ScheduleColumns.per_core`): the four
#: :meth:`ScheduleResult.overhead_breakdown` buckets, under the names of
#: the simulated-time timeline's categories.
CORE_FIELDS = ("compute", "stall", "signal", "transfer")


def schedule_compact(
    trace: CompactInvocationTrace,
    loop: LoopInfo,
    machine: MachineConfig,
    per_core: Optional[List[List[int]]] = None,
    times: int = 1,
) -> ScheduleResult:
    """Reconstruct the parallel schedule of one invocation (compiled).

    Field-exact with :func:`schedule_invocation_reference` on the
    equivalent :class:`InvocationTrace`.  ``per_core``, when given, holds
    one list per :data:`CORE_FIELDS` bucket, ``machine.cores`` long, and
    the invocation's cycles in each bucket are added to it by the core
    that spent them, ``times`` over (the batched scheduler passes the
    occurrences of a distinct invocation).
    """
    seq = trace.end_cycles - trace.start_cycles
    it_start, it_end = trace.it_start, trace.it_end
    n = len(it_start)
    if n == 0:
        # Zero-iteration invocation: the loop body never ran, so no
        # threads were configured and nothing needs collecting -- the
        # invocation costs exactly its sequential span.
        return ScheduleResult(parallel_cycles=seq, sequential_cycles=seq)

    prog = trace.program
    cores = machine.cores
    latency = machine.signal_latency
    counted = loop.counted
    conf = machine.config_cycles_per_thread * max(cores - 1, 1)
    # The main thread collects the exit variable and stops the parallel
    # threads once the last iteration retires.
    wind_down = latency + cores - 1
    transfer = machine.word_transfer_cycles
    # Section 2.3: without total store ordering every synchronizing load
    # and store needs a memory barrier.
    barrier = 0 if machine.total_store_ordering else machine.barrier_cycles

    signals = prog.signals if counted else prog.signals + prog.next_iters
    stats = ScheduleResult(
        parallel_cycles=0,
        sequential_cycles=seq,
        signals=signals,
        waits=prog.waits,
        transfer_words=prog.transfer_words,
    )

    # Fast path: counted DOALL.  No waits, signals or transfers exist
    # anywhere in the trace (duplicates would imply a kept first
    # occurrence, so there are no elided barrier events either) and a
    # counted loop ignores next_iter for timing, so every core just runs
    # its round-robin share of the spans back to back.
    if counted and prog.active_ops == 0:
        spans = [
            sum(it_end[c::cores]) - sum(it_start[c::cores])
            for c in range(min(cores, n))
        ]
        stats.parallel_cycles = conf + max(spans) + wind_down
        stats.compute_cycles = sum(spans)
        if per_core is not None:
            computes = per_core[0]
            for c, span in enumerate(spans):
                computes[c] += span * times
        return stats

    stats.transfer_cycles = prog.transfer_words * transfer
    fast = machine.prefetched_signal_latency
    mode = machine.effective_prefetch_mode

    op_, a1_ = prog.op, prog.a1
    at_ = prog.stamps(trace)
    pre_, off, tail = prog.pre, prog.off, prog.tail

    mode_none = mode is PrefetchMode.NONE
    mode_ideal = mode is PrefetchMode.IDEAL
    helix = mode is PrefetchMode.HELIX
    do_helper = helix or mode is PrefetchMode.MATCHED
    helix_agenda: Tuple[int, ...] = ()
    ctrl_helix_agenda: Tuple[int, ...] = ()
    if helix:
        helix_agenda = tuple(loop.helper_order)
        ctrl_helix_agenda = (CTRL_DEP,) + helix_agenda

    core_free = [conf] * cores
    helper_free = [0] * cores
    # Per core: cycles stalled, waiting for the control signal and
    # forwarding data.  What else a core's clock advanced is compute.
    stalls = [0] * cores
    sigs = [0] * cores
    moves = [0] * cores
    prev_sig: Dict[int, int] = {}
    prev_next: Optional[int] = None
    max_end = 0

    for i in range(n):
        core = i % cores

        # Helper-thread prefetch agenda for this iteration.
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

        # Iteration start: counted loops derive their iteration numbers
        # locally (Step 3); other loops wait for the predecessor's
        # control signal (the IterationFlag store).
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
            sigs[core] += t - started

        cur_sig: Dict[int, int] = {}
        cur_next: Optional[int] = None
        last = it_start[i]

        for j in range(off[i], off[i + 1]):
            t += at_[j] - last
            last = at_[j]
            if barrier:
                t += pre_[j] * barrier
            o = op_[j]
            if o == OP_WAIT_SYNC:
                t += barrier
                ts = prev_sig[a1_[j]]  # pack-time guarantee: present
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
                    stalls[core] += arrival - t
                    t = arrival
            elif o == OP_WAIT:
                t += barrier
            elif o == OP_SIGNAL:
                t += barrier
                cur_sig[a1_[j]] = t
            elif o == OP_XFER:
                moves[core] += a1_[j] * transfer
                t += a1_[j] * transfer
            else:  # OP_NEXT
                cur_next = t

        t += it_end[i] - last
        if barrier:
            t += tail[i] * barrier
        core_free[core] = t
        if t > max_end:
            max_end = t
        prev_sig = cur_sig
        prev_next = cur_next

    stats.parallel_cycles = max_end + wind_down
    stats.wait_stall_cycles = sum(stalls)
    stats.signal_cycles = sum(sigs)
    # A core's clock ran from ``conf`` through exactly its iterations'
    # signal waits, compute, stalls and transfers.
    computes = [
        free - conf - stalled - signalled - moved
        for free, stalled, signalled, moved in zip(
            core_free, stalls, sigs, moves
        )
    ]
    stats.compute_cycles = sum(computes)
    if per_core is not None:
        for into, cycles in zip(per_core, (computes, stalls, sigs, moves)):
            for c, value in enumerate(cycles):
                if value:
                    into[c] += value * times
    return stats


#: Agenda-entry sentinel: prefetch the predecessor's control signal
#: (the IterationFlag store) rather than a data dependence.
_CTRL_SRC = -2


def _resolve_agendas(
    prog: TraceProgram, helix_order: Tuple[int, ...], counted: bool
) -> Tuple[List[int], List[int], List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Resolve both helper-thread agenda flavours to signal-op indices.

    Machine-independent: done once per cohort and shared by every helper
    machine in a :func:`_schedule_cohort` call.  For each iteration
    the deduplicated agenda (``MATCHED``: the iteration's wait deps;
    ``HELIX``: the loop's static helper order; both prefixed with the
    control signal on non-counted loops) is reduced to the entries whose
    dependence the previous iteration actually signalled, each entry
    being the flat op index of that signal (or :data:`_CTRL_SRC`).
    Consumers are resolved to positions in the entry list: ``mt_pos[j]``
    / ``hx_pos[j]`` give op ``j``'s prefetch slot, -1 when the helper
    never prefetched its dependence.
    """
    op_, a1_, off = prog.op, prog.a1, prog.off
    n = prog.iterations
    mt_pos = [-1] * len(op_)
    hx_pos = [-1] * len(op_)
    mt_entries: List[Tuple[int, ...]] = [()] * n
    hx_entries: List[Tuple[int, ...]] = [()] * n
    prev_sig_op: Dict[int, int] = {}
    for i in range(n):
        lo, hi = off[i], off[i + 1]
        if i > 0:
            ment: List[int] = []
            mpos: Dict[int, int] = {}
            hent: List[int] = []
            hpos: Dict[int, int] = {}
            if not counted:
                # The control signal is always available (every
                # non-last iteration of a non-counted loop executed a
                # next_iter) and always leads the agenda.
                mpos[CTRL_DEP] = 0
                ment.append(_CTRL_SRC)
                hpos[CTRL_DEP] = 0
                hent.append(_CTRL_SRC)
            for dep in prog.agendas[i]:
                if dep not in mpos:
                    source = prev_sig_op.get(dep)
                    if source is not None:
                        mpos[dep] = len(ment)
                        ment.append(source)
            for dep in helix_order:
                if dep not in hpos:
                    source = prev_sig_op.get(dep)
                    if source is not None:
                        hpos[dep] = len(hent)
                        hent.append(source)
            mt_entries[i] = tuple(ment)
            hx_entries[i] = tuple(hent)
            for j in range(lo, hi):
                if op_[j] == OP_WAIT_SYNC:
                    dep = a1_[j]
                    mt_pos[j] = mpos.get(dep, -1)
                    hx_pos[j] = hpos.get(dep, -1)
        cur: Dict[int, int] = {}
        for j in range(lo, hi):
            if op_[j] == OP_SIGNAL:
                cur[a1_[j]] = j
        prev_sig_op = cur
    return mt_pos, hx_pos, mt_entries, hx_entries


#: Fewest columns (distinct members x machines) of one shape worth the
#: numpy dispatch overhead; smaller groups take the scalar engine per
#: member and machine instead.
_MIN_COHORT = 12

#: Most columns one pass of the vector walk carries.  Wider axes are
#: walked in chunks of this many columns so that the signal timetable
#: of a chunk stays cache-resident: the 1,231
#: distinct invocations of gzip's largest shape under an 80-machine
#: grid sweep in 0.17 s at 2-4k columns a chunk, 0.20-0.24 s at 8k and
#: 0.22-0.27 s in one piece.
_MAX_WIDTH = 4096


#: A :class:`ScheduleResult`'s fields as a tuple, in dataclass order.
_FIELDS_OF = attrgetter(*ScheduleResult.__dataclass_fields__)


class ScheduleColumns:
    """:class:`ScheduleResult` fields of many invocations, as arrays.

    ``data`` is one int64 array whose first axis runs over
    :attr:`FIELDS` (the dataclass's own field order) and whose last
    axis runs over invocations: ``(field, machine, invocation)`` as
    :func:`schedule_many` returns it, ``(field, invocation)`` for the
    one machine :meth:`column` selects (what the executor memoizes per
    machine fingerprint).  Each field also reads as an attribute
    (``columns.parallel_cycles``); :meth:`results` builds the
    :class:`ScheduleResult` objects for whoever asks.  ``grouping`` is
    the distinct-invocation index :func:`schedule_many` worked from,
    kept by callers that schedule the same traces again.

    ``per_core`` is the per-core accounting of the same walk: an int64
    array ``(bucket, machine, core)`` over :data:`CORE_FIELDS`, or
    ``(bucket, core)`` in one machine's column, holding the cycles each
    core spent in each bucket over the whole trace list, every trace
    counted (distinct invocations once per occurrence).  Summed over the
    cores it is the sum of the bucket's field; cores past a machine's
    count read 0.  Columns built :meth:`from_results` have none.
    """

    FIELDS = tuple(ScheduleResult.__dataclass_fields__)

    def __init__(self, data, grouping=None, per_core=None) -> None:
        self.data = data
        self.grouping = grouping
        self.per_core = per_core

    def __len__(self) -> int:
        """The number of invocations."""
        return self.data.shape[-1]

    def __getattr__(self, name: str):
        try:
            return self.data[self.FIELDS.index(name)]
        except ValueError:
            raise AttributeError(name) from None

    @classmethod
    def from_results(
        cls, results: Sequence[ScheduleResult]
    ) -> "ScheduleColumns":
        """One machine's column from per-invocation results."""
        import numpy as np

        rows = np.array(list(map(_FIELDS_OF, results)), dtype=np.int64)
        return cls(rows.reshape(len(results), len(cls.FIELDS)).T)

    def column(self, mi: int) -> "ScheduleColumns":
        """The column of the ``mi``-th machine asked for."""
        return ScheduleColumns(
            self.data[:, mi],
            per_core=None if self.per_core is None else self.per_core[:, mi],
        )

    def results(self) -> List[ScheduleResult]:
        """One machine's column as :class:`ScheduleResult` objects."""
        return [ScheduleResult(*row) for row in self.data.T.tolist()]


def trace_signature(trace: CompactInvocationTrace) -> bytes:
    """Shape key of a trace: a digest of everything compilation depends on.

    :meth:`CompactInvocationTrace._compile` inspects only the event
    *kinds*, *dependences*, per-iteration slicing and ``xfer`` word
    counts -- never timestamps -- so two traces with equal signatures
    compile to the same :class:`TraceProgram`: a program is one per
    shape.  :func:`schedule_many` groups traces by this key, compiles
    each shape's first trace, hands that program to the others, and
    schedules the shape in one vectorized walk or one scalar walk per
    member, each reading its trace's own stamps.  Computed once per trace
    and cached on it, which is why it is a 16-byte digest and not the
    columns themselves.
    """
    signature = trace._signature
    if signature is None:
        digest = hashlib.blake2b(digest_size=16)
        for column in (
            trace.ev_off, trace.ev_kind, trace.ev_dep, trace.ev_words
        ):
            digest.update(len(column).to_bytes(8, "little"))
            digest.update(column)
        signature = trace._signature = digest.digest()
    return signature


@lru_cache(maxsize=256)
def _iteration_cores(iterations: int, counts: Tuple[int, ...], top: int):
    """Which core runs each iteration, as an int64 one-hot matrix:
    row ``k * top + c`` selects the iterations core ``c`` runs when the
    machine has ``counts[k]`` cores (iteration ``i`` on core
    ``i % cores``; rows past a core count select nothing)."""
    import numpy as np

    of_core = np.arange(iterations) % np.array(counts)[:, None, None]
    onehot = (
        (of_core == np.arange(top)[:, None])
        .reshape(len(counts) * top, iterations)
        .astype(np.int64)
    )
    onehot.flags.writeable = False  # shared by every caller
    return onehot


def _schedule_cohort(
    traces: List[CompactInvocationTrace],
    loop: LoopInfo,
    grid,
    weights,
):
    """Schedule shape-identical traces under every machine in one walk.

    The vector axis is ``machines x traces``: per-core clocks and signal
    timetables are integer vectors with one column per (machine,
    trace) pair and every opcode advances all of them at
    once, so the per-op interpretive overhead is paid once per shape
    instead of once per trace per machine.  Every machine field enters
    the walk as a value (``max``/``min``/``+`` only) and is broadcast
    as a per-column vector against the per-trace time deltas; only two
    things change the walk's structure.  The prefetch mode picks the
    agenda, so machines are walked in up to three classes (``NONE`` and
    ``IDEAL`` share one walk, differing in what a completed wait costs;
    ``HELIX`` and ``MATCHED`` take one each).  The core count picks the
    clock row of iteration ``i`` (``i % cores``), which is a row
    gather/scatter on the ``(max cores, width)`` clock arrays, and a
    plain row when the columns of a walk agree on it.  Axes wider than
    :data:`_MAX_WIDTH` are walked in chunks.

    Only the representative trace's program is read; every trace's own
    stamps are gathered from its raw event columns through the
    program's ``raw`` index (see :func:`trace_signature` for why that
    is sound).

    The per-core accounting weights each trace by ``weights`` (its
    occurrences in the run) and sums the columns of each machine.  What
    a core computes and forwards is a closed form per core count: its
    iterations' spans, barriers and words.  What else its clock
    advanced is control-signal wait -- kept per iteration for a
    non-counted loop and reduced to the core that ran it -- and stall.
    The clocks of every chunk are columns of one array, so this is read
    off once per shape, not per chunk.

    ``grid`` holds the machines as :func:`schedule_many` tabulates
    them, one row per quantity the walk reads.  Returns the
    :class:`ScheduleColumns` ``data`` block of the cohort,
    ``data[f, mi, c]`` being field-exact with
    ``schedule_compact(traces[c], loop, machines[mi])``, and the
    cohort's ``per_core`` block ``(bucket, machine, core)``.
    """
    import numpy as np

    cores_v, lat_v, _fast, _wait, xfr_v, bar_v, conf_v, mode_v = grid
    # The main thread collects the exit variable and stops the parallel
    # threads once the last iteration retires.
    wind_v = lat_v + cores_v - 1
    prog = traces[0].program
    cohort = len(traces)
    n = prog.iterations
    counted = loop.counted
    data = np.zeros(
        (len(ScheduleColumns.FIELDS), grid.shape[1], cohort), dtype=np.int64
    )
    per_core = np.zeros(
        (len(CORE_FIELDS), grid.shape[1], int(cores_v.max())), dtype=np.int64
    )
    col = dict(zip(ScheduleColumns.FIELDS, data))
    seqs = np.array(
        [tr.end_cycles - tr.start_cycles for tr in traces], dtype=np.int64
    )
    col["sequential_cycles"][:] = seqs
    if n == 0:
        col["parallel_cycles"][:] = seqs
        return data, per_core

    def stacked(name: str) -> "np.ndarray":
        return np.array(
            [np.frombuffer(getattr(tr, name), dtype=np.int64) for tr in traces]
        )

    it_s, it_e = stacked("it_start"), stacked("it_end")
    sp = it_e - it_s  # per-iteration spans, (cohort, n)

    col["signals"][:] = (
        prog.signals if counted else prog.signals + prog.next_iters
    )
    col["waits"][:] = prog.waits
    col["transfer_words"][:] = prog.transfer_words
    col["compute_cycles"][:] = (
        sp.sum(axis=1) + prog.barrier_events * bar_v[:, None]
    )
    col["transfer_cycles"][:] = prog.transfer_words * xfr_v[:, None]

    # What a core computes and forwards depends on the core count only:
    # its iterations' spans, one barrier per recorded wait and signal,
    # and the words its iterations receive.  Counted DOALL is then a
    # closed form too: the busiest core's spans, shared across
    # latency/prefetch sweeps exactly like the scalar engine's.
    top_all = per_core.shape[2]
    counts, of_count = np.unique(cores_v, return_inverse=True)
    by_core = (
        _iteration_cores(n, tuple(counts.tolist()), top_all)
        @ np.column_stack(
            [
                sp.T,
                np.frombuffer(prog.barriers, dtype=np.int64),
                np.frombuffer(prog.words, dtype=np.int64),
            ]
        )
    ).reshape(len(counts), top_all, cohort + 2)  # per core count
    spans = by_core[:, :, :cohort]
    occurrences = int(weights.sum())
    per_core[0] = (spans @ weights)[of_count] + bar_v[:, None] * (
        by_core[of_count, :, cohort] * occurrences
    )
    per_core[3] = xfr_v[:, None] * (
        by_core[of_count, :, cohort + 1] * occurrences
    )
    if counted and prog.active_ops == 0:
        col["parallel_cycles"][:] = (
            spans.max(axis=1)[of_count] + (conf_v + wind_v)[:, None]
        )
        return data, per_core

    op_, a1_, src_ = prog.op, prog.a1, prog.src
    pre_, off, tail_ = prog.pre, prog.off, prog.tail
    has_next = prog.has_next
    nops = len(op_)

    # Per-op time deltas, transposed so ``dt[j]`` is a contiguous
    # cohort-wide vector: dt[j] = at[j] - at[j-1] within an iteration,
    # at[j] - it_start[i] for its first op; et[i] closes the iteration.
    et = np.empty((n, cohort), dtype=np.int64)
    dt = np.empty((nops, cohort), dtype=np.int64)
    if nops:
        at = stacked("ev_at")[:, np.frombuffer(prog.raw, dtype=np.int64)]
        d = np.empty_like(at)
        d[:, 1:] = at[:, 1:] - at[:, :-1]
        for i in range(n):
            lo, hi = off[i], off[i + 1]
            if lo < hi:
                d[:, lo] = at[:, lo] - it_s[:, i]
                et[i] = it_e[:, i] - at[:, hi - 1]
            else:
                et[i] = sp[:, i]
        dt[:] = d.T
    else:
        et[:] = sp.T

    # Every column's clock per core, and for a non-counted loop the
    # control-signal waits of the iterations each core ran: columns in
    # walk order, one block of ``cohort`` per machine in ``walked``.
    clocks = np.empty((top_all, grid.shape[1] * cohort), dtype=np.int64)
    signals = None if counted else np.zeros_like(clocks)
    walked = []

    # Machines by what changes the walk's structure: the agenda flavour.
    modes = list(PrefetchMode)
    agendas = None
    for code in np.unique(mode_v).tolist():
        do_helper = modes[code] is not PrefetchMode.NONE
        if do_helper:
            if agendas is None:
                agendas = _resolve_agendas(
                    prog, tuple(loop.helper_order), counted
                )
            mt_pos, hx_pos, mt_entries, hx_entries = agendas
            pf_pos, pf_entries = (
                (hx_pos, hx_entries)
                if modes[code] is PrefetchMode.HELIX
                else (mt_pos, mt_entries)
            )
        # Machines of one core count take adjacent columns, so most
        # chunks of a wide axis read plain clock rows.
        of_class = np.nonzero(mode_v == code)[0]
        of_class = of_class[np.argsort(cores_v[of_class], kind="stable")]
        base = len(walked) * cohort
        walked += of_class.tolist()
        axis = len(of_class) * cohort
        for lo in range(0, axis, _MAX_WIDTH):
            columns = np.arange(lo, min(lo + _MAX_WIDTH, axis))
            mi_, c_ = of_class[columns // cohort], columns % cohort
            width = len(columns)
            cores, lat, fast, wait, xfr, bar, conf, _ = grid[:, mi_]
            any_bar = bool(bar.any())
            dtw, etw = dt[:, c_], et[:, c_]

            top = int(cores.max())
            one_count = top == int(cores.min())
            lanes = np.arange(width)
            chunk = slice(base + lo, base + lo + width)
            clocks[:, chunk] = conf
            clk = clocks[:top, chunk]
            hclk = np.zeros_like(clk) if do_helper else None
            evt = np.zeros((nops, width), dtype=np.int64)
            stall = np.zeros(width, dtype=np.int64)
            # Each iteration's control-signal wait.
            signalled = np.zeros((0 if counted else n, width), dtype=np.int64)
            prev_next = None
            cur_next = None

            for i in range(n):
                # Iteration i's clock row, per column: indexing with it
                # gathers on read and scatters on write.
                core = i % top if one_count else (i % cores, lanes)
                need_ctrl = i > 0 and not counted
                if need_ctrl:
                    assert has_next[i - 1], "iteration without start signal"

                pfv = None
                if do_helper and i > 0 and pf_entries[i]:
                    cursor = hclk[core]
                    pfv = []
                    for source in pf_entries[i]:
                        ts = prev_next if source == _CTRL_SRC else evt[source]
                        cursor = np.maximum(cursor, ts) + lat
                        pfv.append(cursor)
                    hclk[core] = cursor

                t = clk[core]
                if need_ctrl:
                    started = t
                    t = np.maximum(t, prev_next)
                    if do_helper:
                        # The control entry always leads the agenda.
                        t = np.minimum(
                            t + lat, np.maximum(started + fast, pfv[0])
                        )
                    else:
                        t = t + wait
                    signalled[i] = t - started

                for j in range(off[i], off[i + 1]):
                    o = op_[j]
                    pj = pre_[j]
                    t = t + dtw[j]
                    if o == OP_WAIT_SYNC:
                        if any_bar:
                            t += (pj + 1) * bar
                        arrival = np.maximum(t, evt[src_[j]])
                        if do_helper:
                            arrival += lat
                            pos = pf_pos[j]
                            if pos >= 0:
                                np.minimum(
                                    arrival,
                                    np.maximum(t + fast, pfv[pos]),
                                    out=arrival,
                                )
                        else:
                            arrival += wait
                        stall += arrival - t
                        t = arrival
                    elif o == OP_WAIT:
                        if any_bar:
                            t += (pj + 1) * bar
                    elif o == OP_SIGNAL:
                        if any_bar:
                            t += (pj + 1) * bar
                        evt[j] = t
                    elif o == OP_XFER:
                        t += a1_[j] * xfr
                        if any_bar and pj:
                            t += pj * bar
                    else:  # OP_NEXT
                        if any_bar and pj:
                            t += pj * bar
                        cur_next = t

                t = t + etw[i]
                if any_bar and tail_[i]:
                    t += tail_[i] * bar
                clk[core] = t
                prev_next = cur_next

            # Clocks only advance and start at ``conf``, which no end
            # precedes: the last end is the greatest entry of any row.
            col["parallel_cycles"][mi_, c_] = clk.max(axis=0) + wind_v[mi_]
            col["wait_stall_cycles"][mi_, c_] = stall
            if not counted:
                col["signal_cycles"][mi_, c_] = signalled.sum(axis=0)
                # Each iteration's wait, on the core that ran it: one
                # slice per core count of the chunk.
                cuts = [0, *(np.flatnonzero(np.diff(cores)) + 1).tolist()]
                for a, b in zip(cuts, cuts[1:] + [width]):
                    count = int(cores[a])
                    signals[:, chunk][:, a:b] = (
                        _iteration_cores(n, (count,), top_all)
                        @ signalled[:, a:b]
                    )

    # Per machine, weighted by occurrence: every clock ran from ``conf``
    # through exactly its iterations' signal waits, compute, stalls and
    # transfers.
    walked = np.array(walked)
    shape = (top_all, len(walked), cohort)
    advanced = (clocks.reshape(shape) - conf_v[walked, None]) @ weights
    per_core[1, walked] = advanced.T
    if signals is not None:
        per_core[2, walked] = (signals.reshape(shape) @ weights).T
    per_core[1] -= per_core[0] + per_core[2] + per_core[3]
    return data, per_core


def schedule_many(
    traces: Sequence[CompactInvocationTrace],
    loops: Sequence[LoopInfo],
    machines: Sequence[MachineConfig],
    grouping=None,
) -> ScheduleColumns:
    """Schedule many invocations under many machines in one pass.

    ``loops[i]`` is the parallelized-loop info of ``traces[i]``.
    Returns the :class:`ScheduleColumns` of ``(field, machine, trace)``,
    field-exact with per-trace :func:`schedule_compact`.

    Traces are grouped by loop and shape (:func:`trace_signature`) and,
    within a shape, by the bytes of their stamp columns: stamps are
    offsets from the start of the invocation, so invocations that ran
    alike anywhere in the recorded clock are one *distinct* invocation,
    scheduled once and fanned out by index.  A shape whose ``distinct
    members x machines`` reach :data:`_MIN_COHORT` runs through the
    vectorized :func:`_schedule_cohort` walk, a smaller one through
    :func:`schedule_compact` per member and machine.  Either way only
    the shape's first trace is compiled; the other members are handed
    its program.  Both engines also fill the result's ``per_core``
    accounting as they walk, each distinct invocation weighted by its
    occurrences.

    The grouping depends on the traces only.  It is returned as
    ``.grouping`` of the result -- ``(shapes, first, index)``: the
    distinct invocations of each shape, the first trace of each
    distinct invocation, and the distinct invocation of each trace --
    and a caller scheduling the same traces under further machines
    hands it back as ``grouping``.
    """
    import numpy as np

    if grouping is None:
        by_shape: Dict[Tuple, Dict[Tuple, int]] = {}
        first: List[int] = []
        index: List[int] = []
        for idx, (trace, loop) in enumerate(zip(traces, loops)):
            members = by_shape.setdefault(
                (id(loop), trace_signature(trace)), {}
            )
            stamps = (
                trace.end_cycles - trace.start_cycles,
                trace.it_start.tobytes(),
                trace.it_end.tobytes(),
                trace.ev_at.tobytes(),
            )
            distinct = members.get(stamps)
            if distinct is None:
                distinct = members[stamps] = len(first)
                first.append(idx)
            index.append(distinct)
        grouping = (
            [list(members.values()) for members in by_shape.values()],
            first,
            np.array(index, dtype=np.int64),
        )
    shapes, first, index = grouping
    data = np.zeros(
        (len(ScheduleColumns.FIELDS), len(machines), len(first)),
        dtype=np.int64,
    )
    per_core = np.zeros(
        (
            len(CORE_FIELDS),
            len(machines),
            max((m.cores for m in machines), default=1),
        ),
        dtype=np.int64,
    )
    if not machines:
        return ScheduleColumns(data[:, :, index], grouping, per_core)
    occurrences = np.bincount(index, minlength=len(first))
    # The machines as the vector walk reads them: every field a value,
    # and last the agenda flavour, the one thing that selects code
    # (without a helper thread there is no agenda, and ``IDEAL`` is
    # ``NONE`` with cheaper waits).
    modes = list(PrefetchMode)
    rows = []
    for m in machines:
        mode = m.effective_prefetch_mode
        ideal = mode is PrefetchMode.IDEAL
        rows.append(
            (
                m.cores,
                m.signal_latency,
                m.prefetched_signal_latency,
                m.prefetched_signal_latency if ideal else m.signal_latency,
                m.word_transfer_cycles,
                0 if m.total_store_ordering else m.barrier_cycles,
                m.config_cycles_per_thread * max(m.cores - 1, 1),
                modes.index(PrefetchMode.NONE if ideal else mode),
            )
        )
    grid = np.array(rows, dtype=np.int64).T
    # The scalar engine's per-core accounting, per machine.
    scalar = [[[0] * m.cores for _ in CORE_FIELDS] for m in machines]
    for members in shapes:
        cohort = [traces[first[distinct]] for distinct in members]
        loop = loops[first[members[0]]]
        weights = occurrences[members]
        program = cohort[0].program
        for trace in cohort[1:]:
            trace._program = program
        if len(members) * len(machines) < _MIN_COHORT:
            occurring = weights.tolist()
            for mi, machine in enumerate(machines):
                data[:, mi, members] = ScheduleColumns.from_results(
                    [
                        schedule_compact(tr, loop, machine, scalar[mi], times)
                        for tr, times in zip(cohort, occurring)
                    ]
                ).data
        else:
            data[:, :, members], shape_per_core = _schedule_cohort(
                cohort, loop, grid, weights
            )
            per_core += shape_per_core
    for mi, machine in enumerate(machines):
        per_core[:, mi, : machine.cores] += scalar[mi]
    return ScheduleColumns(data[:, :, index], grouping, per_core)


def schedule_invocation_reference(
    trace: InvocationTrace,
    loop: LoopInfo,
    machine: MachineConfig,
    emit: Optional[Callable[[int, str, int, int], None]] = None,
) -> ScheduleResult:
    """Reconstruct the parallel schedule of one invocation.

    The original per-event interpreter over the raw trace, kept as the
    differential oracle for the compiled engines.  ``emit``, when given,
    is called as ``emit(core, category, start, end)`` for every interval
    the invocation occupies a core, in the order the walk meets them and
    in cycles from the start of thread configuration: ``config`` on
    every core, then per iteration its ``signal`` wait and its
    ``compute`` stretches, split wherever a ``stall`` or a ``transfer``
    interrupts them, and last ``collect`` on core 0, which ends at
    ``parallel_cycles``.  Intervals of no length are not emitted, and a
    zero-iteration invocation emits nothing.
    """
    cores = machine.cores
    latency = machine.signal_latency
    fast = machine.prefetched_signal_latency
    mode = machine.effective_prefetch_mode
    transfer = machine.word_transfer_cycles
    conf = machine.config_cycles_per_thread * max(cores - 1, 1)
    # Section 2.3: without total store ordering every synchronizing load
    # and store needs a memory barrier.
    barrier = 0 if machine.total_store_ordering else machine.barrier_cycles

    core_free = [conf] * cores
    helper_free = [0] * cores
    prev_sig: Dict[int, int] = {}
    prev_produced: Set[int] = set()
    prev_next_time: Optional[int] = None
    iteration_ends: List[int] = []
    barrier_events = 0
    span_total = 0

    stats = ScheduleResult(
        parallel_cycles=0,
        sequential_cycles=trace.end_cycles - trace.start_cycles,
    )

    def occupy(core: int, category: str, start: int, end: int) -> None:
        if emit is not None and end > start:
            emit(core, category, start, end)

    def pull_complete(t: int, ts: int) -> int:
        return max(t, ts) + latency

    def wait_complete(t: int, ts: int, prefetch_done: Optional[int]) -> int:
        if mode is PrefetchMode.NONE:
            return pull_complete(t, ts)
        if mode is PrefetchMode.IDEAL:
            return max(t, ts) + fast
        if prefetch_done is None:
            return pull_complete(t, ts)
        return min(pull_complete(t, ts), max(t + fast, prefetch_done))

    if trace.iterations:
        for core in range(cores):
            occupy(core, "config", 0, conf)

    for i, iteration in enumerate(trace.iterations):
        core = i % cores

        # Helper-thread prefetch agenda for this iteration.
        prefetch_done: Dict[int, int] = {}
        if mode in (PrefetchMode.HELIX, PrefetchMode.MATCHED) and i > 0:
            ctrl_agenda = [] if loop.counted else [CTRL_DEP]
            if mode is PrefetchMode.HELIX:
                agenda = ctrl_agenda + list(loop.helper_order)
            else:
                agenda = ctrl_agenda + [
                    dep for kind, dep, _at in iteration.events if kind == "w"
                ]
            cursor = helper_free[core]
            for dep in agenda:
                if dep in prefetch_done:
                    continue
                ts = prev_next_time if dep == CTRL_DEP else prev_sig.get(dep)
                if ts is None:
                    continue
                done = max(cursor, ts) + latency
                prefetch_done[dep] = done
                cursor = done
            helper_free[core] = cursor

        # Iteration start: counted loops derive their iteration numbers
        # locally (Step 3); other loops wait for the predecessor's control
        # signal (the IterationFlag store).
        t = core_free[core]
        if i > 0 and not loop.counted:
            assert prev_next_time is not None, "iteration without start signal"
            started = t
            t = wait_complete(t, prev_next_time, prefetch_done.get(CTRL_DEP))
            stats.signal_cycles += t - started
            occupy(core, "signal", started, t)

        cur_sig: Dict[int, int] = {}
        cur_next: Optional[int] = None
        cur_produced: Set[int] = set()
        waited: Set[int] = set()
        transferred: Set[int] = set()
        # Where the open compute stretch began: a stall or a transfer
        # closes it, and so does the end of the iteration.
        opened = t
        last = iteration.start_cycles

        for kind, dep, at in iteration.events:
            t += at - last
            last = at
            if kind == "w":
                stats.waits += 1
                barrier_events += 1
                t += barrier
                if dep in waited or dep in cur_sig:
                    continue
                waited.add(dep)
                ts = prev_sig.get(dep)
                if ts is None:
                    continue
                arrival = wait_complete(t, ts, prefetch_done.get(dep))
                if arrival > t:
                    stats.wait_stall_cycles += arrival - t
                    occupy(core, "compute", opened, t)
                    occupy(core, "stall", t, arrival)
                    t = opened = arrival
            elif kind == "s":
                barrier_events += 1
                t += barrier
                if dep not in cur_sig:
                    cur_sig[dep] = t
                    stats.signals += 1
            elif kind == "n":
                if cur_next is None:
                    cur_next = t
                    if not loop.counted:
                        stats.signals += 1
            elif kind == "x":
                if dep in prev_produced and dep not in transferred:
                    transferred.add(dep)
                    words = iteration.words.get(dep, 1)
                    stats.transfer_words += words
                    moved = t + words * transfer
                    if moved > t:
                        occupy(core, "compute", opened, t)
                        occupy(core, "transfer", t, moved)
                        t = opened = moved
            else:  # 'p' producer marks only feed the next iteration's set.
                cur_produced.add(dep)

        t += iteration.end_cycles - last
        occupy(core, "compute", opened, t)
        span_total += iteration.end_cycles - iteration.start_cycles
        core_free[core] = t
        iteration_ends.append(t)

        prev_sig = cur_sig
        prev_next_time = cur_next
        prev_produced = cur_produced

    stats.compute_cycles = span_total + barrier * barrier_events
    stats.transfer_cycles = stats.transfer_words * transfer

    if not iteration_ends:
        # Zero-iteration invocation: the loop body never ran, so no
        # threads were configured and nothing needs collecting -- the
        # invocation costs exactly its sequential span.
        stats.parallel_cycles = stats.sequential_cycles
        return stats

    # Main thread collects the exit variable and stops parallel threads.
    finish = max(iteration_ends)
    stats.parallel_cycles = finish + latency + max(cores - 1, 0)
    occupy(0, "collect", finish, stats.parallel_cycles)
    return stats
