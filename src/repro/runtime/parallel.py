"""The parallel executor: timing of HELIX loops on the simulated CMP.

Functionally, a HELIX-transformed module is interpreted exactly like any
other module -- the inserted ``wait``/``signal``/``next_iter``/``xfer``
pseudo-ops are semantically inert, and HELIX is non-speculative, so the
synchronized parallel execution computes precisely what the sequential
trace computes.  What changes is *time*.

The executor reconstructs the parallel schedule per loop invocation from
the sequential trace.  This is exact (not an approximation) for HELIX's
synchronization structure: iterations start in order, and every
``wait``/``signal`` pair crosses from the thread of iteration *i* to the
thread of iteration *i+1* on a statically fixed ring, so there is no
timing feedback into values and per-iteration replay in iteration order
with per-core clocks reproduces what an event-driven engine would
compute.

Per iteration the replay carries:

* a per-core clock (round-robin assignment, iteration *i* on core
  ``i mod N``);
* a signal timetable from the previous iteration: a ``wait(d)`` at thread
  time ``t`` completes at ``max(t, ts(d)) + L`` in the pull system, where
  ``ts`` is when the predecessor signalled and ``L`` the inter-core
  latency (110 cycles on the modelled i7-980X);
* the helper thread of the core (Step 8): a prefetch agent that executes
  the generated wait sequence one signal at a time; a fully prefetched
  signal costs an L1 hit (4 cycles).  ``MATCHED`` and ``IDEAL`` prefetch
  modes implement the Section 3.3 comparison points;
* data forwarding: when the previous iteration actually produced a value
  a dependence carries (its ``xfer`` producer mark executed), the consumer
  pays the word-transfer cost ``M``.

The recording run keeps the interpreter's own sequential clock and
never rewrites it.  An invocation is a
:class:`~repro.runtime.trace.CompactInvocationTrace` from its first
event: the hooks append kind codes, dependence ids and stamps relative
to its ``start_cycles`` straight into its columns, the end of the
invocation only closes them, and that is all that happens at record
time.  The recording -- output, sequential total,
traces -- is therefore a function of the transformed IR, the cost model
and the input, and of no machine.  Time under a machine ``m`` is filled
in after the run by one :func:`~repro.runtime.sched.schedule_many` pass
(one compiled program per trace shape, one walk per distinct
invocation): an invocation of ``seq_i`` recorded cycles takes
``par_i(m)`` there, so the run takes ``seq_total - sum(seq_i -
par_i(m))``, and the :class:`LoopRunStats` are summed from the same
column.  That half is :class:`RecordedRun`, which needs no module, only
the loop records.  Recording a run (:meth:`ParallelExecutor.run`; the
recording interpreter is a :class:`RecordedRun` too) and restoring a
stored one (:meth:`~RecordedRun.restore_run`) only adopt the traces;
a machine's column is scheduled the first time it is read, so a
caller that names every machine it will read up front
(:meth:`~RecordedRun.replay_many`) gets them all from one pass, and
:meth:`ParallelExecutor.execute` is the recording run plus its
executing machine's column.  Columns stay
arrays end to end: the memo holds one
:class:`~repro.runtime.sched.ScheduleColumns` per
:meth:`~repro.runtime.machine.MachineConfig.fingerprint`, whole or
absent, cycles and loop statistics are array sums over a per-loop index
of the trace list, each column carries the walk's per-core accounting
(what :func:`repro.obs.timeline.timeline_block` reports), and
:class:`ScheduleResult` objects exist only for callers of
:meth:`~RecordedRun.schedules`.  What depends on the
trace list alone -- the distinct-invocation grouping
(:attr:`RecordedRun.grouping`, which a restored recording brings with
it and a run just recorded shares with its stored form) and the
per-loop index -- is computed at most once per list and dropped when
:attr:`traces` is reassigned.  The interval-by-interval timeline of
``repro trace --sim-timeline`` reads no column: it is the reference
scheduler's walk of every trace
(:func:`repro.obs.timeline.run_timeline`).

The recording run observes little of what it interprets.  Its
``on_block_entry`` acts on three kinds of block only -- the parallel
preheader (an invocation begins), the parallel header (an iteration
begins) and the exit stubs (the invocation ends) of each parallelized
loop -- and returns at its first test everywhere else, so the executor
declares every edge into those through
:meth:`~repro.runtime.interpreter.Interpreter.watched_edges`, computed
from ``infos`` per function.  Generated code then calls the hook there
and fuses every other block boundary as an uninstrumented run would;
the tree walker still calls it everywhere, which the early returns make
harmless.

Most of what a recording run enters did not exist when the profile it
is handed was measured: the parallel version, the inlined bodies and
the ``next_iter`` splits are created by the transformation, and a
training-run profile of the input module has no count for them.  Each
:class:`~repro.core.loopinfo.ParallelizedLoop` says which input block
every created block stands for (``origin``), so the executor extends
``block_profile`` with the origin's count before the interpreter sees
it, and chain formation and the dispatch tree treat the parallel
version as being as hot as the loop it copies.  Every caller gets that
by passing the profile it has; the counts are a layout hint and reach
nothing a run reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.loopnest import LoopId
from repro.core.communication import is_producer_mark, xfer_words
from repro.core.loopinfo import LoopInfo, ParallelizedLoop
from repro.ir import BasicBlock, Function, Instruction, Module, Opcode
from repro.obs.tracer import get_tracer
from repro.runtime.interpreter import (
    DEFAULT_MAX_INSTRUCTIONS,
    ExecutionResult,
    Frame,
    Interpreter,
)
from repro.runtime.machine import MachineConfig
from repro.runtime.sched import (
    Grouping,
    ScheduleColumns,
    ScheduleResult,
    group_traces,
    schedule_invocation_reference,
    schedule_many,
)
from repro.runtime.trace import (
    CTRL_DEP,
    KIND_NEXT,
    KIND_PRODUCE,
    KIND_SIGNAL,
    KIND_WAIT,
    KIND_XFER,
    CompactInvocationTrace,
    InvocationTrace,
    IterationTrace,
    as_compact,
)

__all__ = [
    "CTRL_DEP",
    "CompactInvocationTrace",
    "InvocationTrace",
    "IterationTrace",
    "LoopRunStats",
    "ParallelExecutor",
    "ParallelRunResult",
    "RecordedRun",
    "ScheduleResult",
    "schedule_invocation",
    "schedule_invocation_reference",
]

#: Either trace representation; the executor stores the compact form.
AnyTrace = Union[CompactInvocationTrace, InvocationTrace]


def schedule_invocation(
    trace: AnyTrace,
    loop: LoopInfo,
    machine: MachineConfig,
) -> ScheduleResult:
    """Reconstruct the parallel schedule of one invocation: one trace
    and one machine through :func:`~repro.runtime.sched.schedule_many`.

    Accepts either trace representation; per-iteration traces are
    packed on the fly (callers scheduling the same trace repeatedly
    should pack once via :func:`repro.runtime.trace.as_compact` to reuse
    the compiled program).
    """
    columns = schedule_many([as_compact(trace)], [loop], [machine])
    return columns.column(0).results()[0]


@dataclass
class LoopRunStats:
    """Aggregated runtime statistics of one parallelized loop."""

    loop_id: LoopId
    invocations: int = 0
    iterations: int = 0
    sequential_cycles: int = 0
    parallel_cycles: int = 0
    signals: int = 0
    waits: int = 0
    wait_stall_cycles: int = 0
    transfer_words: int = 0
    loads: int = 0

    @property
    def loop_speedup(self) -> float:
        if self.parallel_cycles <= 0:
            return 1.0
        return self.sequential_cycles / self.parallel_cycles

    def to_dict(self) -> dict:
        return {
            "loop_id": list(self.loop_id),
            "invocations": self.invocations,
            "iterations": self.iterations,
            "sequential_cycles": self.sequential_cycles,
            "parallel_cycles": self.parallel_cycles,
            "signals": self.signals,
            "waits": self.waits,
            "wait_stall_cycles": self.wait_stall_cycles,
            "transfer_words": self.transfer_words,
            "loads": self.loads,
        }


@dataclass
class ParallelRunResult:
    """Outcome of executing a transformed module on the simulated CMP."""

    result: ExecutionResult
    machine: MachineConfig
    loop_stats: Dict[LoopId, LoopRunStats] = field(default_factory=dict)
    traces: List[AnyTrace] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def output(self) -> List[str]:
        return self.result.output


class RecordedRun:
    """The timing half of a parallel execution: a recorded run, timed
    under any machine.

    Holds what a recording run leaves behind -- output, the sequential
    clock, instruction and load counts, traces -- and the loop records
    the traces were recorded against (``infos``: of each, the timing
    reads ``loop_id`` and the scheduler ``counted`` and
    ``helper_order``, so a :class:`~repro.core.loopinfo.LoopRecord`
    serves as well as a :class:`ParallelizedLoop`).  No module is needed:
    :meth:`restore_run` adopts a stored recording, and
    :class:`ParallelExecutor` is the interpreter that records one.
    """

    def __init__(
        self,
        infos: Sequence[LoopInfo],
        machine: Optional[MachineConfig] = None,
        schedule_memo: Optional[Dict[str, ScheduleColumns]] = None,
    ) -> None:
        self.machine = machine or MachineConfig()
        self.infos = list(infos)
        self.output: List[str] = []
        self.cycles = 0
        self.instructions = 0
        self.load_count = 0
        #: What the recorded run's entry function returned.
        self.return_value: object = None
        #: Memoized per-machine schedule columns
        #: (:class:`~repro.runtime.sched.ScheduleColumns` of one machine,
        #: as long as :attr:`traces`), keyed by machine fingerprint and
        #: filled on demand; a column is whole or absent.  An
        #: :class:`~repro.artifacts.ArtifactStore` may inject a tracked
        #: namespace here (``schedule_memo``) so column occupancy shows
        #: up in the store's unified accounting; standalone runs default
        #: to a private dict with identical semantics.
        self._schedules: Dict[str, ScheduleColumns] = (
            schedule_memo if schedule_memo is not None else {}
        )
        self.traces = []

    @property
    def traces(self) -> List[CompactInvocationTrace]:
        """The recorded invocations, in the run's sequential clock."""
        return self._traces

    @traces.setter
    def traces(self, traces: List[CompactInvocationTrace]) -> None:
        # Everything derived from a trace list goes with it: the
        # schedule columns, the distinct-invocation grouping and the
        # per-loop index of ``_timed``.
        self._traces = traces
        self._schedules.clear()
        self._grouping: Optional[Grouping] = None
        self._by_loop = None

    @property
    def grouping(self) -> Grouping:
        """The distinct-invocation grouping of :attr:`traces`
        (:func:`~repro.runtime.sched.group_traces`): the one a restored
        recording was stored by, else computed on first use.  Every
        scheduling pass over the traces and the stored form of a run
        just recorded share it."""
        if self._grouping is None:
            self._grouping = group_traces(self._traces)
        return self._grouping

    def restore_run(
        self,
        result: ExecutionResult,
        traces: Sequence[AnyTrace],
        load_count: int,
        grouping: Optional[Grouping] = None,
    ) -> None:
        """Adopt a recorded run (loaded from the evaluation disk cache,
        or another executor's), as :meth:`ParallelExecutor.run` adopts
        the run it records.  Nothing is scheduled here: a machine's
        column is, the first time :meth:`replay_many` or
        :meth:`schedule_columns` asks for it.

        ``result`` is the recording run's own :class:`ExecutionResult`
        (sequential clock) and ``load_count`` its total
        :attr:`~repro.runtime.interpreter.Interpreter.load_count`;
        ``grouping``, when given, is the traces'
        :func:`~repro.runtime.sched.group_traces`, as
        :func:`~repro.runtime.trace.unpack_traces` returns it.  The
        caller is responsible for passing traces recorded from an
        identical module under an identical cost model.
        """
        self.output = list(result.output)
        self.cycles = result.cycles
        self.instructions = result.instructions
        self.return_value = result.return_value
        self.traces = [as_compact(trace) for trace in traces]
        self._grouping = grouping
        self.load_count = load_count

    def _loops(self) -> List[LoopInfo]:
        info_by_id = {info.loop_id: info for info in self.infos}
        return [info_by_id[trace.loop_id] for trace in self.traces]

    def _ensure_schedules(self, machines: Sequence[MachineConfig]) -> None:
        """Fill the schedule memo for every machine missing from it, in
        one :func:`~repro.runtime.sched.schedule_many` pass over the
        traces.  Every requested machine owns a column afterwards, even
        the empty one of a run whose loops never executed."""
        missing: Dict[str, MachineConfig] = {}
        for machine in machines:
            fingerprint = machine.fingerprint()
            if fingerprint not in self._schedules:
                missing.setdefault(fingerprint, machine)
        if not missing:
            return
        with get_tracer().span(
            "sched.schedule",
            cat="sched",
            machines=len(missing),
            traces=len(self.traces),
        ):
            columns = schedule_many(
                self.traces,
                self._loops(),
                list(missing.values()),
                self.grouping,
            )
            for mi, fingerprint in enumerate(missing):
                self._schedules[fingerprint] = columns.column(mi)

    def _timed(
        self, machines: Sequence[MachineConfig]
    ) -> List[ParallelRunResult]:
        """The recorded run under each machine: every invocation's
        sequential span replaced by its scheduled length.  Cycles and
        :class:`LoopRunStats` are array sums of the machine's schedule
        column over a per-loop index of the trace list.  All results
        share one output list and one trace list (never mutated)."""
        import numpy as np

        self._ensure_schedules(machines)
        traces = self.traces
        if self._by_loop is None:
            # Loops in order of first invocation, the 0/1 membership of
            # every trace in them, and what no machine changes.
            loop_ids = list(dict.fromkeys(t.loop_id for t in traces))
            position = {loop_id: k for k, loop_id in enumerate(loop_ids)}
            member = np.zeros((len(traces), len(loop_ids)), dtype=np.int64)
            member[
                np.arange(len(traces)),
                [position[t.loop_id] for t in traces],
            ] = 1
            fixed = np.array(
                [[1, t.iteration_count, t.loads] for t in traces],
                dtype=np.int64,
            ).reshape(len(traces), 3)
            self._by_loop = (loop_ids, member, (fixed.T @ member).tolist())
        loop_ids, member, (invocations, iterations, loads) = self._by_loop
        summed = [
            name
            for name in ScheduleColumns.FIELDS
            if name in LoopRunStats.__dataclass_fields__
        ]
        shared_output = list(self.output)
        shared_traces: List[AnyTrace] = list(traces)
        results: List[ParallelRunResult] = []
        for machine in machines:
            column = self._schedules[machine.fingerprint()]
            sums = dict(
                zip(ScheduleColumns.FIELDS, (column.data @ member).tolist())
            )
            loop_stats = {
                loop_id: LoopRunStats(
                    loop_id=loop_id,
                    invocations=invocations[k],
                    iterations=iterations[k],
                    loads=loads[k],
                    **{name: sums[name][k] for name in summed},
                )
                for k, loop_id in enumerate(loop_ids)
            }
            results.append(
                ParallelRunResult(
                    result=ExecutionResult(
                        output=shared_output,
                        cycles=self.cycles
                        + sum(sums["parallel_cycles"])
                        - sum(sums["sequential_cycles"]),
                        instructions=self.instructions,
                        return_value=self.return_value,
                    ),
                    machine=machine,
                    loop_stats=loop_stats,
                    traces=shared_traces,
                )
            )
        return results

    def replay_many(
        self, machines: Sequence[MachineConfig]
    ) -> List[ParallelRunResult]:
        """Recompute the timing under each machine in one batched pass.

        Equivalent to ``[self.replay(m) for m in machines]`` but fills
        every missing schedule column in one batched pass over the
        stored traces.
        """
        with get_tracer().span(
            "exec.replay_many", cat="exec", machines=len(machines)
        ):
            return self._timed(machines)

    def schedule_columns(
        self, machine: Optional[MachineConfig] = None
    ) -> ScheduleColumns:
        """The schedule column of ``machine`` (default: the executing
        machine), aligned with :attr:`traces`, with its per-core
        accounting; memoized by machine fingerprint like
        :meth:`replay_many`, and scheduled first if missing."""
        if machine is None:
            machine = self.machine
        self._ensure_schedules([machine])
        return self._schedules[machine.fingerprint()]

    def schedules(
        self, machine: Optional[MachineConfig] = None
    ) -> List[ScheduleResult]:
        """:meth:`schedule_columns` as :class:`ScheduleResult` objects,
        built from the memoized arrays on each call."""
        return self.schedule_columns(machine).results()

    def replay(self, machine: MachineConfig) -> ParallelRunResult:
        """Recompute the timing under a different machine from the stored
        traces, without re-interpreting the program.

        Valid for changes to core count, prefetch mode and latencies (the
        functional trace is machine-independent); the instruction cost
        model must stay the same.
        """
        return self.replay_many([machine])[0]


class ParallelExecutor(RecordedRun, Interpreter):
    """Records a HELIX-transformed module's run and times it on machines.

    ``infos`` are the :class:`ParallelizedLoop` records produced by
    :func:`repro.core.parallelize_module` for this module.  The timing
    is :class:`RecordedRun`'s, the same a stored recording gets.
    """

    def __init__(
        self,
        module: Module,
        infos: Sequence[ParallelizedLoop],
        machine: Optional[MachineConfig] = None,
        max_instructions: Optional[int] = DEFAULT_MAX_INSTRUCTIONS,
        backend: str = "auto",
        schedule_memo: Optional[Dict[str, ScheduleColumns]] = None,
        block_profile: Optional[Dict[Tuple[str, str], int]] = None,
    ) -> None:
        if block_profile:
            # The profile was measured on the input module; a block the
            # transformation created runs as often as the one it came
            # from.
            block_profile = dict(block_profile)
            for info in infos:
                for block, source in info.origin.items():
                    count = block_profile.get(source)
                    if count is not None:
                        block_profile.setdefault(
                            (info.func_name, block), count
                        )
        Interpreter.__init__(
            self, module, machine, max_instructions=max_instructions,
            backend=backend, block_profile=block_profile,
        )
        RecordedRun.__init__(self, infos, self.machine, schedule_memo)
        # Memory reads are priced by the data-forwarding model; every
        # backend counts them when this is set.  Generated code reads
        # the hook overrides off this class: fused chains observe
        # sync/xfer ops at the tree walker's points and block entries
        # on the edges :meth:`watched_edges` says the hook acts on, and
        # compile load counting to static per-segment increments.
        self.count_loads = True
        self._by_preheader: Dict[Tuple[str, str], ParallelizedLoop] = {}
        acted_on: Dict[str, Set[str]] = {}
        for info in self.infos:
            self._by_preheader[(info.func_name, info.par_preheader)] = info
            acted_on.setdefault(info.func_name, set()).update(
                (info.par_preheader, info.par_header), info.exit_stubs
            )
        self._watched = {
            name: frozenset(
                (prev, target)
                for prev, block in module.functions[name].blocks.items()
                for target in block.successor_names()
                if target in blocks
            )
            for name, blocks in acted_on.items()
        }
        #: The open invocation, its columns growing as the run goes.
        self._inv: Optional[CompactInvocationTrace] = None
        self._inv_info: Optional[ParallelizedLoop] = None
        self._inv_frame: Optional[Frame] = None
        #: The frame whose sync/xfer events are recorded: the open
        #: invocation's once its first iteration has begun, else None.
        self._event_frame: Optional[Frame] = None
        self._loads_at_start = 0

    # -- interpreter hooks -------------------------------------------------

    def watched_edges(self, func: Function) -> FrozenSet[Tuple[str, str]]:
        """Every edge into the only blocks :meth:`on_block_entry` gets
        past its early returns on: the parallel preheader, parallel
        header and exit stubs of each parallelized loop of ``func`` (a
        few percent of a recording run's block entries)."""
        return self._watched.get(func.name, frozenset())

    def on_block_entry(
        self, frame: Frame, prev: Optional[BasicBlock], block: BasicBlock
    ) -> None:
        super().on_block_entry(frame, prev, block)
        if self._inv is None:
            info = self._by_preheader.get((frame.func.name, block.name))
            if info is not None:
                self._begin_invocation(info, frame)
            return
        if frame is not self._inv_frame:
            return
        info = self._inv_info
        if block.name == info.par_header:
            self._begin_iteration()
        elif block.name in info.exit_stubs:
            self._end_invocation()

    def exec_sync(self, frame: Frame, instr: Instruction) -> None:
        if frame is not self._event_frame:
            return
        # One event of the open iteration, straight into the columns.
        inv = self._inv
        opcode = instr.opcode
        if opcode is Opcode.WAIT:
            inv.ev_kind.append(KIND_WAIT)
            inv.ev_dep.append(instr.dep_id)
        elif opcode is Opcode.SIGNAL:
            inv.ev_kind.append(KIND_SIGNAL)
            inv.ev_dep.append(instr.dep_id)
        else:  # NEXT_ITER
            inv.ev_kind.append(KIND_NEXT)
            inv.ev_dep.append(CTRL_DEP)
        inv.ev_at.append(self.cycles - inv.start_cycles)
        inv.ev_words.append(0)

    def exec_xfer(self, frame: Frame, instr: Instruction) -> None:
        if frame is not self._event_frame:
            return
        inv = self._inv
        if is_producer_mark(instr):
            inv.ev_kind.append(KIND_PRODUCE)
            inv.ev_words.append(0)
        else:
            inv.ev_kind.append(KIND_XFER)
            inv.ev_words.append(xfer_words(instr))
        inv.ev_dep.append(instr.dep_id)
        inv.ev_at.append(self.cycles - inv.start_cycles)

    # -- invocation lifecycle -------------------------------------------------

    def _begin_invocation(self, info: ParallelizedLoop, frame: Frame) -> None:
        self._inv = CompactInvocationTrace.begin(info.loop_id, self.cycles)
        self._inv_info = info
        self._inv_frame = frame
        self._loads_at_start = self.load_count

    def _close_iteration(self) -> None:
        inv = self._inv
        if self._event_frame is not None:
            inv.it_end.append(self.cycles - inv.start_cycles)
            inv.ev_off.append(len(inv.ev_kind))

    def _begin_iteration(self) -> None:
        self._close_iteration()
        inv = self._inv
        inv.it_start.append(self.cycles - inv.start_cycles)
        self._event_frame = self._inv_frame

    def _end_invocation(self) -> None:
        self._close_iteration()
        trace = self._inv
        trace.end_cycles = self.cycles
        trace.loads = self.load_count - self._loads_at_start
        self._inv = None
        self._inv_info = None
        self._inv_frame = None
        self._event_frame = None
        self.traces.append(trace)

    # -- public API -------------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence = ()) -> ExecutionResult:
        """The recording run: interpret the program in its sequential
        clock and fill :attr:`traces`.  Nothing here reads the machine
        beyond its cost model, and nothing is scheduled."""
        self._inv = None
        self._inv_info = None
        self._inv_frame = None
        self._event_frame = None
        self._loads_at_start = 0
        self.traces = []
        with get_tracer().span("exec.parallel", cat="exec") as sp:
            recorded = super().run(entry, args)
            sp.set(invocations=len(self.traces))
        self.return_value = recorded.return_value
        return recorded

    def execute(self) -> ParallelRunResult:
        """Run the program and time it on the executing machine."""
        self.run()
        return self._timed([self.machine])[0]
