"""Shared test utilities: quick CFG and program construction,
recordings of hand-written traces, the per-event trace compiler the
batch compilation is checked against, the reference-engine replay the
scheduler tests compare against, the reference placement of the suite's
recordings, the rule an over-budget run of generated code must
follow, an observer that records a job's events with the contract their
order keeps, and a parser of Prometheus exposition text."""

import dataclasses
import hashlib
import json
import threading
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.loopnest import LoopId
from repro.frontend.lower import compile_source
from repro.ir import BasicBlock, Function, Instruction, Module, Opcode
from repro.ir.operands import Const
from repro.ir.types import Type
from repro.obs.metrics import EvaluationObserver
from repro.runtime.interpreter import ExecutionLimitExceeded, ExecutionResult
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import (
    LoopRunStats,
    ParallelExecutor,
    ParallelRunResult,
)
from repro.runtime.sched import ScheduleResult, schedule_invocation_reference
from repro.runtime.trace import (
    INVOCATION_COLUMNS,
    KIND_NEXT,
    KIND_PRODUCE,
    KIND_SIGNAL,
    KIND_WAIT,
    KIND_XFER,
    OP_NEXT,
    OP_SIGNAL,
    OP_WAIT,
    OP_WAIT_SYNC,
    OP_XFER,
    InvocationTrace,
    Recording,
    TraceProgram,
    _SHAPE_COLUMNS,
)

_KIND_CODES = {"w": KIND_WAIT, "s": KIND_SIGNAL, "n": KIND_NEXT,
               "x": KIND_XFER, "p": KIND_PRODUCE}


def recording_of(traces: Sequence[InvocationTrace]) -> Recording:
    """A :class:`Recording` of per-iteration ``traces``, each entering
    through :meth:`Recording.add` as a recorded invocation does.  Every
    ``x`` event carries its iteration's count for the dependence (1 when
    the iteration has none, the count the reference scheduler reads)."""
    recording = Recording()
    for trace in traces:
        base = trace.start_cycles
        columns = {name: array("q") for name in INVOCATION_COLUMNS}
        columns["ev_off"].append(0)
        for iteration in trace.iterations:
            columns["it_start"].append(iteration.start_cycles - base)
            columns["it_end"].append(iteration.end_cycles - base)
            for kind, dep, at in iteration.events:
                columns["ev_kind"].append(_KIND_CODES[kind])
                columns["ev_dep"].append(dep)
                columns["ev_at"].append(at - base)
                columns["ev_words"].append(
                    iteration.words.get(dep, 1) if kind == "x" else 0
                )
            columns["ev_off"].append(len(columns["ev_kind"]))
        recording.add(
            trace.loop_id, base, trace.end_cycles, trace.loads, columns
        )
    return recording


def compile_reference(ev_off, kinds, deps, ev_words) -> TraceProgram:
    """The :class:`TraceProgram` of one shape's columns, compiled one
    event at a time: the oracle of :meth:`Recording.program`'s batch
    compilation (it ticks no counter)."""
    op = array("q")
    a1 = array("q")
    src = array("q")
    raw_ix = array("q")
    pre = array("q")
    off = array("q", [0])
    tail = array("q")
    barriers = array("q")
    moved = array("q")
    agendas = array("q")
    agenda_sizes = array("q")

    waits = signals = next_iters = transfer_total = active = 0
    raw_signals = 0
    #: dep -> flat op index of the iteration's kept OP_SIGNAL.
    prev_sig: Dict[int, int] = {}
    prev_produced: frozenset = frozenset()

    for i in range(len(ev_off) - 1):
        # dep -> the last count the iteration's 'x' events wrote, and
        # the flat index of the OP_XFER that moves it (the first
        # forwarded event; its count is filled in below).
        words: Dict[int, int] = {}
        transferred: Dict[int, int] = {}
        waited: set = set()
        cur_sig: Dict[int, int] = {}
        produced: set = set()
        agenda: List[int] = []
        seen_next = False
        pending = 0
        barriers_before = waits + raw_signals

        for j in range(ev_off[i], ev_off[i + 1]):
            kind = kinds[j]
            dep = deps[j]
            if kind == KIND_WAIT:
                waits += 1
                if dep not in agenda:
                    agenda.append(dep)
                if dep in waited or dep in cur_sig:
                    pending += 1  # barrier-only duplicate
                    continue
                waited.add(dep)
                source = prev_sig.get(dep, -1) if i > 0 else -1
                op.append(OP_WAIT_SYNC if source >= 0 else OP_WAIT)
                a1.append(dep)
                src.append(source)
                raw_ix.append(j)
                pre.append(pending)
                pending = 0
                active += 1
            elif kind == KIND_SIGNAL:
                raw_signals += 1
                if dep in cur_sig:
                    pending += 1  # barrier-only duplicate
                    continue
                cur_sig[dep] = len(op)
                signals += 1
                op.append(OP_SIGNAL)
                a1.append(dep)
                src.append(-1)
                raw_ix.append(j)
                pre.append(pending)
                pending = 0
                active += 1
            elif kind == KIND_NEXT:
                if seen_next:
                    continue  # only the first next_iter acts
                seen_next = True
                next_iters += 1
                op.append(OP_NEXT)
                a1.append(0)
                src.append(-1)
                raw_ix.append(j)
                pre.append(pending)
                pending = 0
            elif kind == KIND_XFER:
                words[dep] = ev_words[j]
                if dep in prev_produced and dep not in transferred:
                    transferred[dep] = len(op)
                    op.append(OP_XFER)
                    a1.append(0)
                    src.append(-1)
                    raw_ix.append(j)
                    pre.append(pending)
                    pending = 0
                    active += 1
                # non-forwarded consumer marks have no effect
            else:  # KIND_PRODUCE
                produced.add(dep)

        forwarded = 0
        for dep, ix in transferred.items():
            a1[ix] = words[dep]
            forwarded += words[dep]
        transfer_total += forwarded
        off.append(len(op))
        tail.append(pending)
        barriers.append(waits + raw_signals - barriers_before)
        moved.append(forwarded)
        agendas.extend(agenda)
        agenda_sizes.append(len(agenda))
        prev_sig = cur_sig
        prev_produced = frozenset(produced)

    def column(values):
        return np.array(values, dtype=np.int64)

    return TraceProgram(
        op=column(op),
        a1=column(a1),
        src=column(src),
        raw=column(raw_ix),
        pre=column(pre),
        off=column(off),
        tail=column(tail),
        barriers=column(barriers),
        words=column(moved),
        agendas=column(agendas),
        agenda_sizes=column(agenda_sizes),
        waits=waits,
        signals=signals,
        next_iters=next_iters,
        transfer_words=transfer_total,
        active_ops=active,
        barrier_events=waits + raw_signals,
    )


def program_fields(program: TraceProgram) -> Dict[str, object]:
    """Every field of ``program``, a column as its dtype and values:
    what two programs compare equal by."""
    return {
        f.name: (
            (str(value.dtype), value.tolist())
            if isinstance(value, np.ndarray) else value
        )
        for f in dataclasses.fields(program)
        for value in (getattr(program, f.name),)
    }


def reference_programs(recording: Recording) -> List[TraceProgram]:
    """:func:`compile_reference` of every shape of ``recording``."""
    return [
        compile_reference(
            *(getattr(recording, name)[s] for name in _SHAPE_COLUMNS)
        )
        for s in range(len(recording.shape_loop))
    ]


def build_cfg(edges: Dict[str, Sequence[str]], entry: str = "A") -> Function:
    """Build a function whose CFG matches ``edges``.

    Blocks with zero successors get RET, one gets BR, two get CBR (on a
    constant condition -- these functions are for structural analyses, not
    execution).
    """
    func = Function("test")
    names = list(edges)
    for target_list in edges.values():
        for name in target_list:
            if name not in names:
                names.append(name)
    ordered = [entry] + [n for n in names if n != entry]
    for name in ordered:
        func.add_block(BasicBlock(name))
    for name in ordered:
        block = func.blocks[name]
        targets = tuple(edges.get(name, ()))
        if len(targets) == 0:
            block.append(Instruction(Opcode.RET))
        elif len(targets) == 1:
            block.append(Instruction(Opcode.BR, targets=targets))
        elif len(targets) == 2:
            block.append(
                Instruction(Opcode.CBR, args=(Const.int(1),), targets=targets)
            )
        else:
            raise ValueError("at most two successors per block")
    return func


def segments_digest(segments) -> str:
    """SHA-256 over a simulated timeline's segment list, in order."""
    blob = json.dumps(
        [[seg.core, seg.category, seg.start, seg.end] for seg in segments]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class Placement:
    """What the tests read off the reference scheduler's placement of a
    whole run (:func:`repro.obs.timeline.run_timeline`): the digest of
    its segment list and each core's cycles per category."""

    digest: str
    core_totals: List[Dict[str, int]]


def bench_placements(runner):
    """``placement(bench, cores)``: the :class:`Placement` of ``bench``'s
    recording under ``runner``'s machine at ``cores`` cores, computed
    once per key.  Only the digest and the totals are kept: the suite's
    segment lists at 2, 4 and 6 cores run to 1.8M segments."""
    from repro.obs.timeline import core_totals, run_timeline

    memo: Dict[Tuple[str, int], Placement] = {}

    def placement(bench: str, cores: int) -> Placement:
        key = (bench, cores)
        if key not in memo:
            segments = run_timeline(
                runner.helix_run(bench).executor,
                runner.machine.with_cores(cores),
            )
            memo[key] = Placement(
                segments_digest(segments), core_totals(segments, cores)
            )
        return memo[key]

    return placement


def compile_and_find_loop(source: str, func_name: str, header_contains: str):
    """Compile MiniC and return (module, function, loop) for the loop whose
    header name contains ``header_contains``."""
    from repro.analysis.loops import find_loops

    module = compile_source(source)
    func = module.functions[func_name]
    forest = find_loops(func)
    for loop in forest:
        if header_contains in loop.header:
            return module, func, loop
    raise AssertionError(
        f"no loop with header containing {header_contains!r}; "
        f"headers: {[l.header for l in forest]}"
    )


def sweep_machines(base: MachineConfig) -> List[MachineConfig]:
    """A machine sweep around ``base``: a superset of what one full
    evaluation round (core counts, prefetch modes, latency sweep, TSO
    and SMT toggles) replays against, without ``base`` itself."""
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
        recording = executor.recording
        legacy_traces = list(map(recording.invocation, range(len(recording))))
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
        traces=recording_of(legacy_traces),
    )
    return run, schedules


# -- over-budget runs --------------------------------------------------------


def longest_chain(interp) -> int:
    """``Superblock.max_instructions`` of the longest chain ``interp``
    compiled: how far past its budget generated code may run before a
    check raises."""
    return max(
        sb.max_instructions
        for sfunc in interp._superblocks.values()
        for sb in sfunc.blocks.values()
    )


def run_limited(make, backend: str, limit: int, observe=lambda interp: None):
    """Run ``make(backend, limit)`` (an interpreter) to its end or its
    budget fault: ``(fault message or None, (output, cycles,
    instructions, load_count), observe(interp), interp)``."""
    interp = make(backend, limit)
    try:
        interp.run()
        message = None
    except ExecutionLimitExceeded as exc:
        message = str(exc)
    clock = (
        list(interp.output), interp.cycles, interp.instructions,
        interp.load_count,
    )
    return message, clock, observe(interp), interp


def assert_over_budget(make, limit: int, observe=lambda interp: None) -> None:
    """Generated code over its budget: call ``n`` its instruction count
    when it raises.  It raises the walker's message, with
    ``limit < n <= limit + longest_chain``; its clock is the walker's at
    limit ``n - 1`` (whose last, unexecuted instruction is the one a
    generated check sits behind); what ``observe`` reads is the
    walker's at limit ``n - 1``, or at ``n`` when the check sits right
    after an announced boundary or a returning call."""
    message, clock, observed, interp = run_limited(make, "auto", limit, observe)
    walker = run_limited(make, "tree", limit, observe)
    assert walker[0] is not None and message == walker[0], (limit, message)
    n = clock[2]
    assert limit < n <= limit + longest_chain(interp), (limit, n)
    before = run_limited(make, "tree", n - 1, observe)
    assert before[0] == f"exceeded {n - 1} instructions"
    assert clock == before[1], (limit, n)
    if observed != before[2]:
        assert observed == run_limited(make, "tree", n, observe)[2], (limit, n)


# -- observer events ---------------------------------------------------------


@dataclasses.dataclass
class ObservedEvent:
    """One recorded observer call."""

    kind: str
    job_id: Optional[str]
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)


class RecordingObserver(EvaluationObserver):
    """Thread-safe observer that records every event, in arrival order;
    :meth:`for_job` slices one job's event stream back out."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[ObservedEvent] = []

    def _record(self, event: str, job, **args: Any) -> None:
        record = ObservedEvent(
            kind=event, job_id=job.id if job is not None else None, args=args
        )
        with self._lock:
            self.events.append(record)

    def job_started(self, job) -> None:
        self._record("job_started", job)

    def stage_completed(self, job, bench, stage, outcome, seconds) -> None:
        self._record(
            "stage_completed", job,
            bench=bench, stage=stage, outcome=outcome, seconds=seconds,
        )

    def artifact_stored(self, job, kind, key, outcome) -> None:
        self._record(
            "artifact_stored", job, kind=kind, key=key, outcome=outcome
        )

    def job_finished(self, job) -> None:
        self._record(
            "job_finished", job,
            state=job.state.value if job is not None else None,
        )

    def for_job(self, job_id: str) -> List[ObservedEvent]:
        with self._lock:
            return [e for e in self.events if e.job_id == job_id]

    def kinds(self, job_id: str) -> List[str]:
        return [e.kind for e in self.for_job(job_id)]


def check_event_ordering(events: Sequence[ObservedEvent]) -> List[str]:
    """Validate one job's event stream against the observer contract.

    Returns a list of violations (empty = well-ordered):

    * the stream starts with ``job_started`` and ends with
      ``job_finished``,
    * ``job_started`` and ``job_finished`` each appear exactly once,
    * every stage/artifact event falls between the ``job_started`` and
      the ``job_finished``.
    """
    problems: List[str] = []
    if not events:
        return ["empty event stream"]
    if events[0].kind != "job_started":
        problems.append(f"first event is {events[0].kind}, not job_started")
    if events[-1].kind != "job_finished":
        problems.append(f"last event is {events[-1].kind}, not job_finished")
    finishes = [e for e in events if e.kind == "job_finished"]
    if len(finishes) != 1:
        problems.append(f"{len(finishes)} job_finished events (expected 1)")
    starts = [e for e in events if e.kind == "job_started"]
    if len(starts) != 1:
        problems.append(f"{len(starts)} job_started events (expected 1)")
    started = False
    for event in events:
        if event.kind == "job_started":
            started = True
        elif event.kind in ("stage_completed", "artifact_stored"):
            if not started:
                problems.append(f"{event.kind} before any job_started")
    return problems


# -- Prometheus exposition ---------------------------------------------------


def parse_exposition(text: str) -> Dict[str, Tuple[str, float]]:
    """Parse exposition text back to ``name -> (type, value)``."""
    types: Dict[str, str] = {}
    values: Dict[str, Tuple[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
        elif not line.startswith("#"):
            name, _, value = line.partition(" ")
            values[name] = (types.get(name, "untyped"), float(value))
    return values
