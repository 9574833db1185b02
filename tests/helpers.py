"""Shared test utilities: quick CFG and program construction, the
reference-engine replay the scheduler tests compare against, and the
rule an over-budget run of generated code must follow."""

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.loopnest import LoopId
from repro.frontend import compile_source
from repro.ir import BasicBlock, Function, Instruction, Module, Opcode
from repro.ir.operands import Const
from repro.ir.types import Type
from repro.runtime.interpreter import ExecutionLimitExceeded, ExecutionResult
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import (
    LoopRunStats,
    ParallelExecutor,
    ParallelRunResult,
)
from repro.runtime.sched import ScheduleResult, schedule_invocation_reference
from repro.runtime.trace import InvocationTrace


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
