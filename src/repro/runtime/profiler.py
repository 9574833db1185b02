"""Profiling runs (training inputs) feeding the loop-selection heuristic.

The profiler interprets the program once and collects what Section 2.2
needs:

* per-loop invocation and iteration counts (``Invoc_i``, and the iteration
  count that prices control signals ``C-Sig_i``);
* per-loop inclusive and self cycle counts (the ``T`` attribute of the
  selection algorithm derives from these);
* per-block execution counts (used to weight sequential-segment
  instructions when computing ``P_i``);
* average inclusive cycles per function call (to price CALL instructions
  inside loops);
* the dynamic loop nesting graph (profiled subgraph of the static one).

All but the block counts hang off a stack of active loops, and that
stack changes at three kinds of event only: a loop header is entered,
the target of an edge leaving a loop is entered, a call begins or
returns.  The profiling interpreter declares those blocks
(:meth:`~repro.runtime.interpreter.Interpreter.watched_blocks`, from
the :class:`~repro.analysis.loopnest.StaticLoopNestGraph`), so
generated code calls its hook there and nowhere else.  Cycle
attribution is deferred, not dropped: ``_sync`` adds the cycles since
the previous event to every loop on the stack, and between two events
the stack is constant, so the one late sync adds the same integers to
the same loops as the per-block syncs it replaces.  The block counts
come from static counters the generated code bumps at the boundaries
that no longer call the hook, added to the hook's own counts after the
run.  Tree, decoded and budget-fallback execution still call the hook
at every block; the profile is identical either way (the differential
tests assert it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.cfg import CFGView
from repro.analysis.loopnest import (
    DynamicLoopNestGraph,
    LoopId,
    StaticLoopNestGraph,
    build_static_loop_nest_graph,
)
from repro.analysis.loops import Loop
from repro.ir import Function, Instruction, Module, Opcode
from repro.ir.types import Type
from repro.runtime.interpreter import ExecutionResult, Interpreter
from repro.runtime.machine import MachineConfig


@dataclass
class LoopProfile:
    """Dynamic statistics of one loop."""

    loop_id: LoopId
    invocations: int = 0
    iterations: int = 0
    #: Cycles while the loop was active anywhere on the loop stack
    #: (includes subloops and callees).
    total_cycles: int = 0
    #: Cycles while the loop was the innermost active loop.
    self_cycles: int = 0

    @property
    def iterations_per_invocation(self) -> float:
        if self.invocations == 0:
            return 0.0
        return self.iterations / self.invocations

    def to_dict(self) -> dict:
        return {
            "loop_id": list(self.loop_id),
            "invocations": self.invocations,
            "iterations": self.iterations,
            "total_cycles": self.total_cycles,
            "self_cycles": self.self_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopProfile":
        data = dict(data)
        data["loop_id"] = tuple(data["loop_id"])
        return cls(**data)


@dataclass
class ProfileData:
    """Everything collected by one profiling run."""

    module: Module
    result: ExecutionResult
    loops: Dict[LoopId, LoopProfile] = field(default_factory=dict)
    block_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    func_inclusive_cycles: Dict[str, int] = field(default_factory=dict)
    func_activations: Dict[str, int] = field(default_factory=dict)
    dynamic_nesting: DynamicLoopNestGraph = field(
        default_factory=DynamicLoopNestGraph
    )

    @property
    def total_cycles(self) -> int:
        return self.result.cycles

    def loop(self, loop_id: LoopId) -> LoopProfile:
        return self.loops.get(loop_id, LoopProfile(loop_id))

    def block_count(self, func_name: str, block_name: str) -> int:
        return self.block_counts.get((func_name, block_name), 0)

    def call_avg_cycles(self, func_name: str) -> float:
        """Average inclusive cycles of one activation of ``func_name``."""
        count = self.func_activations.get(func_name, 0)
        if count == 0:
            return 0.0
        return self.func_inclusive_cycles.get(func_name, 0) / count

    def instruction_cost(
        self, machine: MachineConfig, func_name: str, instr: Instruction
    ) -> float:
        """Expected dynamic cost of one execution of ``instr``.

        CALLs are priced at the callee's profiled average inclusive time;
        everything else uses the machine cost model.
        """
        if instr.opcode is Opcode.CALL and instr.callee is not None:
            inner = self.call_avg_cycles(instr.callee)
            return machine.cost_model.cycles(Opcode.CALL) + inner
        is_float = instr.dest is not None and instr.dest.type is Type.FLOAT
        return machine.cost_model.cycles(instr.opcode, is_float)

    def to_dict(self) -> dict:
        """JSON-stable representation, *excluding* the profiled module.

        The module is large and reproducible from the benchmark source;
        :meth:`from_dict` takes it back as an argument so a disk cache
        only needs to store the dynamic statistics.
        """
        return {
            "result": self.result.to_dict(),
            "loops": [p.to_dict() for _, p in sorted(self.loops.items())],
            "block_counts": [
                [func, block, count]
                for (func, block), count in sorted(self.block_counts.items())
            ],
            "func_inclusive_cycles": dict(self.func_inclusive_cycles),
            "func_activations": dict(self.func_activations),
            "dynamic_nesting": self.dynamic_nesting.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict, module: Module) -> "ProfileData":
        loops = [LoopProfile.from_dict(p) for p in data["loops"]]
        return cls(
            module=module,
            result=ExecutionResult.from_dict(data["result"]),
            loops={p.loop_id: p for p in loops},
            block_counts={
                (func, block): count
                for func, block, count in data["block_counts"]
            },
            func_inclusive_cycles=dict(data["func_inclusive_cycles"]),
            func_activations=dict(data["func_activations"]),
            dynamic_nesting=DynamicLoopNestGraph.from_dict(
                data["dynamic_nesting"]
            ),
        )


class _ProfilingHarness:
    """Wires interpreter hooks to the profile accumulators."""

    def __init__(self, nest: StaticLoopNestGraph, data: ProfileData) -> None:
        self.nest = nest
        self.data = data
        #: Stack of (activation id, Loop) for every active loop, across
        #: function activations.
        self.loop_stack: List[Tuple[int, Loop]] = []
        self.activation_stack: List[int] = [0]
        self.next_activation = 1
        self.last_cycles = 0
        #: func name -> (active count, cycles at first entry).
        self.recursion: Dict[str, Tuple[int, int]] = {}

    # -- time attribution --------------------------------------------------

    def _sync(self, cycles: int) -> None:
        delta = cycles - self.last_cycles
        if delta and self.loop_stack:
            for _aid, loop in self.loop_stack:
                self._profile(loop).total_cycles += delta
            self._profile(self.loop_stack[-1][1]).self_cycles += delta
        self.last_cycles = cycles

    def _profile(self, loop: Loop) -> LoopProfile:
        profile = self.data.loops.get(loop.id)
        if profile is None:
            profile = LoopProfile(loop.id)
            self.data.loops[loop.id] = profile
        return profile

    # -- listeners ------------------------------------------------------------

    def on_block(
        self, func_name: str, prev: Optional[str], block: str, cycles: int
    ) -> None:
        self._sync(cycles)
        key = (func_name, block)
        self.data.block_counts[key] = self.data.block_counts.get(key, 0) + 1

        forest = self.nest.forests.get(func_name)
        if forest is None:
            return
        activation = self.activation_stack[-1]

        # Pop loops of this activation that no longer contain the block.
        while self.loop_stack:
            aid, top = self.loop_stack[-1]
            if aid != activation or block in top.blocks:
                break
            self.loop_stack.pop()

        loop = forest.by_header.get(block)
        if loop is None:
            return
        if self.loop_stack:
            aid, top = self.loop_stack[-1]
            if aid == activation and top is loop:
                # Back edge: a new iteration of the active loop.
                self._profile(loop).iterations += 1
                return
        parent = self.loop_stack[-1][1].id if self.loop_stack else None
        self.loop_stack.append((activation, loop))
        profile = self._profile(loop)
        profile.invocations += 1
        profile.iterations += 1
        self.data.dynamic_nesting.record(parent, loop.id)

    def on_call(self, func_name: str, entering: bool, cycles: int) -> None:
        self._sync(cycles)
        if entering:
            self.activation_stack.append(self.next_activation)
            self.next_activation += 1
            count, first = self.recursion.get(func_name, (0, 0))
            if count == 0:
                first = cycles
            self.recursion[func_name] = (count + 1, first)
            self.data.func_activations[func_name] = (
                self.data.func_activations.get(func_name, 0) + 1
            )
        else:
            activation = self.activation_stack.pop()
            while self.loop_stack and self.loop_stack[-1][0] == activation:
                self.loop_stack.pop()
            count, first = self.recursion[func_name]
            if count == 1:
                self.data.func_inclusive_cycles[func_name] = (
                    self.data.func_inclusive_cycles.get(func_name, 0)
                    + cycles
                    - first
                )
            self.recursion[func_name] = (count - 1, first)


class _ProfilingInterpreter(Interpreter):
    """Interpreter whose hook overrides feed the profiling harness.

    Overriding :meth:`on_block_entry` (rather than installing a
    ``block_listener``) routes profiling runs onto the *hooked
    superblock* tier under ``backend="auto"``: fused chains invoke the
    hook with exact cycle counts at the :meth:`watched_blocks`, so the
    collected profile is bit-identical to a listener-based tree or
    decoded run (the differential tests assert this) at codegen speed.
    """

    harness: "_ProfilingHarness"

    def watched_blocks(self, func: Function) -> FrozenSet[str]:
        """Every block whose entry can change the harness's loop stack:
        loop headers (push, or count an iteration) and targets of edges
        that leave a loop (pop).  At any other entry ``on_block`` only
        counts the block and syncs cycles; generated code counts those
        statically (``count_unwatched``) and the next watched entry or
        call event syncs their cycles onto the same, unchanged stack.
        """
        forest = self.harness.nest.forests.get(func.name)
        if forest is None:
            return frozenset()
        cfg = CFGView(func)
        watched = set(forest.by_header)
        for loop in forest:
            watched.update(target for _src, target in loop.exit_edges(cfg))
        return frozenset(watched)

    def on_block_entry(self, frame, prev, block) -> None:
        self.harness.on_block(
            frame.func.name,
            prev.name if prev is not None else None,
            block.name,
            self.cycles,
        )

    def call_function(self, func, args):
        harness = self.harness
        harness.on_call(func.name, True, self.cycles)
        value = super().call_function(func, args)
        harness.on_call(func.name, False, self.cycles)
        return value


def profile_module(
    module: Module,
    machine: Optional[MachineConfig] = None,
    nest: Optional[StaticLoopNestGraph] = None,
    max_instructions: Optional[int] = 500_000_000,
    backend: str = "auto",
    codegen_cache=None,
) -> ProfileData:
    """Run ``module`` once under instrumentation and return the profile.

    The hook overrides select the hooked superblock tier under
    ``backend="auto"`` (fused chains announce the block entries that
    can change the loop stack, with exact counters, and count the
    rest); the collected profile is identical under ``backend="tree"``
    and ``backend="decoded"`` (the differential tests assert this).
    ``codegen_cache`` optionally reuses generated code across jobs (see
    :mod:`repro.runtime.codegen`).
    """
    machine = machine or MachineConfig()
    nest = nest or build_static_loop_nest_graph(module)
    interp = _ProfilingInterpreter(
        module,
        machine,
        max_instructions=max_instructions,
        backend=backend,
        codegen_cache=codegen_cache,
    )
    interp.count_unwatched = True
    data = ProfileData(module=module, result=None)  # type: ignore[arg-type]
    harness = _ProfilingHarness(nest, data)
    interp.harness = harness
    result = interp.run()
    harness._sync(interp.cycles)
    counts = data.block_counts
    for key, (entries,) in interp.unwatched_entries.items():
        if entries:
            counts[key] = counts.get(key, 0) + entries
    data.result = result
    return data
