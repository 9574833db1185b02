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
stack changes at two kinds of event only: an edge that enters a loop
from outside it or leaves one is taken, or a call returns out of loops
it left active.  The profiling interpreter declares those edges
(:meth:`~repro.runtime.interpreter.Interpreter.watched_edges`, from
the :class:`~repro.analysis.loopnest.StaticLoopNestGraph`), so
generated code calls its hook there and nowhere else: a back edge that
leaves no loop -- most header entries of any run -- costs a static
counter bump.  Attribution is O(1) per event and exact.  A stack entry
remembers the clock at its push and adds ``exit clock - entry clock``
to its loop's ``total_cycles`` at its pop, the sum of the deltas a
walk over the stack would have added event by event; ``self_cycles``
goes to the innermost entry alone, for the interval since the stack
last changed, and between two changes the innermost loop is constant,
so the one late addition equals the per-block additions it replaces.
``iterations`` is not counted by the hook: every entry of a header
begins an iteration, so it is the header's block count, read after the
run.  The block counts are the hook's own plus the static counters the
generated code bumps at the boundaries that do not call it.  The tree
walker still calls the hook at every block, which it tolerates (an
undeclared edge pops nothing and pushes nothing); the profile is
identical either way (the differential tests assert it).
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
from repro.ir import BasicBlock, Function, Instruction, Module, Opcode
from repro.ir.types import Type
from repro.runtime.interpreter import (
    DEFAULT_MAX_INSTRUCTIONS,
    ExecutionResult,
    Interpreter,
)
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
        """JSON-stable representation (:meth:`from_dict` reads it back)."""
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
    def from_dict(cls, data: dict) -> "ProfileData":
        loops = [LoopProfile.from_dict(p) for p in data["loops"]]
        return cls(
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


class _ProfilingInterpreter(Interpreter):
    """Interpreter whose hook overrides accumulate a :class:`ProfileData`.

    Under ``backend="auto"`` profiling runs on generated code, which
    calls the overridden :meth:`on_block_entry` with exact cycle counts
    on the :meth:`watched_edges`, so the collected profile is
    bit-identical to a tree run (the differential tests assert this) at
    codegen speed.
    """

    def __init__(
        self, module: Module, nest: StaticLoopNestGraph, data: ProfileData,
        machine: Optional[MachineConfig] = None, **kwargs
    ) -> None:
        super().__init__(module, machine, **kwargs)
        self.count_unwatched = True
        self.nest = nest
        self.data = data
        #: Header block (of the interpreted module) -> its loop.
        self._headers: Dict[BasicBlock, Loop] = {
            module.functions[name].blocks[header]: loop
            for name, forest in nest.forests.items()
            for header, loop in forest.by_header.items()
        }
        #: (loop, its profile, cycles when entered) for every active
        #: loop, across function activations.
        self._active: List[Tuple[Loop, LoopProfile, int]] = []
        #: Depth of ``_active`` when the running activation began: the
        #: loops above it are that activation's own.
        self._base = 0
        #: Start of the interval not yet added to any ``self_cycles``.
        self._last_cycles = 0
        #: Block -> times the hook announced it.
        self._announced: Dict[BasicBlock, int] = {}
        #: func name -> (active count, cycles at outermost entry).
        self._recursion: Dict[str, Tuple[int, int]] = {}

    def watched_edges(self, func: Function) -> FrozenSet[Tuple[str, str]]:
        """Every edge that can change the stack of active loops: those
        entering a loop from outside it (push) and those leaving one
        (pop).  On any other edge the hook only counts the target;
        generated code counts those statically (``count_unwatched``),
        back edges into a header included.
        """
        forest = self.nest.forests.get(func.name)
        if forest is None:
            return frozenset()
        cfg = CFGView(func)
        edges = set()
        for loop in forest:
            edges.update(loop.exit_edges(cfg))
            edges.update(
                (prev, loop.header)
                for prev in cfg.preds[loop.header]
                if prev not in loop.blocks
            )
        return frozenset(edges)

    def on_block_entry(self, frame, prev, block) -> None:
        announced = self._announced
        announced[block] = announced.get(block, 0) + 1
        active = self._active
        base = self._base
        name = block.name
        # Leave the loops of this activation that do not contain the block.
        while len(active) > base and name not in active[-1][0].blocks:
            self._leave()
        loop = self._headers.get(block)
        if loop is None or (len(active) > base and active[-1][0] is loop):
            # Not a header, or a back edge (which only the tiers that
            # announce every entry ever report).
            return
        cycles = self._mark()
        profile = self.data.loops.get(loop.id)
        if profile is None:
            profile = self.data.loops[loop.id] = LoopProfile(loop.id)
        profile.invocations += 1
        self.data.dynamic_nesting.record(
            active[-1][0].id if active else None, loop.id
        )
        active.append((loop, profile, cycles))

    def _mark(self) -> int:
        """Close the interval since the last change of the innermost
        active loop and add it to that loop's ``self_cycles``."""
        cycles = self.cycles
        if self._active:
            self._active[-1][1].self_cycles += cycles - self._last_cycles
        self._last_cycles = cycles
        return cycles

    def _leave(self) -> None:
        cycles = self._mark()
        _loop, profile, entered = self._active.pop()
        profile.total_cycles += cycles - entered

    def call_function(self, func, args):
        name = func.name
        data = self.data
        data.func_activations[name] = data.func_activations.get(name, 0) + 1
        count, first = self._recursion.get(name, (0, 0))
        if count == 0:
            first = self.cycles
        self._recursion[name] = (count + 1, first)
        active = self._active
        caller_base = self._base
        self._base = depth = len(active)
        value = super().call_function(func, args)
        # Loops the activation returned out of.
        while len(active) > depth:
            self._leave()
        self._base = caller_base
        if count == 0:
            data.func_inclusive_cycles[name] = (
                data.func_inclusive_cycles.get(name, 0) + self.cycles - first
            )
        self._recursion[name] = (count, first)
        return value


def profile_module(
    module: Module,
    machine: Optional[MachineConfig] = None,
    nest: Optional[StaticLoopNestGraph] = None,
    max_instructions: Optional[int] = DEFAULT_MAX_INSTRUCTIONS,
    backend: str = "auto",
) -> ProfileData:
    """Run ``module`` once under instrumentation and return the profile.

    Under ``backend="auto"`` the run is generated code (fused chains
    announce the edges that enter or leave a loop, with exact counters,
    and count the targets of the rest); the collected profile is identical under ``backend="tree"``
    (the differential tests assert this).
    """
    nest = nest or build_static_loop_nest_graph(module)
    data = ProfileData(result=None)  # type: ignore[arg-type]
    interp = _ProfilingInterpreter(
        module,
        nest,
        data,
        machine,
        max_instructions=max_instructions,
        backend=backend,
    )
    data.result = interp.run()
    counts = data.block_counts
    for func in module.functions.values():
        for name, block in func.blocks.items():
            key = (func.name, name)
            (unwatched,) = interp.unwatched_entries.get(key, (0,))
            entries = interp._announced.get(block, 0) + unwatched
            if entries:
                counts[key] = entries
    # Every entry of a header begins an iteration, and a loop's id is
    # its header's key.
    for loop_id, profile in data.loops.items():
        profile.iterations = counts[loop_id]
    return data
