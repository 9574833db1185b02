"""The HELIX per-loop pipeline and whole-module driver (Steps 1-9).

For each chosen loop:

1. *Normalize* (Step 1): unique preheader and latch; partition into
   prologue (blocks that can still leave the loop) and body.
2. *Inline* (Step 5's first half): calls that are dependence endpoints and
   do not sit in a subloop are inlined, shrinking future segments.
3. *Version* (Step 9): the loop is cloned; a guard block tests the global
   ``__helix_active`` flag and runs the sequential original whenever
   another parallelized loop is already running; exit stubs clear the flag
   and record which exit path was taken.
4. *Dependences* (Step 2) are computed on the parallel version.
5. *Synchronize* (Step 4), *minimize signals* (Step 6), *insert
   communication* (Step 7).
6. *Start next iterations* (Step 3): ``next_iter`` on every
   prologue->body crossing edge.
7. *Schedule* (Step 5) and *balance for prefetching* (Step 8, Figure 6);
   compute the helper threads' wait order.

The driver mutates a **clone** of the input module, so the caller keeps
the original for sequential baselines.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.loopnest import LoopId
from repro.analysis.manager import AnalysisManager
from repro.core.communication import insert_communication
from repro.core.loopinfo import HelixOptions, ParallelizedLoop
from repro.core.scheduling import (
    balance_loop,
    helper_wait_order,
    schedule_loop,
)
from repro.core.segments import insert_synchronization
from repro.core.signals import optimize_signals
from repro.ir import (
    BasicBlock,
    Function,
    Instruction,
    Module,
    Opcode,
    verify_module,
)
from repro.ir.module import clone_module
from repro.ir.operands import Const
from repro.ir.types import Type
from repro.obs import get_tracer
from repro.runtime.machine import MachineConfig
from repro.transform.inline import can_inline, inline_call
from repro.transform.normalize import NormalizedLoop, normalize_loop

#: Name of the "a parallel loop is running" global (Step 9).
ACTIVE_FLAG = "__helix_active"


class HelixError(Exception):
    """The requested loop cannot be parallelized."""


#: Opcodes whose presence in the prologue makes a loop non-counted: side
#: effects, or synchronization (i.e. a dependence endpoint sits there).
_NON_COUNTED_OPCODES = frozenset(
    {
        Opcode.CALL,
        Opcode.PRINT,
        Opcode.STOREG,
        Opcode.STOREP,
        Opcode.WAIT,
        Opcode.SIGNAL,
        Opcode.XFER,
    }
)


def is_counted_loop(func: Function, prologue_blocks) -> bool:
    """Step 3's counted-loop test: the prologue is pure bookkeeping.

    When the decision to run the next iteration depends only on values a
    core can compute locally (induction variables, loop invariants), HELIX
    emits a prologue that needs neither signals nor data from previous
    iterations.  After Steps 4/6 have run, any loop-carried influence on
    the exit test manifests as a ``wait`` (or other synchronization op) in
    the prologue, so the test reduces to: no side-effecting or
    synchronization instruction in any prologue block.
    """
    for name in prologue_blocks:
        for instr in func.blocks[name].instructions:
            if instr.opcode in _NON_COUNTED_OPCODES:
                return False
    return True


class HelixParallelizer:
    """Applies the HELIX transformation to loops of one module."""

    def __init__(
        self,
        module: Module,
        machine: Optional[MachineConfig] = None,
        options: Optional[HelixOptions] = None,
        manager: Optional[AnalysisManager] = None,
    ) -> None:
        self.module = module
        self.machine = machine or MachineConfig()
        self.options = options or HelixOptions()
        #: Shared analysis cache; every analysis request of Steps 1-9 goes
        #: through it, so analyses recompute once per mutation, not once
        #: per call site.
        self.am = manager or AnalysisManager()
        #: Per-instance loop-versioning tags (P1, P2, ...): each
        #: parallelizer starts from 1, so transformed modules get the
        #: same block names no matter how many ran earlier in the
        #: process (byte-identical, reproducible output).
        self._version_counter = itertools.count(1)
        #: ``(function, block)`` of every block created so far -> the
        #: ``(function, block)`` of the input module it stands for.
        self._origin: Dict[Tuple[str, str], Tuple[str, str]] = {}
        if ACTIVE_FLAG not in module.globals:
            module.add_global(ACTIVE_FLAG, Type.INT, 1, synthetic=True)

    def _created(
        self, func_name: str, block: str, source: Tuple[str, str]
    ) -> None:
        """Note that new ``block`` of ``func_name`` copies, continues or
        fronts ``source``, traced back to the input module when
        ``source`` was itself created (an inlined body cloned into the
        parallel version, a second loop over the first one's blocks)."""
        self._origin[(func_name, block)] = self._origin.get(source, source)

    # -- Step 5 (first half): dependence-driven inlining ---------------------

    def _inlinable_calls(self, func: Function, loop, forest) -> bool:
        """Whether ``loop`` directly contains any call that could be
        inlined at all (necessary condition for the dependence scan)."""
        callgraph = self.am.callgraph(self.module)
        for name in sorted(loop.blocks):
            if forest.loop_of(name) is not loop:
                continue
            for instr in func.blocks[name].instructions:
                if instr.opcode is Opcode.CALL and can_inline(
                    self.module,
                    instr,
                    self.options.max_inline_instructions,
                    callgraph=callgraph,
                ):
                    return True
        return False

    def _inline_endpoint_calls(self, func: Function, header: str) -> int:
        inlined = 0
        for _round in range(self.options.max_inline_rounds):
            forest = self.am.loops(func)
            loop = forest.by_header.get(header)
            if loop is None:
                raise HelixError(f"loop {header!r} vanished during inlining")
            # A round can only inline a call that exists directly in the
            # loop and passes the feasibility check; when none does (the
            # common case: loops without calls, and the round after the
            # last successful inline), stop before paying for a dependence
            # query at all.
            if not self._inlinable_calls(func, loop, forest):
                break
            analysis = self.am.dependence(self.module)
            deps = analysis.loop_dependences(func, loop)
            callgraph = self.am.callgraph(self.module)
            call_endpoint = None
            for dep in deps:
                for endpoint in dep.endpoints():
                    if endpoint.opcode is not Opcode.CALL:
                        continue
                    block = func.find_block_of(endpoint)
                    if block is None or block.name not in loop.blocks:
                        continue
                    # Not contained in a subloop of this loop.
                    if forest.loop_of(block.name) is not loop:
                        continue
                    if can_inline(
                        self.module,
                        endpoint,
                        self.options.max_inline_instructions,
                        callgraph=callgraph,
                    ):
                        call_endpoint = endpoint
                        break
                if call_endpoint is not None:
                    break
            if call_endpoint is None:
                break
            created = inline_call(self.module, func, call_endpoint)
            for block, source in created.items():
                self._created(func.name, block, source)
            inlined += 1
        return inlined

    # -- Step 9: loop versioning -----------------------------------------------

    def _version_loop(
        self, func: Function, norm: NormalizedLoop
    ) -> Tuple[Dict[str, str], str, str, Dict[str, str]]:
        """Clone the loop; build guard/flag blocks and exit stubs.

        Returns (block name map, guard name, parallel preheader name,
        exit stub -> outside successor).
        """
        tag = f"P{next(self._version_counter)}"
        flag = self.module.globals[ACTIVE_FLAG]
        name_map = {name: f"{tag}_{name}" for name in norm.blocks}

        stub_map: Dict[str, str] = {}
        stubs: Dict[str, str] = {}

        def stub_for(outside: str) -> str:
            if outside not in stub_map:
                stub = BasicBlock(f"{tag}_exit_{outside}")
                stub.append(
                    Instruction(
                        Opcode.STOREG, args=(flag, Const.int(0), Const.int(0))
                    )
                )
                stub.append(Instruction(Opcode.BR, targets=(outside,)))
                func.add_block(stub)
                stub_map[outside] = stub.name
                stubs[stub.name] = outside
            return stub_map[outside]

        for name in sorted(norm.blocks):
            source = func.blocks[name]
            clone = BasicBlock(name_map[name])
            for instr in source.instructions:
                new_targets = []
                for target in instr.targets:
                    if target in name_map:
                        new_targets.append(name_map[target])
                    else:
                        new_targets.append(stub_for(target))
                clone.append(instr.clone(targets=tuple(new_targets)))
            func.add_block(clone)

        par_pre = BasicBlock(f"{tag}_pre")
        par_pre.append(
            Instruction(Opcode.STOREG, args=(flag, Const.int(1), Const.int(1)))
        )
        par_pre.append(
            Instruction(Opcode.BR, targets=(name_map[norm.header],))
        )
        # Flag lives at index 0; fix args: (symbol, index, value).
        par_pre.instructions[0].args = (flag, Const.int(0), Const.int(1))
        func.add_block(par_pre)

        guard = BasicBlock(f"{tag}_guard")
        active = func.new_vreg(Type.INT, "helix_active")
        guard.append(
            Instruction(Opcode.LOADG, dest=active, args=(flag, Const.int(0)))
        )
        guard.append(
            Instruction(
                Opcode.CBR,
                args=(active,),
                targets=(norm.header, par_pre.name),
            )
        )
        func.add_block(guard)
        func.blocks[norm.preheader].retarget(norm.header, guard.name)
        return name_map, guard.name, par_pre.name, stubs

    # -- Step 3: next_iter insertion ----------------------------------------------

    def _insert_next_iter(
        self,
        func: Function,
        info: ParallelizedLoop,
        crossing_edges: Sequence[Tuple[str, str]],
    ) -> None:
        for i, (src, dst) in enumerate(sorted(crossing_edges)):
            nx_block = BasicBlock(f"{info.par_header}_nx{i}")
            nx_block.append(Instruction(Opcode.NEXT_ITER))
            nx_block.append(Instruction(Opcode.BR, targets=(dst,)))
            func.add_block(nx_block)
            func.blocks[src].retarget(dst, nx_block.name)
            self._created(func.name, nx_block.name, (func.name, dst))
            info.par_blocks.add(nx_block.name)
            info.body_blocks.add(nx_block.name)

    # -- the pipeline -------------------------------------------------------------

    def parallelize_loop(self, loop_id: LoopId) -> ParallelizedLoop:
        """Run Steps 1-9 on one loop; returns its metadata record."""
        with get_tracer().span(
            "helix.loop", cat="helix", loop=f"{loop_id[0]}:{loop_id[1]}"
        ):
            return self._parallelize_loop(loop_id)

    def _parallelize_loop(self, loop_id: LoopId) -> ParallelizedLoop:
        tracer = get_tracer()
        func_name, header = loop_id
        func = self.module.functions.get(func_name)
        if func is None:
            raise HelixError(f"no function {func_name!r}")

        created_before = len(self._origin)
        inlined = 0
        if self.options.enable_inlining:
            with tracer.span("helix.step5.inline", cat="helix") as span:
                inlined = self._inline_endpoint_calls(func, header)
                span.set(inlined=inlined)

        forest = self.am.loops(func)
        loop = forest.by_header.get(header)
        if loop is None:
            raise HelixError(f"no loop with header {header!r} in {func_name}")

        # Step 1: normalization (on the original; structure is mirrored by
        # the clone block-for-block).
        with tracer.span("helix.step1.normalize", cat="helix"):
            norm = normalize_loop(func, loop)
        for block, source in norm.created.items():
            self._created(func_name, block, (func_name, source))

        # Step 9: versioning.
        with tracer.span("helix.step9.version", cat="helix"):
            name_map, guard_name, par_pre, stubs = self._version_loop(
                func, norm
            )
        for name, clone in name_map.items():
            self._created(func_name, clone, (func_name, name))
        # What fronts and leaves the loop runs once per invocation, like
        # the preheader.
        for block in (guard_name, par_pre, *stubs):
            self._created(func_name, block, (func_name, norm.preheader))

        info = ParallelizedLoop(
            loop_id=loop_id,
            func_name=func_name,
            seq_header=header,
            guard_block=guard_name,
            par_preheader=par_pre,
            par_header=name_map[norm.header],
            par_latch=name_map[norm.latch],
            par_blocks={name_map[b] for b in norm.blocks},
            prologue_blocks={name_map[b] for b in norm.prologue_blocks},
            body_blocks={name_map[b] for b in norm.body_blocks},
            exit_stubs=stubs,
            options=self.options,
            inlined_calls=inlined,
        )

        # Locate the parallel version as a natural loop.
        forest = self.am.loops(func)
        par_loop = forest.by_header.get(info.par_header)
        if par_loop is None:
            raise HelixError("parallel version is not a natural loop")

        # Step 2: dependences to synchronize.
        with tracer.span("helix.step2.dependence", cat="helix") as span:
            analysis = self.am.dependence(self.module)
            deps = analysis.loop_dependences(func, par_loop)
            span.set(dependences=len(deps))

        # Step 4: sequential segments.
        with tracer.span("helix.step4.synchronize", cat="helix"):
            syncs = insert_synchronization(
                func, par_loop, deps, cfg=self.am.cfg(func)
            )
        info.deps = syncs
        info.naive_waits = sum(len(s.wait_instrs) for s in syncs)
        info.naive_signals = sum(len(s.signal_instrs) for s in syncs)

        # Step 6: signal minimization.
        if self.options.enable_signal_optimization:
            with tracer.span("helix.step6.signals", cat="helix"):
                optimize_signals(func, par_loop, syncs, cfg=self.am.cfg(func))

        # Step 7: communication.
        with tracer.span("helix.step7.communication", cat="helix"):
            insert_communication(self.module, func, par_loop, syncs)

        # Step 3: counted-loop analysis (after synchronization exists, so
        # carried influence on the exit test is visible as a prologue
        # wait), then start next iterations.
        with tracer.span("helix.step3.next_iter", cat="helix") as span:
            info.counted = is_counted_loop(func, info.prologue_blocks)
            span.set(counted=info.counted)
            crossing = [
                (name_map[a], name_map[b]) for a, b in norm.crossing_edges
            ]
            self._insert_next_iter(func, info, crossing)

        # Steps 5 and 8 operate on the final block set.
        forest = self.am.loops(func)
        par_loop = forest.by_header[info.par_header]
        if self.options.enable_segment_scheduling:
            with tracer.span("helix.step5.schedule", cat="helix"):
                schedule_loop(func, par_loop, analysis.points_to, syncs)
        with tracer.span("helix.step8.balance", cat="helix"):
            if (
                self.options.enable_helper_threads
                and self.options.enable_prefetch_balancing
            ):
                balance_loop(
                    func, par_loop, analysis.points_to, syncs, self.machine
                )
            info.helper_order = helper_wait_order(
                func, par_loop, syncs, cfg=self.am.cfg(func)
            )

        info.final_waits = sum(len(s.wait_instrs) for s in syncs)
        info.final_signals = sum(len(s.signal_instrs) for s in syncs)
        info.par_instruction_count = sum(
            len(func.blocks[name].instructions) for name in info.par_blocks
        )
        # Everything created since this loop's Step 5 is in ``func``.
        info.origin = {
            block: source
            for (_, block), source in itertools.islice(
                self._origin.items(), created_before, None
            )
        }
        return info


def parallelize_module(
    module: Module,
    loop_ids: Sequence[LoopId],
    machine: Optional[MachineConfig] = None,
    options: Optional[HelixOptions] = None,
    manager: Optional[AnalysisManager] = None,
) -> Tuple[Module, List[ParallelizedLoop]]:
    """Parallelize ``loop_ids`` on a clone of ``module``.

    Returns the transformed module plus per-loop metadata.  The input
    module is left untouched (it remains the sequential baseline).
    ``manager`` shares one analysis cache with the caller (selection,
    the evaluation runner); omitted, the parallelizer creates its own.
    """
    with get_tracer().span(
        "helix.parallelize_module", cat="helix", loops=len(loop_ids)
    ):
        transformed = clone_module(module)
        parallelizer = HelixParallelizer(transformed, machine, options, manager)
        infos: List[ParallelizedLoop] = []
        for loop_id in loop_ids:
            infos.append(parallelizer.parallelize_loop(loop_id))
        verify_module(transformed)
        return transformed, infos
