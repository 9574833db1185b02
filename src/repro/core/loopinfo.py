"""Metadata describing one HELIX-parallelized loop.

The transformation produces real IR (guard block, cloned parallel version,
``wait``/``signal``/``next_iter`` pseudo-ops, forwarding marks) *plus* a
:class:`ParallelizedLoop` record; the parallel executor drives its timing
reconstruction off this record.  The record also remembers which block
of the input module every block the transformation created stands for
(:attr:`ParallelizedLoop.origin`), so whatever was measured on the
input -- the training run's block-entry counts -- still describes the
output without measuring again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dependence import DataDependence
from repro.analysis.loopnest import LoopId
from repro.ir import Instruction


@dataclass
class HelixOptions:
    """Configuration of the transformation (the Figure 10 ablation knobs)."""

    #: Step 5: inline calls that are dependence endpoints.
    enable_inlining: bool = True
    #: Step 6: signal minimization.
    enable_signal_optimization: bool = True
    #: Step 8: helper threads (signal prefetching).  Execution-time knob;
    #: recorded here so results are self-describing.
    enable_helper_threads: bool = True
    #: The Figure 6 code-balancing scheduler feeding Step 8.
    enable_prefetch_balancing: bool = True
    #: Step 5 scheduling (shrinking segments within blocks).
    enable_segment_scheduling: bool = True
    max_inline_instructions: int = 400
    max_inline_rounds: int = 4


@dataclass
class DepSync:
    """Synchronization state of one dependence of the loop."""

    dep: DataDependence
    #: Block-level guarded region R(d) in the parallel version.
    region: FrozenSet[str]
    #: Whether this dependence keeps its own wait/signal pair
    #: (a member of N_to-synch after Theorem 1).
    synchronized: bool = True
    #: Index of the dependence whose synchronization covers this one.
    covered_by: Optional[int] = None
    #: Dependences merged into this one (identical regions).
    merged: List[int] = field(default_factory=list)
    wait_instrs: List[Instruction] = field(default_factory=list)
    signal_instrs: List[Instruction] = field(default_factory=list)

    @property
    def index(self) -> int:
        return self.dep.index


@dataclass
class ParallelizedLoop:
    """Everything the runtime needs to know about one parallelized loop."""

    loop_id: LoopId
    func_name: str
    #: Sequential version header (the original loop's header).
    seq_header: str
    #: Guard block: tests ``__helix_active`` and picks a version (Step 9).
    guard_block: str
    #: Parallel-version preheader (sets the active flag).
    par_preheader: str
    par_header: str
    par_latch: str
    par_blocks: Set[str] = field(default_factory=set)
    prologue_blocks: Set[str] = field(default_factory=set)
    body_blocks: Set[str] = field(default_factory=set)
    #: Exit stub block -> successor outside the loop (Step 9 exit paths).
    exit_stubs: Dict[str, str] = field(default_factory=dict)
    #: Where each block this loop's transformation created came from:
    #: block of ``func_name`` -> ``(function, block)`` of the *input*
    #: module (a parallel-version clone maps to the block it copies, an
    #: inlined block to the callee's, the guard, the preheader and the
    #: exit stubs to the loop's preheader).  Not printed IR: a dynamic
    #: profile of the input module is carried onto the transformed one
    #: through it (see :class:`repro.runtime.parallel.ParallelExecutor`).
    origin: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    deps: List[DepSync] = field(default_factory=list)
    #: Counted loop (Step 3): the prologue is pure bookkeeping over
    #: induction/invariant values, so each core derives its own iteration
    #: numbers locally and no control signal chain is needed.
    counted: bool = False
    #: Helper-thread wait sequence: dependence indices in availability
    #: order (Step 8).
    helper_order: List[int] = field(default_factory=list)
    options: HelixOptions = field(default_factory=HelixOptions)

    # -- static statistics (Table 1 inputs) ---------------------------------

    #: Wait/signal instruction counts before Step 6 ran.
    naive_waits: int = 0
    naive_signals: int = 0
    final_waits: int = 0
    final_signals: int = 0
    inlined_calls: int = 0
    #: Instruction count of the parallel version (code size proxy).
    par_instruction_count: int = 0

    @property
    def synchronized_deps(self) -> List[DepSync]:
        return [d for d in self.deps if d.synchronized]

    @property
    def segments_per_iteration(self) -> int:
        """Number of sequential segments (synchronized dependences)."""
        return len(self.synchronized_deps)

    def dep_by_index(self, index: int) -> DepSync:
        for sync in self.deps:
            if sync.dep.index == index:
                return sync
        raise KeyError(index)

    def code_size_bytes(self, bytes_per_instruction: int = 4) -> int:
        """Rough machine-code footprint of one iteration thread."""
        return self.par_instruction_count * bytes_per_instruction
