"""Metadata describing one HELIX-parallelized loop.

The transformation produces real IR (guard block, cloned parallel version,
``wait``/``signal``/``next_iter`` pseudo-ops, forwarding marks) *plus* a
:class:`ParallelizedLoop` record; the parallel executor drives its timing
reconstruction off this record.  The record also remembers which block
of the input module every block the transformation created stands for
(:attr:`ParallelizedLoop.origin`), so whatever was measured on the
input -- the training run's block-entry counts -- still describes the
output without measuring again.  A :class:`LoopRecord` is the part of
the record that timing a recorded run reads, small enough to store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.ir import Instruction

if TYPE_CHECKING:
    from repro.analysis.dependence import DataDependence
    from repro.analysis.loopnest import LoopId


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


@dataclass(frozen=True)
class LoopRecord:
    """What timing a recorded run reads of one parallelized loop.

    The recording run reads where an invocation begins, iterates and
    ends; the scheduler reads whether the loop is counted and its helper
    order.  A ``plan`` artifact stores these records, so a stored
    recording is timed without the transformed module; a
    :class:`ParallelizedLoop` answers the same fields.
    """

    loop_id: LoopId
    func_name: str
    par_preheader: str
    par_header: str
    #: The exit stub blocks, sorted.
    exit_stubs: Tuple[str, ...]
    counted: bool
    helper_order: Tuple[int, ...]

    @classmethod
    def of(cls, info: ParallelizedLoop) -> "LoopRecord":
        return cls(
            loop_id=info.loop_id,
            func_name=info.func_name,
            par_preheader=info.par_preheader,
            par_header=info.par_header,
            exit_stubs=tuple(sorted(info.exit_stubs)),
            counted=info.counted,
            helper_order=tuple(info.helper_order),
        )

    def to_dict(self) -> dict:
        return {
            "loop_id": list(self.loop_id),
            "func_name": self.func_name,
            "par_preheader": self.par_preheader,
            "par_header": self.par_header,
            "exit_stubs": list(self.exit_stubs),
            "counted": self.counted,
            "helper_order": list(self.helper_order),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopRecord":
        """Raises ``KeyError`` or ``TypeError`` on a mistyped record."""
        loop_id, stubs, order = (
            data["loop_id"], data["exit_stubs"], data["helper_order"]
        )
        names = [data["func_name"], data["par_preheader"], data["par_header"]]
        if not (
            isinstance(loop_id, list)
            and len(loop_id) == 2
            and isinstance(stubs, list)
            and isinstance(order, list)
            and all(isinstance(name, str) for name in loop_id + stubs + names)
            and all(type(index) is int for index in order)
            and isinstance(data["counted"], bool)
        ):
            raise TypeError("mistyped loop record")
        return cls(
            loop_id=tuple(loop_id),
            func_name=data["func_name"],
            par_preheader=data["par_preheader"],
            par_header=data["par_header"],
            exit_stubs=tuple(stubs),
            counted=data["counted"],
            helper_order=tuple(order),
        )


#: What timing a recorded run reads a loop from: the transformation's
#: own record, or the part of it a ``plan`` artifact stores.
LoopInfo = Union[ParallelizedLoop, LoopRecord]
