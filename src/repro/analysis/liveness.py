"""Virtual-register liveness.

HELIX Step 2 uses liveness to find *loop boundary live variables*: values
produced outside a loop and consumed inside (live-in), produced inside and
consumed after (live-out), and values carried between iterations (live
along the back edge).  All three must move to shared memory when the loop
is parallelized (Step 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from repro.analysis.cfg import CFGView
from repro.analysis.dataflow import DataflowProblem, solve_dataflow
from repro.ir import Function
from repro.ir.operands import VReg


@dataclass
class LivenessInfo:
    """Per-block liveness facts over VReg uids."""

    live_in: Dict[str, FrozenSet[int]]
    live_out: Dict[str, FrozenSet[int]]
    #: uid -> representative VReg (for reporting / rewriting).
    regs: Dict[int, VReg]

    def live_at_entry(self, block: str) -> FrozenSet[int]:
        return self.live_in.get(block, frozenset())

    def live_at_exit(self, block: str) -> FrozenSet[int]:
        return self.live_out.get(block, frozenset())


def block_use_def(block_instrs) -> Tuple[Set[int], Set[int]]:
    """(upward-exposed uses, defs) of a straight-line instruction list."""
    uses: Set[int] = set()
    defs: Set[int] = set()
    for instr in block_instrs:
        for reg in instr.uses():
            if reg.uid not in defs:
                uses.add(reg.uid)
        if instr.dest is not None:
            defs.add(instr.dest.uid)
    return uses, defs


def compute_liveness(func: Function, cfg: CFGView = None) -> LivenessInfo:
    """Classic backward may liveness over virtual registers."""
    cfg = cfg or CFGView(func)

    use: Dict[str, Set[int]] = {}
    defs: Dict[str, Set[int]] = {}
    regs: Dict[int, VReg] = {}
    for name, block in func.blocks.items():
        u, d = block_use_def(block.instructions)
        use[name] = u
        defs[name] = d
        for instr in block.instructions:
            if instr.dest is not None:
                regs[instr.dest.uid] = instr.dest
            for reg in instr.uses():
                regs[reg.uid] = reg
    for param in func.params:
        regs[param.uid] = param

    def transfer(name: str, live_out: FrozenSet[int]) -> FrozenSet[int]:
        return frozenset((set(live_out) - defs[name]) | use[name])

    problem = DataflowProblem(
        direction="backward",
        meet="union",
        transfer=transfer,
        boundary=frozenset(),
    )
    result = solve_dataflow(cfg, problem)
    # For backward problems the solver's "inputs" are facts at block exit.
    return LivenessInfo(live_in=result.outputs, live_out=result.inputs, regs=regs)
