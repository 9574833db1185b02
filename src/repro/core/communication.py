"""Step 7: inter-thread communication.

Synchronization itself is carried by the ``wait``/``signal`` pseudo-ops
(implemented as loads/stores of per-thread memory buffers; the machine
model prices them).  This module adds the *data forwarding* machinery:

* For every cross-iteration **register** dependence, a synthetic global
  slot (the paper's loop-boundary live-variable location in the main
  thread's frame) is created; each producer is followed by a store to the
  slot, and each consumer block gets a load from it inside the guarded
  region.  In the simulator the consumed value still flows through the
  (shared) frame -- iteration threads replay a sequential trace -- so the
  load targets a scratch register: it contributes exactly the memory
  traffic and cycles of the real scheme without perturbing semantics.
* **Transfer marks** (``xfer`` pseudo-ops) are placed after every producer
  and before the first consumer of each data-carrying dependence.  At run
  time the executor charges the inter-core word-transfer latency ``M``
  only when the *previous* iteration actually executed a producer -- the
  paper's observation that an actual data transfer happens far less often
  than synchronization (Figure 2's 6.25% example).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.loops import Loop
from repro.core.loopinfo import DepSync
from repro.ir import Function, Instruction, Module, Opcode
from repro.ir.operands import Const, Symbol, VReg
from repro.ir.types import Type

#: arg layout of an XFER mark: (word count, 1 if producer mark else 0).
XFER_WORDS = 0
XFER_IS_SOURCE = 1


def is_producer_mark(instr: Instruction) -> bool:
    return instr.opcode is Opcode.XFER and instr.args[XFER_IS_SOURCE].value == 1


def xfer_words(instr: Instruction) -> int:
    return int(instr.args[XFER_WORDS].value)


def _slot_symbol(
    module: Module, loop: Loop, dep_index: int, reg_type: Type
) -> Symbol:
    name = f"__helix_slot_{loop.func.name}_{loop.header}_{dep_index}"
    if name in module.globals:
        return module.globals[name]
    elem = Type.FLOAT if reg_type is Type.FLOAT else Type.INT
    return module.add_global(name, elem, 1, synthetic=True)


def insert_communication(
    module: Module,
    func: Function,
    loop: Loop,
    syncs: Sequence[DepSync],
) -> int:
    """Insert forwarding slots and transfer marks; returns ops added."""
    from repro.analysis.dependence import DependenceKind

    added = 0
    for sync in syncs:
        dep = sync.dep
        if dep.transfer_words <= 0:
            continue
        source_uids = {i.uid for i in dep.sources}
        sink_uids = {i.uid for i in dep.sinks}
        words = Const.int(dep.transfer_words)

        slot = None
        scratch = None
        if dep.kind is DependenceKind.REGISTER and dep.register_uid is not None:
            reg = next(
                (r for r in _loop_regs(func, loop) if r.uid == dep.register_uid),
                None,
            )
            if reg is not None and reg.type is not Type.PTR:
                slot = _slot_symbol(module, loop, dep.index, reg.type)
                scratch = func.new_vreg(reg.type, f"xs{dep.index}")

        for name in sorted(loop.blocks):
            block = func.blocks[name]
            rebuilt: List[Instruction] = []
            consumed_marked = False
            produced_reg: VReg = None
            for instr in block.instructions:
                if instr.uid in sink_uids and not consumed_marked:
                    if slot is not None:
                        rebuilt.append(
                            Instruction(
                                Opcode.LOADG,
                                dest=scratch,
                                args=(slot, Const.int(0)),
                            )
                        )
                        added += 1
                    rebuilt.append(
                        Instruction(
                            Opcode.XFER,
                            args=(words, Const.int(0)),
                            dep_id=dep.index,
                        )
                    )
                    added += 1
                    consumed_marked = True
                rebuilt.append(instr)
                if instr.uid in source_uids:
                    if slot is not None and instr.dest is not None:
                        rebuilt.append(
                            Instruction(
                                Opcode.STOREG,
                                args=(slot, Const.int(0), instr.dest),
                            )
                        )
                        added += 1
                    rebuilt.append(
                        Instruction(
                            Opcode.XFER,
                            args=(words, Const.int(1)),
                            dep_id=dep.index,
                        )
                    )
                    added += 1
            block.instructions = rebuilt
    if added:
        func.bump_version()
    return added


def _loop_regs(func: Function, loop: Loop) -> List[VReg]:
    regs: Dict[int, VReg] = {}
    for instr in loop.instructions():
        if instr.dest is not None:
            regs[instr.dest.uid] = instr.dest
        for reg in instr.uses():
            regs[reg.uid] = reg
    return list(regs.values())
