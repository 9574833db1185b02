"""Function inlining.

HELIX Step 5 inlines a call when a data dependence connects the call to
another instruction of the loop being parallelized -- the dependence
endpoints then become ordinary instructions and the sequential segment can
shrink around them.  The paper's heuristic (and ours): never inline a call
sitting inside a subloop of the target loop, and never inline recursive
functions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.ir import (
    BasicBlock,
    Function,
    Instruction,
    Module,
    Opcode,
)
from repro.ir.operands import Operand, Symbol, VReg


class InlineError(Exception):
    """The requested call site cannot be inlined."""


def can_inline(
    module: Module,
    call: Instruction,
    max_callee_instructions: int = 400,
    callgraph: Optional[CallGraph] = None,
) -> bool:
    """Cheap feasibility check (existence, size, non-recursion).

    ``callgraph`` lets callers probing many sites share one call graph
    (e.g. from the analysis manager) instead of rebuilding it per query.
    """
    if call.opcode is not Opcode.CALL or call.callee not in module.functions:
        return False
    callee = module.functions[call.callee]
    if callee.instruction_count() > max_callee_instructions:
        return False
    # Direct or mutual recursion would require unbounded expansion.
    if callgraph is None:
        callgraph = build_callgraph(module)
    return not callgraph.is_recursive(call.callee)


def inline_call(
    module: Module, caller: Function, call: Instruction
) -> Dict[str, Tuple[str, str]]:
    """Inline ``call`` into ``caller``; returns, for every block it
    created, the ``(function, block)`` it stands for: the callee's block
    a clone copies, the call's own block for the continuation.

    The callee body is cloned with fresh registers and block names; its
    local arrays become (uniquely renamed) locals of the caller.  ``RET v``
    becomes a move into the call's destination plus a jump to the
    continuation block.

    Note: frame-local arrays of the callee become a single caller-frame
    array shared by what were previously distinct activations.  MiniC
    treats local arrays as uninitialized storage (programs must write
    before reading), so this is semantics-preserving for conforming
    programs -- the same contract a C compiler relies on.
    """
    if call.callee not in module.functions:
        raise InlineError(f"unknown callee {call.callee!r}")
    callee = module.functions[call.callee]
    site_block = caller.find_block_of(call)
    if site_block is None:
        raise InlineError("call instruction is not in the caller")

    # First tag the caller has not used: clone names depend on the
    # caller alone, not on what the process inlined before.
    taken = [*caller.blocks, *caller.locals]
    number = 1
    while any(name.startswith(f"inl{number}_") for name in taken):
        number += 1
    tag = f"inl{number}"

    # Split the call block: [before call] -> callee entry ... -> cont.
    index = next(
        i for i, instr in enumerate(site_block.instructions) if instr is call
    )
    cont_block = BasicBlock(f"{tag}_cont")
    cont_block.instructions = site_block.instructions[index + 1:]
    site_block.instructions = site_block.instructions[:index]
    caller.add_block(cont_block)

    # Fresh registers for every callee register.
    reg_map: Dict[int, VReg] = {}

    def map_reg(reg: VReg) -> VReg:
        mapped = reg_map.get(reg.uid)
        if mapped is None:
            mapped = caller.new_vreg(reg.type, reg.name)
            reg_map[reg.uid] = mapped
        return mapped

    # Rename callee locals into the caller frame.
    local_map: Dict[str, Symbol] = {}
    for symbol in callee.locals.values():
        new_name = f"{tag}_{symbol.name}"
        local_map[symbol.name] = caller.add_local_array(
            new_name, symbol.elem_type, symbol.size
        )

    def map_operand(op: Operand) -> Operand:
        if isinstance(op, VReg):
            return map_reg(op)
        if isinstance(op, Symbol) and op.function == callee.name:
            return local_map[op.name]
        return op

    block_map: Dict[str, str] = {
        name: f"{tag}_{name}" for name in callee.blocks
    }

    # Bind arguments.
    for param, arg in zip(callee.params, call.args):
        site_block.append(
            Instruction(Opcode.MOV, dest=map_reg(param), args=(arg,))
        )
    site_block.append(
        Instruction(Opcode.BR, targets=(block_map[callee.entry.name],))
    )

    # Clone the body.
    for name, block in callee.blocks.items():
        clone = BasicBlock(block_map[name])
        for instr in block.instructions:
            if instr.opcode is Opcode.RET:
                if instr.args and call.dest is not None:
                    clone.append(
                        Instruction(
                            Opcode.MOV,
                            dest=call.dest,
                            args=(map_operand(instr.args[0]),),
                        )
                    )
                clone.append(Instruction(Opcode.BR, targets=(cont_block.name,)))
            else:
                clone.append(
                    instr.clone(
                        dest=map_reg(instr.dest) if instr.dest is not None else None,
                        args=tuple(map_operand(a) for a in instr.args),
                        targets=tuple(block_map[t] for t in instr.targets),
                    )
                )
        caller.add_block(clone)

    # Block registrations above already bumped the version; one more bump
    # covers the in-place split of the call site's instruction list.
    caller.bump_version()
    origin = {clone: (callee.name, name) for name, clone in block_map.items()}
    origin[cont_block.name] = (caller.name, site_block.name)
    return origin
