"""Structural verifier for the IR.

Run after the frontend and after every HELIX transformation step in tests:
catching a malformed CFG at the step that produced it is far cheaper than
debugging a misbehaving simulation.
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.module import Module
from repro.ir.operands import Const, Symbol, VReg
from repro.ir.types import Type


class IRVerificationError(ValueError):
    """Raised when a module or function violates a structural invariant."""


_ARITY = {
    Opcode.MOV: 1,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.DIV: 2,
    Opcode.MOD: 2,
    Opcode.NEG: 1,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.XOR: 2,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.NOT: 1,
    Opcode.EQ: 2,
    Opcode.NE: 2,
    Opcode.LT: 2,
    Opcode.LE: 2,
    Opcode.GT: 2,
    Opcode.GE: 2,
    Opcode.ITOF: 1,
    Opcode.FTOI: 1,
    Opcode.LEA: 2,
    Opcode.PTRADD: 2,
    Opcode.LOADG: 2,
    Opcode.STOREG: 3,
    Opcode.LOADP: 2,
    Opcode.STOREP: 3,
    Opcode.BR: 0,
    Opcode.CBR: 1,
    Opcode.PRINT: 1,
    Opcode.WAIT: 0,
    Opcode.SIGNAL: 0,
    Opcode.NEXT_ITER: 0,
    Opcode.XFER: 2,
}

_NEEDS_DEST = frozenset(
    {
        Opcode.MOV,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.NEG,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.NOT,
        Opcode.EQ,
        Opcode.NE,
        Opcode.LT,
        Opcode.LE,
        Opcode.GT,
        Opcode.GE,
        Opcode.ITOF,
        Opcode.FTOI,
        Opcode.LEA,
        Opcode.PTRADD,
        Opcode.LOADG,
        Opcode.LOADP,
    }
)

_TARGET_COUNT = {Opcode.BR: 1, Opcode.CBR: 2}


def verify_function(func: Function, module: Module) -> List[str]:
    """Return a list of violations found in ``func`` (empty if clean)."""
    errors: List[str] = []

    def err(msg: str) -> None:
        errors.append(f"{func.name}: {msg}")

    if not func.blocks:
        err("has no blocks")
        return errors

    for block in func.blocks.values():
        if not block.is_terminated:
            err(f"block {block.name} lacks a terminator")
        for i, instr in enumerate(block.instructions):
            where = f"{block.name}[{i}] {instr.opcode.value}"
            if instr.is_terminator and i != len(block.instructions) - 1:
                err(f"{where}: terminator not at block end")
            expected = _ARITY.get(instr.opcode)
            if instr.opcode is Opcode.CALL:
                if instr.callee is None:
                    err(f"{where}: CALL without callee")
                elif instr.callee not in module.functions:
                    err(f"{where}: CALL to unknown function {instr.callee!r}")
                else:
                    callee = module.functions[instr.callee]
                    if len(instr.args) != len(callee.params):
                        err(
                            f"{where}: CALL arity {len(instr.args)} != "
                            f"{len(callee.params)} params of {instr.callee}"
                        )
            elif instr.opcode is Opcode.RET:
                want = 0 if func.return_type is Type.VOID else 1
                if len(instr.args) != want:
                    err(f"{where}: RET arity {len(instr.args)}, expected {want}")
            elif expected is not None and len(instr.args) != expected:
                err(f"{where}: arity {len(instr.args)}, expected {expected}")
            if instr.opcode in _NEEDS_DEST and instr.dest is None:
                err(f"{where}: missing destination register")
            if instr.opcode in (Opcode.WAIT, Opcode.SIGNAL) and instr.dep_id is None:
                err(f"{where}: {instr.opcode.value} without dep_id")
            want_targets = _TARGET_COUNT.get(instr.opcode)
            if want_targets is not None:
                if len(instr.targets) != want_targets:
                    err(f"{where}: {len(instr.targets)} targets, expected {want_targets}")
                for target in instr.targets:
                    if target not in func.blocks:
                        err(f"{where}: branch to unknown block {target!r}")
            for arg in instr.args:
                if isinstance(arg, Symbol):
                    known = (
                        arg.name in module.globals
                        and module.globals[arg.name] == arg
                    ) or (
                        arg.function is not None
                        and arg.name in func.locals
                    )
                    if not known:
                        err(f"{where}: reference to unknown symbol {arg}")
                elif not isinstance(arg, (VReg, Const)):
                    err(f"{where}: bad operand {arg!r}")
    return errors


def verify_module(module: Module) -> None:
    """Raise :class:`IRVerificationError` if any function is malformed."""
    errors: List[str] = []
    for func in module.functions.values():
        errors.extend(verify_function(func, module))
    if errors:
        raise IRVerificationError("\n".join(errors))
