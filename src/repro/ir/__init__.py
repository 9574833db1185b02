"""Intermediate representation for the HELIX reproduction.

A register-based, non-SSA three-address IR with an explicit control-flow
graph.  It plays the role of ILDJIT's CIL-derived IR in the original system:
every HELIX analysis and transformation in :mod:`repro.core` operates on this
representation.

Public surface:

* :class:`~repro.ir.types.Type` -- the small scalar type system.
* :class:`~repro.ir.operands.VReg`, :class:`~repro.ir.operands.Const`,
  :class:`~repro.ir.operands.Symbol` -- operand kinds.
* :class:`~repro.ir.instructions.Opcode`,
  :class:`~repro.ir.instructions.Instruction` -- the instruction set.
* :class:`~repro.ir.basicblock.BasicBlock`,
  :class:`~repro.ir.function.Function`, :class:`~repro.ir.module.Module`.
* :class:`~repro.ir.builder.IRBuilder` -- convenience construction API.
* :func:`~repro.ir.printer.module_to_str` -- textual dump.
* :func:`~repro.ir.verify.verify_module` -- structural verifier.
"""

from repro.ir.types import Type
from repro.ir.operands import Const, Operand, Symbol, VReg
from repro.ir.instructions import (
    COMMUTATIVE_OPCODES,
    COMPARE_OPCODES,
    MEMORY_READ_OPCODES,
    MEMORY_WRITE_OPCODES,
    TERMINATOR_OPCODES,
    Instruction,
    Opcode,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.builder import IRBuilder
from repro.ir.printer import function_to_str, instruction_to_str, module_to_str
from repro.ir.verify import IRVerificationError, verify_function, verify_module

__all__ = [
    "Type",
    "Operand",
    "VReg",
    "Const",
    "Symbol",
    "Opcode",
    "Instruction",
    "TERMINATOR_OPCODES",
    "COMPARE_OPCODES",
    "COMMUTATIVE_OPCODES",
    "MEMORY_READ_OPCODES",
    "MEMORY_WRITE_OPCODES",
    "BasicBlock",
    "Function",
    "Module",
    "IRBuilder",
    "module_to_str",
    "function_to_str",
    "instruction_to_str",
    "verify_module",
    "verify_function",
    "IRVerificationError",
]
