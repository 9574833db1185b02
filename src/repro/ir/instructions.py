"""The IR instruction set.

A single :class:`Instruction` class carries an :class:`Opcode`, an optional
destination register, a tuple of operands and a handful of opcode-specific
attributes.  This "flat" encoding (rather than a class hierarchy) keeps
cloning, scheduling and interpretation simple -- the HELIX passes reorder,
clone and splice instructions constantly.

Instruction summary (``dst`` is a VReg, ``a``/``b``/... operands)::

    MOV    dst, a              copy / materialize constant
    ADD/SUB/MUL/DIV/MOD dst, a, b     arithmetic (int or float by dst type)
    NEG    dst, a              arithmetic negation
    AND/OR/XOR/SHL/SHR dst, a, b      integer bitwise
    NOT    dst, a              logical not (int 0/1)
    EQ/NE/LT/LE/GT/GE  dst, a, b      comparisons, int 0/1 result
    ITOF   dst, a              int -> float
    FTOI   dst, a              float -> int (truncating)
    LEA    dst, sym, idx       dst = address of sym[idx]
    PTRADD dst, p, idx         dst = p + idx elements
    LOADG  dst, sym, idx       dst = sym[idx]          (direct)
    STOREG sym, idx, v         sym[idx] = v            (direct)
    LOADP  dst, p, off         dst = *(p + off)        (indirect)
    STOREP p, off, v           *(p + off) = v          (indirect)
    CALL   dst?, args...       direct call (attribute ``callee``)
    RET    [a]                 return
    BR                         jump (attribute ``targets=[label]``)
    CBR    cond                branch (attribute ``targets=[then, else]``)
    PRINT  a                   observable output (correctness oracle)
    WAIT                       HELIX: block until predecessor signals
    SIGNAL                     HELIX: signal dependence to successor thread
    NEXT_ITER                  HELIX: unblock the next iteration's thread
    XFER   sym, idx            HELIX: forwarded-data load/store marker
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.ir.operands import Operand, Symbol, VReg


class Opcode(enum.Enum):
    """Operation codes of the IR."""

    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NOT = "not"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    ITOF = "itof"
    FTOI = "ftoi"
    LEA = "lea"
    PTRADD = "ptradd"
    LOADG = "loadg"
    STOREG = "storeg"
    LOADP = "loadp"
    STOREP = "storep"
    CALL = "call"
    RET = "ret"
    BR = "br"
    CBR = "cbr"
    PRINT = "print"
    WAIT = "wait"
    SIGNAL = "signal"
    NEXT_ITER = "next_iter"
    XFER = "xfer"


TERMINATOR_OPCODES = frozenset({Opcode.BR, Opcode.CBR, Opcode.RET})

COMPARE_OPCODES = frozenset(
    {Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE}
)

COMMUTATIVE_OPCODES = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.EQ, Opcode.NE}
)

#: Opcodes that read memory (pointer analysis / dependence analysis care).
MEMORY_READ_OPCODES = frozenset({Opcode.LOADG, Opcode.LOADP})

#: Opcodes that write memory.
MEMORY_WRITE_OPCODES = frozenset({Opcode.STOREG, Opcode.STOREP})

_instruction_uid_counter = itertools.count(1)


@dataclass
class Instruction:
    """One IR instruction.

    ``uid`` is unique per process and survives cloning-with-``replace`` only
    if explicitly overridden; the HELIX passes use uids to identify
    dependence endpoints stably across scheduling.
    """

    opcode: Opcode
    dest: Optional[VReg] = None
    args: Tuple[Operand, ...] = ()
    #: Branch targets (block names) for BR/CBR.
    targets: Tuple[str, ...] = ()
    #: Callee function name for CALL.
    callee: Optional[str] = None
    #: Dependence identifier for WAIT/SIGNAL (index into the loop's D_data).
    dep_id: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_instruction_uid_counter))

    def __post_init__(self) -> None:
        self.args = tuple(self.args)
        self.targets = tuple(self.targets)

    # -- structural queries -------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        """Whether this instruction ends a basic block."""
        return self.opcode in TERMINATOR_OPCODES

    @property
    def reads_memory(self) -> bool:
        """Whether this instruction loads from a memory region."""
        return self.opcode in MEMORY_READ_OPCODES

    @property
    def writes_memory(self) -> bool:
        """Whether this instruction stores to a memory region."""
        return self.opcode in MEMORY_WRITE_OPCODES

    @property
    def is_helix_op(self) -> bool:
        """Whether this is a HELIX-inserted synchronization pseudo-op."""
        return self.opcode in (Opcode.WAIT, Opcode.SIGNAL, Opcode.NEXT_ITER)

    def uses(self) -> Tuple[VReg, ...]:
        """Virtual registers read by this instruction."""
        return tuple(a for a in self.args if isinstance(a, VReg))

    def symbol_operand(self) -> Optional[Symbol]:
        """The Symbol operand of LEA/LOADG/STOREG/XFER, if any."""
        for a in self.args:
            if isinstance(a, Symbol):
                return a
        return None

    def clone(self, **overrides) -> "Instruction":
        """Copy this instruction with a fresh uid (unless overridden)."""
        if "uid" not in overrides:
            overrides["uid"] = next(_instruction_uid_counter)
        return replace(self, **overrides)

    def __str__(self) -> str:
        from repro.ir.printer import instruction_to_str

        return instruction_to_str(self)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other
