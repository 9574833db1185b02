"""Tests for the Instruction class and opcode classifications."""

from repro.ir import (
    COMMUTATIVE_OPCODES,
    MEMORY_READ_OPCODES,
    MEMORY_WRITE_OPCODES,
    TERMINATOR_OPCODES,
    Instruction,
    Opcode,
)
from repro.ir.operands import Const, Symbol, VReg
from repro.ir.types import Type


def make_add():
    dest = VReg(0, Type.INT)
    return Instruction(
        Opcode.ADD, dest=dest, args=(VReg(1, Type.INT), Const.int(2))
    )


class TestStructure:
    def test_uids_unique(self):
        a, b = make_add(), make_add()
        assert a.uid != b.uid

    def test_clone_gets_fresh_uid(self):
        a = make_add()
        b = a.clone()
        assert b.uid != a.uid
        assert b.opcode is a.opcode and b.args == a.args

    def test_clone_with_overrides(self):
        a = Instruction(Opcode.BR, targets=("x",))
        b = a.clone(targets=("y",))
        assert b.targets == ("y",)

    def test_identity_equality(self):
        a = make_add()
        assert a == a
        assert a != make_add()

    def test_hash_is_uid(self):
        a = make_add()
        assert hash(a) == a.uid

    def test_uses_returns_only_registers(self):
        instr = make_add()
        uses = instr.uses()
        assert len(uses) == 1 and uses[0].uid == 1

    def test_symbol_operand(self):
        sym = Symbol("g", Type.INT, 4)
        load = Instruction(
            Opcode.LOADG, dest=VReg(0, Type.INT), args=(sym, Const.int(0))
        )
        assert load.symbol_operand() == sym
        assert make_add().symbol_operand() is None


class TestClassification:
    def test_terminators(self):
        assert TERMINATOR_OPCODES == {Opcode.BR, Opcode.CBR, Opcode.RET}
        assert Instruction(Opcode.BR, targets=("a",)).is_terminator
        assert not make_add().is_terminator

    def test_memory_classification(self):
        assert Opcode.LOADG in MEMORY_READ_OPCODES
        assert Opcode.LOADP in MEMORY_READ_OPCODES
        assert Opcode.STOREG in MEMORY_WRITE_OPCODES
        assert Opcode.STOREP in MEMORY_WRITE_OPCODES
        assert Opcode.ADD not in MEMORY_READ_OPCODES

    def test_helix_ops(self):
        wait = Instruction(Opcode.WAIT, dep_id=0)
        assert wait.is_helix_op
        assert not make_add().is_helix_op

    def test_commutativity_set(self):
        assert Opcode.ADD in COMMUTATIVE_OPCODES
        assert Opcode.SUB not in COMMUTATIVE_OPCODES
        assert Opcode.DIV not in COMMUTATIVE_OPCODES
