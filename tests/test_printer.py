"""Tests for the textual IR printer."""

from repro.frontend.lower import compile_source
from repro.ir import (
    Instruction,
    Opcode,
    function_to_str,
    instruction_to_str,
    module_to_str,
)
from repro.ir.operands import Const, VReg
from repro.ir.types import Type


class TestInstructionToStr:
    def test_arith(self):
        instr = Instruction(
            Opcode.ADD,
            dest=VReg(1, Type.INT, "x"),
            args=(VReg(0, Type.INT), Const.int(4)),
        )
        assert instruction_to_str(instr) == "%x.1 = add %t0, 4"

    def test_branch(self):
        instr = Instruction(Opcode.BR, targets=("exit",))
        assert instruction_to_str(instr) == "br -> exit"

    def test_cbr(self):
        instr = Instruction(
            Opcode.CBR, args=(VReg(2, Type.INT),), targets=("a", "b")
        )
        assert instruction_to_str(instr) == "cbr %t2 -> a, b"

    def test_call(self):
        instr = Instruction(
            Opcode.CALL,
            dest=VReg(0, Type.INT),
            args=(Const.int(1),),
            callee="f",
        )
        assert instruction_to_str(instr) == "%t0 = call @f 1"

    def test_sync_ops_show_dep(self):
        assert instruction_to_str(Instruction(Opcode.WAIT, dep_id=3)) == "wait #d3"
        assert (
            instruction_to_str(Instruction(Opcode.SIGNAL, dep_id=0))
            == "signal #d0"
        )


class TestModuleToStr:
    SOURCE = """
    int g = 7;
    float arr[4];
    int add1(int x) { return x + 1; }
    void main() {
        int buf[2];
        buf[0] = add1(g);
        print(buf[0]);
    }
    """

    def test_contains_globals_and_functions(self):
        module = compile_source(self.SOURCE)
        text = module_to_str(module)
        assert "global int @g[1] = [7]" in text
        assert "global float @arr[4]" in text
        assert "func int add1" in text
        assert "func void main" in text

    def test_contains_local_arrays(self):
        module = compile_source(self.SOURCE)
        text = function_to_str(module.functions["main"])
        assert "local int $buf[2]" in text

    def test_every_block_labelled(self):
        module = compile_source(self.SOURCE)
        func = module.functions["main"]
        text = function_to_str(func)
        for name in func.blocks:
            assert f"{name}:" in text

    def test_roundtrip_stability(self):
        module = compile_source(self.SOURCE)
        assert module_to_str(module) == module_to_str(module)
