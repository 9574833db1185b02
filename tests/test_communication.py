"""Tests for Step 7: forwarding slots and transfer marks."""

from repro.analysis.dependence import DependenceAnalysis, DependenceKind
from repro.analysis.loops import find_loops
from repro.core.communication import (
    insert_communication,
    is_producer_mark,
    xfer_words,
)
from repro.core.segments import insert_synchronization
from repro.frontend.lower import compile_source
from repro.ir import Opcode
from repro.runtime.interpreter import run_module


def prepare(source):
    module = compile_source(source)
    func = module.functions["main"]
    loop = next(iter(find_loops(func)))
    deps = DependenceAnalysis(module).loop_dependences(func, loop)
    syncs = insert_synchronization(func, loop, deps)
    return module, func, loop, syncs


REGISTER_CARRY = """
int g;
void main() {
    int s = 1;
    int i;
    for (i = 0; i < 10; i++) {
        s = s * 3 % 1009;
    }
    g = s;
    print(s);
}
"""


class TestRegisterForwarding:
    def test_slot_created(self):
        module, func, loop, syncs = prepare(REGISTER_CARRY)
        insert_communication(module, func, loop, syncs)
        slots = [
            name for name, sym in module.globals.items() if sym.synthetic
        ]
        assert any("slot" in name for name in slots)

    def test_producer_store_after_def(self):
        module, func, loop, syncs = prepare(REGISTER_CARRY)
        insert_communication(module, func, loop, syncs)
        reg_dep = next(
            s for s in syncs if s.dep.kind is DependenceKind.REGISTER
        )
        for name in loop.blocks:
            instrs = func.blocks[name].instructions
            for pos, instr in enumerate(instrs):
                if instr.uid in {e.uid for e in reg_dep.dep.sources}:
                    following = instrs[pos + 1: pos + 3]
                    assert any(
                        f.opcode is Opcode.STOREG and f.args[0].synthetic
                        for f in following
                    )

    def test_marks_paired(self):
        module, func, loop, syncs = prepare(REGISTER_CARRY)
        insert_communication(module, func, loop, syncs)
        marks = [
            i for i in func.instructions() if i.opcode is Opcode.XFER
        ]
        producers = [m for m in marks if is_producer_mark(m)]
        consumers = [m for m in marks if not is_producer_mark(m)]
        assert producers and consumers
        assert all(xfer_words(m) == 1 for m in marks)

    def test_semantics_inert(self):
        module, func, loop, syncs = prepare(REGISTER_CARRY)
        baseline = run_module(compile_source(REGISTER_CARRY)).output
        insert_communication(module, func, loop, syncs)
        assert run_module(module).output == baseline


class TestMemoryForwarding:
    MEMORY_CARRY = """
    int total;
    void main() {
        int i;
        for (i = 0; i < 10; i++) {
            total = total + i * i;
        }
        print(total);
    }
    """

    def test_memory_raw_gets_marks_but_no_slot(self):
        module, func, loop, syncs = prepare(self.MEMORY_CARRY)
        before_globals = set(module.globals)
        insert_communication(module, func, loop, syncs)
        marks = [i for i in func.instructions() if i.opcode is Opcode.XFER]
        assert marks
        # Memory values already live in shared memory: no new slot.
        new_globals = set(module.globals) - before_globals
        assert not new_globals

    def test_waw_deps_carry_no_data(self):
        source = """
        int flags[4];
        int sink;
        void main() {
            int i;
            for (i = 0; i < 12; i++) {
                flags[0] = i;
            }
            sink = flags[0];
            print(sink);
        }
        """
        module, func, loop, syncs = prepare(source)
        insert_communication(module, func, loop, syncs)
        waw = [s for s in syncs if s.dep.kind is DependenceKind.WAW]
        assert waw
        marks = [i for i in func.instructions() if i.opcode is Opcode.XFER]
        waw_ids = {s.dep.index for s in waw}
        assert not any(m.dep_id in waw_ids for m in marks)
