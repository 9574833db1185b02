"""Tests for Step 5 scheduling, Figure 6 balancing, and helper ordering."""

from repro.analysis.dependence import DependenceAnalysis
from repro.analysis.loops import find_loops
from repro.analysis.pointer import andersen_pointer_analysis
from repro.core.scheduling import (
    balance_loop,
    build_block_dag,
    helper_wait_order,
    schedule_block,
    schedule_loop,
)
from repro.core.segments import insert_synchronization
from repro.core.signals import optimize_signals
from repro.frontend.lower import compile_source
from repro.ir import Opcode
from repro.runtime.interpreter import run_module
from repro.runtime.machine import MachineConfig


def prepare(source, optimize=True):
    module = compile_source(source)
    func = module.functions["main"]
    loop = next(iter(find_loops(func)))
    deps = DependenceAnalysis(module).loop_dependences(func, loop)
    syncs = insert_synchronization(func, loop, deps)
    if optimize:
        optimize_signals(func, loop, syncs)
    points_to = andersen_pointer_analysis(module)
    return module, func, loop, syncs, points_to


SEGMENT_AT_TOP = """
int total;
void main() {
    int i;
    for (i = 0; i < 8; i++) {
        total = total + 1 + i % 3;
        int w = i * i;
        w = w * 3 + 7;
        w = w ^ (w >> 2);
        print(w);
    }
}
"""


class TestBlockDag:
    def test_register_raw_edges(self):
        module, func, loop, syncs, pts = prepare(SEGMENT_AT_TOP)
        block = func.blocks[
            next(n for n in loop.blocks if n.startswith("body"))
        ]
        nodes = build_block_dag(block, "main", pts, syncs)
        # Every node's preds precede it in the original order (it's a DAG
        # built over a legal sequence).
        for node in nodes:
            for pred in node.preds:
                assert pred < node.index

    def test_terminator_depends_on_all(self):
        module, func, loop, syncs, pts = prepare(SEGMENT_AT_TOP)
        block = func.blocks[
            next(n for n in loop.blocks if n.startswith("body"))
        ]
        nodes = build_block_dag(block, "main", pts, syncs)
        term = nodes[-1]
        assert term.instr.is_terminator
        assert len(term.preds) == len(nodes) - 1


class TestScheduleBlock:
    def test_schedule_is_permutation(self):
        module, func, loop, syncs, pts = prepare(SEGMENT_AT_TOP)
        for name in loop.blocks:
            block = func.blocks[name]
            before = {i.uid for i in block.instructions}
            schedule_block(block, "main", pts, syncs)
            after = {i.uid for i in block.instructions}
            assert before == after

    def test_semantics_preserved(self):
        module, func, loop, syncs, pts = prepare(SEGMENT_AT_TOP)
        baseline = run_module(compile_source(SEGMENT_AT_TOP)).output
        schedule_loop(func, loop, pts, syncs)
        assert run_module(module).output == baseline

    def test_independent_code_moves_after_signal(self):
        module, func, loop, syncs, pts = prepare(SEGMENT_AT_TOP)
        schedule_loop(func, loop, pts, syncs)
        # In the block holding the segment, the signal should come before
        # the independent `w` computation chain.
        target = None
        for name in loop.blocks:
            instrs = func.blocks[name].instructions
            if any(i.opcode is Opcode.SIGNAL for i in instrs):
                sig_pos = max(
                    k for k, i in enumerate(instrs)
                    if i.opcode is Opcode.SIGNAL
                )
                movable_after = [
                    i for i in instrs[sig_pos:]
                    if i.opcode in (Opcode.MUL, Opcode.XOR, Opcode.SHR)
                ]
                if movable_after:
                    target = name
        assert target is not None, "no independent code ended up after a signal"

    def test_wait_stays_before_endpoints(self):
        module, func, loop, syncs, pts = prepare(SEGMENT_AT_TOP)
        schedule_loop(func, loop, pts, syncs)
        for sync in syncs:
            if not sync.synchronized:
                continue
            endpoint_uids = {e.uid for e in sync.dep.endpoints()}
            for name in loop.blocks:
                seen_wait = False
                for instr in func.blocks[name].instructions:
                    if (
                        instr.opcode is Opcode.WAIT
                        and instr.dep_id == sync.dep.index
                    ):
                        seen_wait = True
                    if instr.uid in endpoint_uids:
                        assert seen_wait


class TestBalancing:
    TWO_SEGMENTS = """
    int a;
    int b;
    void main() {
        int i;
        for (i = 0; i < 8; i++) {
            a = a + i;
            int w1 = i * 3;
            int w2 = w1 ^ 5;
            int w3 = w2 + w1;
            int w4 = w3 * 2;
            print(w4);
            if (i % 2 == 0) {
                b = b + w4;
            }
        }
    }
    """

    def test_balancing_preserves_semantics(self):
        module, func, loop, syncs, pts = prepare(self.TWO_SEGMENTS)
        schedule_loop(func, loop, pts, syncs)
        baseline = run_module(compile_source(self.TWO_SEGMENTS)).output
        balance_loop(func, loop, pts, syncs, MachineConfig())
        assert run_module(module).output == baseline

    def test_balancing_is_idempotent_wrt_instruction_set(self):
        module, func, loop, syncs, pts = prepare(self.TWO_SEGMENTS)
        schedule_loop(func, loop, pts, syncs)
        before = sorted(i.uid for i in func.instructions())
        balance_loop(func, loop, pts, syncs, MachineConfig())
        after = sorted(i.uid for i in func.instructions())
        assert before == after


class TestHelperOrder:
    def test_order_covers_synchronized_deps(self):
        module, func, loop, syncs, pts = prepare(
            TestBalancing.TWO_SEGMENTS, optimize=True
        )
        order = helper_wait_order(func, loop, syncs)
        active = {s.dep.index for s in syncs if s.synchronized}
        assert set(order) == active
        assert len(order) == len(set(order))

    def test_order_follows_first_wait_position(self):
        module, func, loop, syncs, pts = prepare(
            TestBalancing.TWO_SEGMENTS, optimize=True
        )
        schedule_loop(func, loop, pts, syncs)
        order = helper_wait_order(func, loop, syncs)
        if len(order) >= 2:
            # The first dep in helper order must be waitable no later than
            # the second along the body's straight line.
            positions = {}
            pos = 0
            for name in sorted(loop.blocks):
                for instr in func.blocks[name].instructions:
                    if instr.opcode is Opcode.WAIT:
                        positions.setdefault(instr.dep_id, pos)
                    pos += 1
            assert positions[order[0]] <= positions[order[-1]]


class TestWaitOnlyBlocks:
    def test_movables_precede_wait_when_no_signal_in_block(self):
        """In a block that waits but signals only later (in a successor),
        independent code must not be pulled inside the segment."""
        source = """
        int best;
        int texture[64];
        void main() {
            int i;
            for (i = 0; i < 16; i++) {
                int t0 = texture[i % 64];
                int t1 = t0 * 3 + 1;
                int t2 = t1 ^ (t1 >> 2);
                if (t2 > best) {
                    best = t2;
                }
            }
        }
        """
        module, func, loop, syncs, pts = prepare(source)
        schedule_loop(func, loop, pts, syncs)
        for name in loop.blocks:
            instrs = func.blocks[name].instructions
            wait_positions = [
                k for k, i in enumerate(instrs) if i.opcode is Opcode.WAIT
            ]
            has_signal = any(
                i.opcode is Opcode.SIGNAL for i in instrs
            )
            if not wait_positions or has_signal:
                continue
            first_wait = min(wait_positions)
            # The independent texture-feature chain (mod/mul/shr/xor)
            # must be fully emitted before the wait, not inside the
            # segment that only closes in a successor block.
            chain_ops = {Opcode.MOD, Opcode.MUL, Opcode.SHR, Opcode.XOR}
            for instr in instrs[first_wait + 1:]:
                assert instr.opcode not in chain_ops, (
                    f"{instr} trapped inside the segment in {name}"
                )
