"""Tests for Step 4: regions and wait/signal insertion."""

from repro.analysis.cfg import CFGView
from repro.analysis.dependence import DependenceAnalysis
from repro.analysis.loops import find_loops
from repro.core.segments import (
    compute_region,
    insert_synchronization,
    segment_span_blocks,
)
from repro.frontend.lower import compile_source
from repro.ir import Opcode


def prepare(source):
    module = compile_source(source)
    func = module.functions["main"]
    loop = next(iter(find_loops(func)))
    deps = DependenceAnalysis(module).loop_dependences(func, loop)
    return module, func, loop, deps


ACCUMULATOR = """
int total;
void main() {
    int i;
    for (i = 0; i < 8; i++) {
        int work = i * i + 3;
        total = total + work;
    }
}
"""


class TestRegions:
    def test_region_contains_endpoint_blocks(self):
        module, func, loop, deps = prepare(ACCUMULATOR)
        assert deps
        cfg = CFGView(func)
        region = compute_region(cfg, loop, deps[0], func)
        endpoint_blocks = {
            func.find_block_of(e).name for e in deps[0].endpoints()
        }
        assert endpoint_blocks <= set(region)

    def test_region_is_backward_closed(self):
        module, func, loop, deps = prepare(ACCUMULATOR)
        cfg = CFGView(func)
        region = compute_region(cfg, loop, deps[0], func)
        back_edges = {(l, loop.header) for l in loop.latches}
        # Every in-loop predecessor of a region block is in the region
        # (except across the back edge): you can still reach the endpoint.
        for name in region:
            for pred in cfg.preds[name]:
                if pred in loop.blocks and (pred, name) not in back_edges:
                    assert pred in region

    def test_span_blocks_within_region(self):
        module, func, loop, deps = prepare(ACCUMULATOR)
        cfg = CFGView(func)
        region = compute_region(cfg, loop, deps[0], func)
        span = segment_span_blocks(cfg, loop, deps[0], region, func)
        assert span <= region


class TestInsertion:
    def test_wait_before_each_endpoint(self):
        module, func, loop, deps = prepare(ACCUMULATOR)
        syncs = insert_synchronization(func, loop, deps)
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
                        assert seen_wait, (
                            f"endpoint in {name} not preceded by wait"
                        )

    def test_signal_on_every_completing_path(self):
        """Interpret the loop and check every iteration signals each dep."""
        module, func, loop, deps = prepare(
            """
            int total;
            void main() {
                int i;
                for (i = 0; i < 8; i++) {
                    if (i % 2 == 0) {
                        total = total + i;
                    }
                }
            }
            """
        )
        syncs = insert_synchronization(func, loop, deps)
        from repro.runtime.interpreter import Interpreter

        events = []

        class Tracker(Interpreter):
            def exec_sync(self, frame, instr):
                events.append((instr.opcode, instr.dep_id))

        Tracker(module).run()
        signal_count = sum(
            1 for op, _ in events if op is Opcode.SIGNAL
        )
        # 8 completing iterations, at least one signal per dep each.
        active = [s for s in syncs if s.synchronized]
        assert signal_count >= 8 * len(active)

    def test_wait_precedes_signal_in_program_order(self):
        module, func, loop, deps = prepare(ACCUMULATOR)
        syncs = insert_synchronization(func, loop, deps)
        from repro.runtime.interpreter import Interpreter

        events = []

        class Tracker(Interpreter):
            def exec_sync(self, frame, instr):
                events.append((instr.opcode, instr.dep_id))

        Tracker(module).run()
        seen_wait = set()
        for op, dep in events:
            if op is Opcode.WAIT:
                seen_wait.add(dep)
            elif op is Opcode.SIGNAL:
                assert dep in seen_wait
                seen_wait.discard(dep)

    def test_functionally_inert(self):
        module, func, loop, deps = prepare(ACCUMULATOR)
        from repro.runtime.interpreter import run_module

        module2 = compile_source(ACCUMULATOR)
        baseline = run_module(module2)
        insert_synchronization(func, loop, deps)
        result = run_module(module)
        assert result.output == baseline.output

    def test_doall_loop_needs_no_synchronization(self):
        module, func, loop, deps = prepare(
            """
            int a[16];
            void main() {
                int i;
                for (i = 0; i < 16; i++) { a[i] = i; }
            }
            """
        )
        syncs = insert_synchronization(func, loop, deps)
        assert all(not s.wait_instrs for s in syncs)
        assert not any(
            i.opcode in (Opcode.WAIT, Opcode.SIGNAL)
            for i in func.instructions()
        )


class TestInBlockSignals:
    def test_signal_placed_right_after_last_endpoint(self):
        """When the endpoint block's successors leave the region, the
        signal must sit inside the block, not at a successor's entry --
        otherwise trailing parallel code lands in the segment."""
        module, func, loop, deps = prepare(
            """
            int total;
            void main() {
                int i;
                for (i = 0; i < 8; i++) {
                    total = total + i;
                    int w = i * 5;
                    int w2 = w ^ 3;
                    print(w2);
                }
            }
            """
        )
        syncs = insert_synchronization(func, loop, deps)
        # Find a block containing both an endpoint store and a signal.
        found_inline_signal = False
        for name in loop.blocks:
            instrs = func.blocks[name].instructions
            store_pos = [
                k for k, ins in enumerate(instrs)
                if ins.opcode is Opcode.STOREG
            ]
            signal_pos = [
                k for k, ins in enumerate(instrs)
                if ins.opcode is Opcode.SIGNAL
            ]
            if store_pos and signal_pos:
                assert min(signal_pos) > max(store_pos)
                found_inline_signal = True
        assert found_inline_signal
