"""Tests for the full HELIX transformation (Steps 1-9 assembled)."""

import pytest

from repro.analysis.loops import find_loops
from repro.core.loopinfo import HelixOptions
from repro.core.parallelizer import parallelize_module
from repro.core.parallelizer import ACTIVE_FLAG, HelixError, HelixParallelizer
from repro.frontend.lower import compile_source
from repro.ir import Opcode, verify_module
from repro.runtime.interpreter import run_module

ACCUMULATOR = """
int total;
void main() {
    int i;
    for (i = 0; i < 20; i++) {
        int w = i * i % 13;
        total = total + w;
    }
    print(total);
}
"""

DOALL = """
int a[32];
int chk;
void main() {
    int i;
    for (i = 0; i < 32; i++) { a[i] = i * 3; }
    for (i = 0; i < 32; i++) { chk = chk + a[i]; }
    print(chk);
}
"""


def loop_id_of(module, func_name="main", prefix="for"):
    forest = find_loops(module.functions[func_name])
    loop = next(l for l in forest if l.header.startswith(prefix))
    return loop.id


class TestStructure:
    def test_transformed_module_verifies(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        verify_module(transformed)
        assert len(infos) == 1

    def test_original_module_untouched(self):
        module = compile_source(ACCUMULATOR)
        count_before = module.instruction_count()
        parallelize_module(module, [loop_id_of(module)])
        assert module.instruction_count() == count_before

    def test_guard_and_flag_exist(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        info = infos[0]
        assert ACTIVE_FLAG in transformed.globals
        func = transformed.functions["main"]
        assert info.guard_block in func.blocks
        guard = func.blocks[info.guard_block]
        assert guard.terminator.opcode is Opcode.CBR
        # Sequential header and parallel preheader are the two arms.
        assert set(guard.terminator.targets) == {
            info.seq_header,
            info.par_preheader,
        }

    def test_both_versions_present(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        info = infos[0]
        func = transformed.functions["main"]
        assert info.seq_header in func.blocks
        assert info.par_header in func.blocks
        assert info.par_blocks <= set(func.blocks)

    def test_exit_stubs_clear_flag(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        info = infos[0]
        func = transformed.functions["main"]
        assert info.exit_stubs
        for stub_name in info.exit_stubs:
            stub = func.blocks[stub_name]
            store = stub.instructions[0]
            assert store.opcode is Opcode.STOREG
            assert store.args[0].name == ACTIVE_FLAG
            assert store.args[2].value == 0

    def test_next_iter_on_crossing_edges(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        func = transformed.functions["main"]
        next_iters = [
            i for i in func.instructions() if i.opcode is Opcode.NEXT_ITER
        ]
        assert next_iters

    def test_prologue_body_partition(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        info = infos[0]
        assert info.prologue_blocks
        assert info.body_blocks
        assert info.prologue_blocks.isdisjoint(info.body_blocks)
        assert info.par_header in info.prologue_blocks

    def test_counted_loop_detected(self):
        module = compile_source(ACCUMULATOR)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        assert infos[0].counted

    def test_data_dependent_exit_is_not_counted(self):
        source = """
        int total;
        void main() {
            int x = 1;
            while (total < 100) {
                total = total + x;
                x = x * 2 % 7 + 1;
            }
            print(total);
        }
        """
        module = compile_source(source)
        lid = loop_id_of(module, prefix="while")
        transformed, infos = parallelize_module(module, [lid])
        assert not infos[0].counted

    def test_unknown_loop_rejected(self):
        module = compile_source(ACCUMULATOR)
        parallelizer = HelixParallelizer(module)
        with pytest.raises(HelixError):
            parallelizer.parallelize_loop(("main", "nope"))


class TestSemantics:
    @pytest.mark.parametrize("source", [ACCUMULATOR, DOALL])
    def test_sequential_interpretation_identical(self, source):
        module = compile_source(source)
        baseline = run_module(module)
        loop_ids = []
        for loop in find_loops(module.functions["main"]):
            if loop.parent is None:
                loop_ids.append(loop.id)
        transformed, infos = parallelize_module(module, loop_ids)
        result = run_module(transformed)
        assert result.output == baseline.output

    def test_loop_in_called_function(self):
        source = """
        int acc;
        void kernel() {
            int i;
            for (i = 0; i < 10; i++) { acc = acc + i * 2; }
        }
        void main() {
            int r;
            for (r = 0; r < 3; r++) { kernel(); }
            print(acc);
        }
        """
        module = compile_source(source)
        baseline = run_module(module)
        lid = loop_id_of(module, func_name="kernel")
        transformed, infos = parallelize_module(module, [lid])
        assert run_module(transformed).output == baseline.output

    def test_nested_choice_guarded_at_runtime(self):
        # Parallelize both an outer loop and a loop it calls: the flag
        # must serialize the inner one dynamically.
        source = """
        int acc;
        void kernel() {
            int i;
            for (i = 0; i < 6; i++) { acc = acc + i; }
        }
        void main() {
            int r;
            for (r = 0; r < 4; r++) { kernel(); acc = acc * 2 % 1000; }
            print(acc);
        }
        """
        module = compile_source(source)
        baseline = run_module(module)
        outer = loop_id_of(module, func_name="main")
        inner = loop_id_of(module, func_name="kernel")
        transformed, infos = parallelize_module(module, [outer, inner])
        assert run_module(transformed).output == baseline.output

    def test_loop_with_break_semantics(self):
        source = """
        int total;
        void main() {
            int i;
            for (i = 0; i < 100; i++) {
                total = total + i;
                if (total > 50) { break; }
            }
            print(total);
            print(i);
        }
        """
        module = compile_source(source)
        baseline = run_module(module)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        assert run_module(transformed).output == baseline.output
        # Two distinct exits -> two stubs (Step 9's exit variable).
        assert len(infos[0].exit_stubs) >= 1


class TestInlining:
    CALL_DEP = """
    int total;
    int bump(int x) { total = total + x; return total; }
    void main() {
        int i;
        for (i = 0; i < 10; i++) {
            int w = i * 7 % 5;
            bump(w);
        }
        print(total);
    }
    """

    def test_endpoint_call_inlined(self):
        module = compile_source(self.CALL_DEP)
        transformed, infos = parallelize_module(module, [loop_id_of(module)])
        assert infos[0].inlined_calls >= 1

    def test_inlining_preserves_semantics(self):
        module = compile_source(self.CALL_DEP)
        baseline = run_module(module)
        transformed, _ = parallelize_module(module, [loop_id_of(module)])
        assert run_module(transformed).output == baseline.output

    def test_inlining_can_be_disabled(self):
        module = compile_source(self.CALL_DEP)
        options = HelixOptions(enable_inlining=False)
        transformed, infos = parallelize_module(
            module, [loop_id_of(module)], options=options
        )
        assert infos[0].inlined_calls == 0
        assert run_module(transformed).output == run_module(module).output


class TestStatistics:
    def test_signal_counts_recorded(self):
        module = compile_source(ACCUMULATOR)
        _, infos = parallelize_module(module, [loop_id_of(module)])
        info = infos[0]
        assert info.naive_waits >= info.final_waits >= 0
        assert info.naive_signals >= info.final_signals
        assert info.segments_per_iteration >= 1

    def test_step6_reduces_sync_ops(self):
        source = """
        int a; int b; int c;
        void main() {
            int i;
            for (i = 0; i < 10; i++) {
                int w = i * 3 % 7;
                a = a + w; b = b + w; c = c ^ w;
            }
            print(a + b + c);
        }
        """
        module = compile_source(source)
        _, with_opt = parallelize_module(module, [loop_id_of(module)])
        _, without_opt = parallelize_module(
            module,
            [loop_id_of(module)],
            options=HelixOptions(enable_signal_optimization=False),
        )
        assert (
            with_opt[0].final_waits + with_opt[0].final_signals
            < without_opt[0].final_waits + without_opt[0].final_signals
        )
        assert with_opt[0].segments_per_iteration < without_opt[
            0
        ].segments_per_iteration

    def test_code_size_reported(self):
        module = compile_source(ACCUMULATOR)
        _, infos = parallelize_module(module, [loop_id_of(module)])
        assert infos[0].par_instruction_count > 0
        assert infos[0].code_size_bytes() == infos[0].par_instruction_count * 4
