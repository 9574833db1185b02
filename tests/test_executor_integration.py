"""Integration tests of the executor across tricky whole-program shapes."""

import pytest

from repro.analysis.loops import find_loops
from repro.core import parallelize_module
from repro.frontend import compile_source
from repro.runtime import run_module
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor


def run_both(source, loop_filter=None, cores=4):
    module = compile_source(source)
    baseline = run_module(module)
    loop_ids = []
    for func in module.functions.values():
        for loop in find_loops(func):
            if loop.parent is not None:
                continue
            if loop_filter and not loop_filter(loop):
                continue
            loop_ids.append(loop.id)
    machine = MachineConfig(cores=cores)
    transformed, infos = parallelize_module(module, loop_ids, machine)
    executor = ParallelExecutor(transformed, infos, machine)
    result = executor.execute()
    assert result.output == baseline.output
    return baseline, result, executor


class TestMultipleInvocations:
    def test_loop_invoked_many_times(self):
        source = """
        int acc;
        void kernel(int seed) {
            int i;
            for (i = 0; i < 16; i++) {
                acc = (acc + i * seed) % 9973;
            }
        }
        void main() {
            int r;
            for (r = 0; r < 25; r++) { kernel(r + 1); }
            print(acc);
        }
        """
        baseline, result, executor = run_both(
            source, loop_filter=lambda l: l.func.name == "kernel"
        )
        stats = next(iter(result.loop_stats.values()))
        assert stats.invocations == 25
        assert len(executor.recording) == 25

    def test_two_parallel_loops_alternate(self):
        source = """
        int a; int b;
        void main() {
            int r;
            for (r = 0; r < 5; r++) {
                int i;
                for (i = 0; i < 12; i++) { a = (a + i * 3) % 1009; }
                int j;
                for (j = 0; j < 12; j++) { b = (b ^ (j + a)) % 2048; }
            }
            print(a); print(b);
        }
        """
        module = compile_source(source)
        baseline = run_module(module)
        main_forest = find_loops(module.functions["main"])
        inner = [l.id for l in main_forest if l.parent is not None]
        machine = MachineConfig(cores=4)
        transformed, infos = parallelize_module(module, inner, machine)
        result = ParallelExecutor(transformed, infos, machine).execute()
        assert result.output == baseline.output
        assert len(result.loop_stats) == 2


class TestNestedGuard:
    def test_dynamic_nesting_serializes_inner(self):
        """A parallel loop calling a function with its own parallel loop:
        the runtime flag sends the inner one down its sequential path."""
        source = """
        int acc;
        void inner() {
            int i;
            for (i = 0; i < 8; i++) { acc = (acc + i) % 7919; }
        }
        void main() {
            int r;
            for (r = 0; r < 6; r++) {
                inner();
                acc = (acc * 3 + r) % 7919;
            }
            print(acc);
        }
        """
        module = compile_source(source)
        baseline = run_module(module)
        outer = next(iter(find_loops(module.functions["main"]))).id
        inner = next(iter(find_loops(module.functions["inner"]))).id
        machine = MachineConfig(cores=4)
        transformed, infos = parallelize_module(module, [outer, inner], machine)
        executor = ParallelExecutor(transformed, infos, machine)
        result = executor.execute()
        assert result.output == baseline.output
        # Only the outer loop records invocations: the inner always runs
        # its sequential version while the outer is active.
        by_loop = result.loop_stats
        assert by_loop[outer].invocations == 1
        assert inner not in by_loop


class TestBreakExits:
    def test_early_exit_invocation(self):
        source = """
        int total;
        void main() {
            int i;
            for (i = 0; i < 1000; i++) {
                total = total + i;
                if (total > 100) { break; }
            }
            print(total); print(i);
        }
        """
        baseline, result, executor = run_both(source)
        stats = next(iter(result.loop_stats.values()))
        assert stats.iterations < 1000

    def test_while_with_complex_exit(self):
        source = """
        int state;
        void main() {
            int x = 1;
            int guard = 0;
            while (x < 500 && guard < 60) {
                x = (x * 3) % 257 + 1;
                state = state + x;
                guard++;
            }
            print(state); print(guard);
        }
        """
        run_both(source, loop_filter=lambda l: l.header.startswith("while"))


class TestFloatPrograms:
    def test_float_reduction(self):
        source = """
        float series;
        void main() {
            int i;
            for (i = 1; i < 60; i++) {
                float term = 1.0 / (i * i);
                series = series + term;
            }
            print(series);
        }
        """
        run_both(source)


class TestDegenerateInvocations:
    def test_zero_iteration_loop(self):
        """A parallel loop whose condition is false on entry."""
        source = """
        int total;
        void main() {
            int n = 0;
            int i;
            for (i = 0; i < n; i++) { total = total + i; }
            print(total);
        }
        """
        baseline, result, executor = run_both(source)
        stats = next(iter(result.loop_stats.values()))
        assert stats.iterations == 1  # single header entry, then exit

    def test_single_iteration_loop(self):
        source = """
        int total;
        void main() {
            int i;
            for (i = 0; i < 1; i++) { total = total + 42; }
            print(total);
        }
        """
        run_both(source)

    def test_loop_with_only_prologue_work(self):
        source = """
        int total;
        void main() {
            int i = 0;
            while (i < 10) { i = i + 1; }
            total = i;
            print(total);
        }
        """
        run_both(source, loop_filter=lambda l: l.header.startswith("while"))
