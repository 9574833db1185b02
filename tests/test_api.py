"""End-to-end tests of the public API."""

import pytest

from repro import (
    HelixResult,
    MachineConfig,
    compile_minic,
    parallelize,
    parallelize_and_run,
)
from repro.core.loopinfo import HelixOptions
from repro.runtime.machine import PrefetchMode

PROGRAM = """
int data[128];
int total;
void main() {
    int i;
    for (i = 0; i < 128; i++) {
        int k = 0;
        int f = 0;
        while (k < 25) { f = f + (k ^ i) * 3; k++; }
        data[i] = f;
    }
    for (i = 0; i < 128; i++) { total = (total + data[i]) % 65521; }
    print(total);
}
"""


class TestParallelizeAndRun:
    def test_end_to_end(self):
        module = compile_minic(PROGRAM)
        result = parallelize_and_run(module, MachineConfig(cores=6))
        assert isinstance(result, HelixResult)
        assert result.output_matches
        assert result.speedup > 1.5
        assert result.chosen_loops

    def test_speedup_grows_with_cores(self):
        module = compile_minic(PROGRAM)
        two = parallelize_and_run(module, MachineConfig(cores=2))
        six = parallelize_and_run(module, MachineConfig(cores=6))
        assert six.speedup > two.speedup

    def test_explicit_loop_ids_skip_selection(self):
        module = compile_minic(PROGRAM)
        from repro.analysis.loops import find_loops

        loop = next(
            l for l in find_loops(module.functions["main"]) if l.parent is None
        )
        result = parallelize_and_run(module, loop_ids=[loop.id])
        assert result.selection is None
        assert result.chosen_loops == [loop.id]
        assert result.output_matches

    def test_loop_stats_accessible(self):
        module = compile_minic(PROGRAM)
        result = parallelize_and_run(module)
        stats = result.loop_stats()
        assert stats
        for s in stats.values():
            assert s.iterations > 0

    def test_train_module_used_for_profiling(self):
        ref = compile_minic(PROGRAM)
        train = compile_minic(PROGRAM.replace("128", "32"))
        result = parallelize_and_run(ref, train_module=train)
        assert result.output_matches
        assert result.profile is not None
        # The profile measured the smaller training input.
        assert (
            result.profile.result.instructions
            < result.sequential.instructions
        )


class TestParallelizeOnly:
    def test_no_execution_performed(self):
        module = compile_minic(PROGRAM)
        result = parallelize(module)
        assert result.sequential is None and result.parallel is None
        with pytest.raises(ValueError):
            result.speedup

    def test_options_forwarded(self):
        module = compile_minic(PROGRAM)
        options = HelixOptions(enable_signal_optimization=False)
        result = parallelize(module, options=options)
        for info in result.infos:
            assert info.options.enable_signal_optimization is False

    def test_precomputed_profile_reused(self):
        from repro.runtime.profiler import profile_module

        module = compile_minic(PROGRAM)
        profile = profile_module(module)
        result = parallelize(module, profile=profile)
        assert result.profile is profile


class TestMachineVariants:
    def test_prefetch_mode_affects_timing_not_output(self):
        module = compile_minic(PROGRAM)
        runs = {}
        for mode in (PrefetchMode.NONE, PrefetchMode.IDEAL):
            result = parallelize_and_run(
                module, MachineConfig(cores=6, prefetch_mode=mode)
            )
            assert result.output_matches
            runs[mode] = result.parallel.cycles
        assert runs[PrefetchMode.IDEAL] <= runs[PrefetchMode.NONE]

    def test_smt_disabled_falls_back_to_pull(self):
        module = compile_minic(PROGRAM)
        result = parallelize_and_run(
            module, MachineConfig(cores=4, smt=False)
        )
        assert result.output_matches
