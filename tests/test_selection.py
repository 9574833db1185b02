"""Tests for the Section 2.2 loop-selection algorithm."""

import pytest

from repro.core.selection import (
    SelectionConfig,
    analyze_candidates,
    choose_loops,
    fixed_level_selection,
)
from repro.frontend.lower import compile_source
from repro.runtime.profiler import profile_module
from repro.runtime.machine import MachineConfig


def select(source, cores=6, **config_kwargs):
    module = compile_source(source)
    profile = profile_module(module)
    config = SelectionConfig(
        machine=MachineConfig(cores=cores), cores=cores, **config_kwargs
    )
    return module, profile, choose_loops(module, profile, config)


HEAVY_DOALL = """
int a[64];
int chk;
void main() {
    int i;
    for (i = 0; i < 64; i++) {
        int k = 0;
        int f = 0;
        while (k < 60) { f = f + (k ^ i); k++; }
        a[i] = f;
    }
    for (i = 0; i < 64; i++) { chk = (chk + a[i]) % 1009; }
    print(chk);
}
"""

SERIAL_CHAIN = """
int a[64];
void main() {
    int i;
    for (i = 1; i < 64; i++) {
        a[i] = a[i - 1] * 3 % 97 + 1;
    }
    print(a[63]);
}
"""


class TestBasicChoices:
    def test_profitable_doall_chosen(self):
        module, profile, selection = select(HEAVY_DOALL)
        headers = {lid[1] for lid in selection.chosen}
        # The heavy outer DOALL loop must be among the chosen.
        assert any(h.startswith("for") for h in headers)
        for lid in selection.chosen:
            assert selection.saved_time[lid] > 0

    def test_serial_chain_rejected(self):
        module, profile, selection = select(SERIAL_CHAIN)
        assert selection.chosen == []

    def test_candidates_cover_profiled_loops(self):
        module, profile, selection = select(HEAVY_DOALL)
        assert selection.candidate_count == len(
            profile.dynamic_nesting.nodes()
        )

    def test_single_core_selects_nothing(self):
        module, profile, selection = select(HEAVY_DOALL, cores=1)
        assert selection.chosen == []


class TestMaxTPropagation:
    NESTED = """
    int a[64];
    int acc;
    void main() {
        int r;
        for (r = 0; r < 6; r++) {
            acc = acc * 2 % 1000003;
            int i;
            for (i = 0; i < 48; i++) {
                int k = 0;
                int f = 0;
                while (k < 30) { f = f + (k ^ i); k++; }
                a[i] = f + r;
            }
            int j;
            for (j = 0; j < 48; j++) { acc = acc + a[j]; }
        }
        print(acc);
    }
    """

    def test_descends_past_serialized_outer(self):
        module, profile, selection = select(self.NESTED)
        # The outer r-loop carries `acc` through everything; the inner
        # i-loop is the profitable one.
        chosen_funcs = {(lid[0], lid[1][:3]) for lid in selection.chosen}
        assert selection.chosen
        inner_chosen = [
            lid
            for lid in selection.chosen
            if profile.dynamic_nesting.graph.in_degree(lid) > 0
        ]
        assert inner_chosen, "selection should pick nested loops here"

    def test_maxt_at_least_t(self):
        module, profile, selection = select(self.NESTED)
        for lid, t in selection.saved_time.items():
            assert selection.max_saved_time[lid] >= t - 1e-9

    def test_maxt_propagates_child_sums(self):
        module, profile, selection = select(self.NESTED)
        graph = profile.dynamic_nesting
        for lid in selection.max_saved_time:
            child_sum = sum(
                selection.max_saved_time.get(c, 0.0)
                for c in graph.children(lid)
            )
            assert selection.max_saved_time[lid] >= child_sum - 1e-6

    def test_chosen_loops_not_nested_in_each_other(self):
        module, profile, selection = select(self.NESTED)
        from repro.analysis.loops import find_loops

        forests = {
            name: find_loops(f) for name, f in module.functions.items()
        }
        for a in selection.chosen:
            for b in selection.chosen:
                if a == b or a[0] != b[0]:
                    continue
                loop_a = forests[a[0]].by_header[a[1]]
                loop_b = forests[b[0]].by_header[b[1]]
                assert not loop_a.blocks < loop_b.blocks


class TestSignalCostKnob:
    def test_underestimate_chooses_more(self):
        source = """
        int total;
        void main() {
            int i;
            for (i = 0; i < 200; i++) {
                total = total + i * 3 % 7;
            }
            print(total);
        }
        """
        _, _, honest = select(source)
        _, _, naive = select(source, signal_cost=0.0)
        assert len(naive.chosen) >= len(honest.chosen)

    def test_overestimate_chooses_fewer_or_equal(self):
        _, _, honest = select(HEAVY_DOALL)
        _, _, pessimist = select(HEAVY_DOALL, signal_cost=110.0)
        assert len(pessimist.chosen) <= len(honest.chosen)


class TestFixedLevelSelection:
    def test_levels_partition_reasonably(self):
        module = compile_source(TestMaxTPropagation.NESTED)
        profile = profile_module(module)
        level1 = fixed_level_selection(module, profile, 1)
        level2 = fixed_level_selection(module, profile, 2)
        assert level1
        assert level2
        assert not (set(level1) & set(level2))

    def test_empty_deep_levels(self):
        module = compile_source(HEAVY_DOALL)
        profile = profile_module(module)
        assert fixed_level_selection(module, profile, 7) == []


class TestCandidateCharacterization:
    def test_totals_decompose(self):
        module = compile_source(TestMaxTPropagation.NESTED)
        profile = profile_module(module)
        config = SelectionConfig(machine=MachineConfig(cores=6), cores=6)
        candidates = analyze_candidates(module, profile, config)
        for inputs in candidates.values():
            assert inputs.total_cycles >= 0
            assert inputs.parallel_cycles >= 0
            assert inputs.segment_cycles >= 0
            assert inputs.prologue_cycles >= 0
            assert (
                inputs.parallel_cycles
                <= inputs.total_cycles + 1e-6
            )

    def test_doall_mostly_parallel(self):
        module = compile_source(HEAVY_DOALL)
        profile = profile_module(module)
        config = SelectionConfig(machine=MachineConfig(cores=6), cores=6)
        candidates = analyze_candidates(module, profile, config)
        big = max(candidates.values(), key=lambda c: c.total_cycles)
        assert big.parallel_cycles > 0.8 * big.total_cycles
        assert big.counted

    def test_unoptimized_signals_flag_increases_segments(self):
        source = """
        int a; int b;
        void main() {
            int i;
            for (i = 0; i < 50; i++) {
                int w = i * 3 % 7;
                a = a + w;
                b = b + w;
            }
            print(a + b);
        }
        """
        module = compile_source(source)
        profile = profile_module(module)
        base = SelectionConfig(machine=MachineConfig(cores=6), cores=6)
        raw = SelectionConfig(
            machine=MachineConfig(cores=6), cores=6, unoptimized_signals=True
        )
        optimized = analyze_candidates(module, profile, base)
        unoptimized = analyze_candidates(module, profile, raw)
        lid = next(iter(optimized))
        assert (
            unoptimized[lid].segments_per_iteration
            >= optimized[lid].segments_per_iteration
        )


class TestCoreInsensitivity:
    def test_selection_mostly_insensitive_to_core_count(self):
        """Paper, Section 3.5: 'loop selection is insensitive to the
        number of cores'.  The chosen sets at 4 and 6 cores coincide."""
        from repro.bench import compile_benchmark
        from repro.runtime.profiler import profile_module

        for name in ("twolf", "gzip", "mcf"):
            module = compile_benchmark(name, "train")
            profile = profile_module(module)
            sets = {}
            for cores in (4, 6):
                config = SelectionConfig(
                    machine=MachineConfig(cores=cores), cores=cores
                )
                sets[cores] = tuple(
                    choose_loops(module, profile, config).chosen
                )
            assert sets[4] == sets[6], name
