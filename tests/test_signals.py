"""Tests for Step 6: signal minimization and Theorem 1."""

from repro.analysis.cfg import CFGView
from repro.analysis.dependence import DependenceAnalysis
from repro.analysis.digraph import DiGraph
from repro.analysis.loops import find_loops
from repro.core.segments import insert_synchronization
from repro.core.signals import (
    apply_theorem1,
    build_redundance_graph,
    optimize_signals,
)
from repro.frontend import compile_source
from repro.ir import Opcode
from repro.runtime import run_module


def prepare(source):
    module = compile_source(source)
    func = module.functions["main"]
    loop = next(iter(find_loops(func)))
    deps = DependenceAnalysis(module).loop_dependences(func, loop)
    syncs = insert_synchronization(func, loop, deps)
    return module, func, loop, syncs


MULTI_ACC = """
int a;
int b;
int c;
void main() {
    int i;
    for (i = 0; i < 8; i++) {
        int w = i * 3;
        a = a + w;
        b = b + (w & 7);
        c = c ^ w;
    }
}
"""


class TestTheorem1:
    def test_keep_sources_and_one_per_cycle(self):
        graph = DiGraph()
        # d0 covers d1, and d2/d3 form a cycle.
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        graph.add_edge(3, 2)
        keep = apply_theorem1(graph)
        assert 0 in keep
        assert 1 not in keep
        assert len(keep & {2, 3}) == 1

    def test_isolated_nodes_kept(self):
        graph = DiGraph()
        graph.add_node(5)
        assert apply_theorem1(graph) == {5}

    def test_chain_keeps_only_root(self):
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert apply_theorem1(graph) == {0}


class TestRedundanceGraph:
    def test_colocated_accumulators_form_cycles(self):
        module, func, loop, syncs = prepare(MULTI_ACC)
        assert len([s for s in syncs if s.synchronized]) >= 3
        cfg = CFGView(func)
        graph = build_redundance_graph(func, loop, cfg, syncs)
        # The three accumulators share one region; at least two of them
        # must be redundant due to another.
        assert len(graph.edges) >= 2


class TestOptimizeSignals:
    def test_merges_colocated_segments(self):
        module, func, loop, syncs = prepare(MULTI_ACC)
        stats = optimize_signals(func, loop, syncs)
        active = [s for s in syncs if s.synchronized]
        assert len(active) == 1
        assert stats["removed_waits"] > 0

    def test_covered_by_recorded(self):
        module, func, loop, syncs = prepare(MULTI_ACC)
        optimize_signals(func, loop, syncs)
        covered = [s for s in syncs if not s.synchronized and s.covered_by is not None]
        assert covered
        keeper = {s.dep.index for s in syncs if s.synchronized}
        assert all(s.covered_by in keeper for s in covered)

    def test_dropped_deps_have_no_sync_ops(self):
        module, func, loop, syncs = prepare(MULTI_ACC)
        optimize_signals(func, loop, syncs)
        live_dep_ids = {
            i.dep_id
            for i in func.instructions()
            if i.opcode in (Opcode.WAIT, Opcode.SIGNAL)
        }
        for sync in syncs:
            if not sync.synchronized:
                assert sync.dep.index not in live_dep_ids

    def test_functionally_inert(self):
        module, func, loop, syncs = prepare(MULTI_ACC)
        optimize_signals(func, loop, syncs)
        baseline = run_module(compile_source(MULTI_ACC))
        assert run_module(module).output == baseline.output

    def test_waits_still_precede_endpoints(self):
        module, func, loop, syncs = prepare(MULTI_ACC)
        optimize_signals(func, loop, syncs)
        keeper = next(s for s in syncs if s.synchronized)
        # The keeper guards every dropped dep's endpoints: within each
        # block its wait comes before any guarded endpoint.
        guarded_uids = set()
        for sync in syncs:
            for e in sync.dep.endpoints():
                guarded_uids.add(e.uid)
        for name in loop.blocks:
            seen_wait = False
            for instr in func.blocks[name].instructions:
                if (
                    instr.opcode is Opcode.WAIT
                    and instr.dep_id == keeper.dep.index
                ):
                    seen_wait = True
                if instr.uid in guarded_uids and not seen_wait:
                    raise AssertionError(
                        f"endpoint unguarded in block {name}"
                    )

    def test_disjoint_segments_not_merged(self):
        # Two accumulators separated by a conditional: different regions.
        source = """
        int a;
        int b;
        void main() {
            int i;
            for (i = 0; i < 8; i++) {
                if (i % 2 == 0) {
                    a = a + i;
                } else {
                    b = b + i;
                }
            }
        }
        """
        module, func, loop, syncs = prepare(source)
        optimize_signals(func, loop, syncs)
        active = [s for s in syncs if s.synchronized]
        # a's region and b's region are on different branches -> both kept.
        assert len(active) == 2

    def test_redundant_wait_elimination_on_branches(self):
        # One accumulator consumed on both branch arms: insertion places
        # waits on each arm plus before signals; availability analysis
        # must not leave duplicated waits along any single path.
        source = """
        int a;
        void main() {
            int i;
            for (i = 0; i < 8; i++) {
                if (i % 2 == 0) { a = a + 1; } else { a = a + 2; }
                print(a);
            }
        }
        """
        module, func, loop, syncs = prepare(source)
        before = sum(len(s.wait_instrs) for s in syncs)
        optimize_signals(func, loop, syncs)
        after = sum(
            len(s.wait_instrs) for s in syncs if s.synchronized
        )
        assert after < before
