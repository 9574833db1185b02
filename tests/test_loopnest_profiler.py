"""Tests for the loop nesting graphs and the profiler."""

from repro.analysis.loopnest import build_static_loop_nest_graph
from repro.frontend.lower import compile_source
from repro.runtime.profiler import profile_module

NESTED = """
int g;
void inner_work() {
    int k;
    for (k = 0; k < 3; k++) { g = g + k; }
}
void main() {
    int i;
    for (i = 0; i < 4; i++) {
        inner_work();
    }
    int j;
    for (j = 0; j < 2; j++) {
        inner_work();
    }
}
"""


class TestStaticGraph:
    def test_cross_function_nesting(self):
        module = compile_source(NESTED)
        nest = build_static_loop_nest_graph(module)
        inner = ("inner_work", next(
            l.header for l in nest.forests["inner_work"]
        ))
        # Both of main's loops are parents of the callee's loop: the graph
        # is not a tree (the paper's Figure 8 point).
        parents = sorted(nest.graph.predecessors(inner))
        assert len(parents) == 2
        assert all(p[0] == "main" for p in parents)

    def test_roots_are_mains_loops(self):
        module = compile_source(NESTED)
        nest = build_static_loop_nest_graph(module)
        roots = nest.roots()
        assert len(roots) == 2
        assert all(r[0] == "main" for r in roots)

    def test_nesting_levels(self):
        module = compile_source(NESTED)
        nest = build_static_loop_nest_graph(module)
        for root in nest.roots():
            assert nest.nesting_level(root) == 1
        inner = next(n for n in nest.graph.nodes if n[0] == "inner_work")
        assert nest.nesting_level(inner) == 2

    def test_in_function_nesting(self):
        module = compile_source(
            """
            void main() {
                int i; int j;
                for (i = 0; i < 2; i++) {
                    for (j = 0; j < 2; j++) { }
                }
            }
            """
        )
        nest = build_static_loop_nest_graph(module)
        assert len(nest.roots()) == 1
        root = nest.roots()[0]
        assert len(nest.children(root)) == 1

    def test_call_outside_loops_passes_through(self):
        module = compile_source(
            """
            void leaf() { int i; for (i = 0; i < 2; i++) { } }
            void shim() { leaf(); }
            void main() {
                int i;
                for (i = 0; i < 2; i++) { shim(); }
            }
            """
        )
        nest = build_static_loop_nest_graph(module)
        leaf_loop = next(n for n in nest.graph.nodes if n[0] == "leaf")
        main_loop = next(n for n in nest.graph.nodes if n[0] == "main")
        assert leaf_loop in nest.children(main_loop)


class TestProfiler:
    def test_invocation_and_iteration_counts(self):
        module = compile_source(NESTED)
        profile = profile_module(module)
        inner_id = next(
            lid for lid in profile.loops if lid[0] == "inner_work"
        )
        inner = profile.loops[inner_id]
        assert inner.invocations == 6  # 4 + 2 calls
        # Header entered 4 times per invocation (3 iterations + exit test).
        assert inner.iterations == 6 * 4

    def test_dynamic_nesting_edges(self):
        module = compile_source(NESTED)
        profile = profile_module(module)
        inner_id = next(
            lid for lid in profile.loops if lid[0] == "inner_work"
        )
        graph = profile.dynamic_nesting.graph
        parents = sorted(graph.predecessors(inner_id))
        assert len(parents) == 2

    def test_total_vs_self_cycles(self):
        module = compile_source(NESTED)
        profile = profile_module(module)
        main_loops = [p for lid, p in profile.loops.items() if lid[0] == "main"]
        inner = next(
            p for lid, p in profile.loops.items() if lid[0] == "inner_work"
        )
        for outer in main_loops:
            # The outer loop's time includes its callee's loop time.
            assert outer.total_cycles >= outer.self_cycles
        assert inner.total_cycles == inner.self_cycles

    def test_block_counts(self):
        module = compile_source(
            "void main() { int i; for (i = 0; i < 5; i++) { print(i); } }"
        )
        profile = profile_module(module)
        header = next(
            b for (f, b) in profile.block_counts if b.startswith("for")
        )
        assert profile.block_count("main", header) == 6  # 5 iters + exit

    def test_call_average_cycles(self):
        module = compile_source(
            """
            int f() { return 1 + 2 * 3; }
            void main() { print(f() + f()); }
            """
        )
        profile = profile_module(module)
        assert profile.func_activations["f"] == 2
        assert profile.call_avg_cycles("f") > 0

    def test_profile_total_matches_run(self):
        module = compile_source(NESTED)
        profile = profile_module(module)
        assert profile.total_cycles == profile.result.cycles > 0

    def test_loop_fraction_sane(self):
        module = compile_source(NESTED)
        profile = profile_module(module)
        for loop_profile in profile.loops.values():
            assert loop_profile.total_cycles <= profile.total_cycles
