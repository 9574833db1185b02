"""Tests for natural loop detection and the nesting forest."""

from repro.analysis.cfg import CFGView
from repro.analysis.loops import find_loops
from repro.frontend.lower import compile_source

from tests.helpers import build_cfg


class TestDetection:
    def test_simple_loop(self):
        graph = {"A": ["H"], "H": ["B", "X"], "B": ["H"], "X": []}
        forest = find_loops(build_cfg(graph))
        assert len(forest) == 1
        loop = forest.loops[0]
        assert loop.header == "H"
        assert loop.blocks == {"H", "B"}
        assert loop.latches == {"B"}

    def test_no_loops(self):
        graph = {"A": ["B", "C"], "B": ["D"], "C": ["D"], "D": []}
        forest = find_loops(build_cfg(graph))
        assert len(forest) == 0

    def test_multi_block_body(self):
        graph = {
            "A": ["H"],
            "H": ["B1", "X"],
            "B1": ["B2", "B3"],
            "B2": ["L"],
            "B3": ["L"],
            "L": ["H"],
            "X": [],
        }
        forest = find_loops(build_cfg(graph))
        loop = forest.loops[0]
        assert loop.blocks == {"H", "B1", "B2", "B3", "L"}

    def test_multiple_latches_merged_into_one_loop(self):
        graph = {
            "A": ["H"],
            "H": ["B", "X"],
            "B": ["H", "C"],
            "C": ["H"],
            "X": [],
        }
        forest = find_loops(build_cfg(graph))
        assert len(forest) == 1
        assert forest.loops[0].latches == {"B", "C"}

    def test_exit_edges(self):
        graph = {"A": ["H"], "H": ["B", "X"], "B": ["H", "Y"], "X": [], "Y": []}
        func = build_cfg(graph)
        forest = find_loops(func)
        loop = forest.loops[0]
        cfg = CFGView(func)
        assert set(loop.exit_edges(cfg)) == {("H", "X"), ("B", "Y")}
        assert loop.exit_blocks(cfg) == ["B", "H"]


class TestNesting:
    def test_nested_loops(self):
        graph = {
            "A": ["H1"],
            "H1": ["H2", "X"],
            "H2": ["B", "L1"],
            "B": ["H2"],
            "L1": ["H1"],
            "X": [],
        }
        forest = find_loops(build_cfg(graph))
        assert len(forest) == 2
        outer = forest.by_header["H1"]
        inner = forest.by_header["H2"]
        assert inner.parent is outer
        assert inner in outer.children
        assert outer.depth == 1 and inner.depth == 2

    def test_innermost_lookup(self):
        graph = {
            "A": ["H1"],
            "H1": ["H2", "X"],
            "H2": ["B", "L1"],
            "B": ["H2"],
            "L1": ["H1"],
            "X": [],
        }
        forest = find_loops(build_cfg(graph))
        assert forest.loop_of("B").header == "H2"
        assert forest.loop_of("L1").header == "H1"
        assert forest.loop_of("X") is None

    def test_sibling_loops(self):
        graph = {
            "A": ["H1"],
            "H1": ["B1", "M"],
            "B1": ["H1"],
            "M": ["H2"],
            "H2": ["B2", "X"],
            "B2": ["H2"],
            "X": [],
        }
        forest = find_loops(build_cfg(graph))
        assert len(forest.top_level) == 2

    def test_loop_id_is_program_wide(self):
        graph = {"A": ["H"], "H": ["B", "X"], "B": ["H"], "X": []}
        forest = find_loops(build_cfg(graph))
        assert forest.loops[0].id == ("test", "H")


class TestFromFrontend:
    def test_for_loop_shape(self):
        module = compile_source(
            "void main() { int i; for (i = 0; i < 3; i++) { } }"
        )
        forest = find_loops(module.functions["main"])
        assert len(forest) == 1
        loop = forest.loops[0]
        assert loop.header.startswith("for")

    def test_while_inside_for(self):
        module = compile_source(
            """
            void main() {
                int i;
                for (i = 0; i < 3; i++) {
                    int j = 0;
                    while (j < 2) { j++; }
                }
            }
            """
        )
        forest = find_loops(module.functions["main"])
        assert len(forest) == 2
        inner = [l for l in forest if l.header.startswith("while")][0]
        assert inner.parent is not None

    def test_call_sites_listed(self):
        module = compile_source(
            """
            int f() { return 1; }
            void main() {
                int i; int s = 0;
                for (i = 0; i < 3; i++) { s += f(); }
                print(s);
            }
            """
        )
        forest = find_loops(module.functions["main"])
        loop = forest.loops[0]
        assert len(loop.call_sites()) == 1
