"""Tests for dominator computation."""

from repro.analysis.cfg import CFGView
from repro.analysis.dominators import dominators

from tests.helpers import build_cfg

DIAMOND = {"A": ["B", "C"], "B": ["D"], "C": ["D"], "D": []}


class TestDominators:
    def test_entry_dominates_everything(self):
        dom = dominators(CFGView(build_cfg(DIAMOND)))
        for node in "ABCD":
            assert dom.dominates("A", node)

    def test_branch_arms_do_not_dominate_merge(self):
        dom = dominators(CFGView(build_cfg(DIAMOND)))
        assert not dom.dominates("B", "D")
        assert not dom.dominates("C", "D")

    def test_reflexive(self):
        dom = dominators(CFGView(build_cfg(DIAMOND)))
        assert dom.dominates("B", "B")
        assert not dom.strictly_dominates("B", "B")

    def test_idom_chain(self):
        graph = {"A": ["B"], "B": ["C", "E"], "C": ["D"], "D": ["E"], "E": []}
        dom = dominators(CFGView(build_cfg(graph)))
        assert dom.idom["E"] == "B"
        assert dom.idom["D"] == "C"
        assert dom.idom["B"] == "A"

    def test_loop_header_dominates_body(self):
        graph = {"A": ["H"], "H": ["B", "X"], "B": ["C"], "C": ["H"], "X": []}
        dom = dominators(CFGView(build_cfg(graph)))
        assert dom.dominates("H", "B")
        assert dom.dominates("H", "C")
        assert not dom.dominates("B", "H")

    def test_children_map(self):
        dom = dominators(CFGView(build_cfg(DIAMOND)))
        children = dom.children()
        assert sorted(children["A"]) == ["B", "C", "D"]

    def test_unreachable_blocks_absent(self):
        graph = dict(DIAMOND)
        graph["Z"] = ["A"]  # Z has an edge but is unreachable from A.
        func = build_cfg(graph)
        dom = dominators(CFGView(func))
        assert "Z" not in dom
