"""Program-wide loop nesting graphs (Section 2.2).

The *static loop nesting graph* extends the per-function loop nesting
forest across call edges: a loop in function ``g`` is a subloop of loop
``A`` in function ``f`` when ``g`` is (transitively, through loop-free
code) called from inside ``A``.  It is a graph rather than a tree because
a function can have multiple callers (the paper's 179.art example).

The *dynamic loop nesting graph* is the subgraph actually traversed during
a profiling run; the profiler records a parent->child edge whenever a loop
becomes active while another is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.digraph import DiGraph
from repro.analysis.loops import Loop, LoopForest, find_loops
from repro.ir import Module, Opcode

#: Program-wide loop identity: (function name, header block name).
LoopId = Tuple[str, str]


@dataclass
class StaticLoopNestGraph:
    """The static nesting graph plus loop lookups."""

    module: Module
    graph: DiGraph
    forests: Dict[str, LoopForest]
    loops: Dict[LoopId, Loop]

    def roots(self) -> List[LoopId]:
        """Loops with no parent in the graph (program-outermost)."""
        return sorted(n for n in self.graph.nodes if self.graph.in_degree(n) == 0)

    def children(self, loop_id: LoopId) -> List[LoopId]:
        return sorted(self.graph.successors(loop_id))

    def loop(self, loop_id: LoopId) -> Loop:
        return self.loops[loop_id]

    def nesting_level(self, loop_id: LoopId) -> int:
        """1-based minimum distance from a root (paper's nesting level)."""
        level = 1
        frontier = {loop_id}
        seen = set(frontier)
        while frontier:
            if any(self.graph.in_degree(n) == 0 for n in frontier):
                return level
            parents: Set[LoopId] = set()
            for node in frontier:
                parents.update(self.graph.predecessors(node))
            parents -= seen
            if not parents:
                return level
            seen |= parents
            frontier = parents
            level += 1
        return level


def build_static_loop_nest_graph(
    module: Module, callgraph: Optional[CallGraph] = None
) -> StaticLoopNestGraph:
    """Construct the static loop nesting graph of ``module``."""
    callgraph = callgraph or build_callgraph(module)
    forests: Dict[str, LoopForest] = {}
    loops: Dict[LoopId, Loop] = {}
    for func in module.functions.values():
        forest = find_loops(func)
        forests[func.name] = forest
        for loop in forest:
            loops[loop.id] = loop

    graph = DiGraph()
    for loop_id in loops:
        graph.add_node(loop_id)

    # reachable_top_loops(f): top-level loops of f plus those of functions
    # called from f outside any loop, transitively.
    cache: Dict[str, Set[LoopId]] = {}

    def reachable_top_loops(func_name: str, visiting: Set[str]) -> Set[LoopId]:
        if func_name in cache:
            return cache[func_name]
        if func_name in visiting or func_name not in module.functions:
            return set()
        visiting = visiting | {func_name}
        func = module.functions[func_name]
        forest = forests[func_name]
        result: Set[LoopId] = {loop.id for loop in forest.top_level}
        for block in func.blocks.values():
            if forest.loop_of(block.name) is not None:
                continue
            for instr in block.instructions:
                if instr.opcode is Opcode.CALL and instr.callee:
                    result |= reachable_top_loops(instr.callee, visiting)
        cache[func_name] = result
        return result

    for loop in loops.values():
        # Direct in-function nesting.
        for child in loop.children:
            graph.add_edge(loop.id, child.id)
        # Calls made from this loop's own blocks (innermost = this loop).
        forest = forests[loop.func.name]
        for block_name in loop.blocks:
            if forest.loop_of(block_name) is not loop:
                continue
            block = loop.func.blocks[block_name]
            for instr in block.instructions:
                if instr.opcode is Opcode.CALL and instr.callee:
                    for child_id in reachable_top_loops(instr.callee, set()):
                        if child_id != loop.id:
                            graph.add_edge(loop.id, child_id)

    return StaticLoopNestGraph(
        module=module, graph=graph, forests=forests, loops=loops
    )


@dataclass
class DynamicLoopNestGraph:
    """The profiled subgraph of the static nesting graph.

    Nodes are loops observed executing; an edge ``A -> B`` means an
    activation of ``B`` started while ``A`` was the innermost active loop.
    """

    graph: DiGraph = field(default_factory=DiGraph)

    def record(self, parent: Optional[LoopId], child: LoopId) -> None:
        self.graph.add_node(child)
        if parent is not None:
            self.graph.add_edge(parent, child)

    def roots(self) -> List[LoopId]:
        return sorted(n for n in self.graph.nodes if self.graph.in_degree(n) == 0)

    def children(self, loop_id: LoopId) -> List[LoopId]:
        if loop_id not in self.graph:
            return []
        return sorted(self.graph.successors(loop_id))

    def nodes(self) -> List[LoopId]:
        return sorted(self.graph.nodes)

    def __contains__(self, loop_id: LoopId) -> bool:
        return loop_id in self.graph

    def to_dict(self) -> dict:
        return {
            "nodes": [list(n) for n in self.nodes()],
            "edges": sorted(
                [list(a), list(b)] for a, b in self.graph.edges
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DynamicLoopNestGraph":
        nest = cls()
        for node in data["nodes"]:
            nest.graph.add_node(tuple(node))
        for parent, child in data["edges"]:
            nest.graph.add_edge(tuple(parent), tuple(child))
        return nest
