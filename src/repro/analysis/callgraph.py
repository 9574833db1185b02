"""The (direct) call graph of a module.

MiniC has no function pointers, so every call edge is static.  The graph
answers the questions HELIX asks: which functions a loop may transitively
execute (for interprocedural dependence detection), and whether a call is
recursive (which blocks Step 5 inlining).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.digraph import DiGraph
from repro.ir import Instruction, Module, Opcode


@dataclass
class CallGraph:
    """Call edges plus per-edge call sites."""

    module: Module
    graph: DiGraph
    call_sites: Dict[Tuple[str, str], List[Instruction]] = field(
        default_factory=dict
    )

    def callees(self, func_name: str) -> List[str]:
        if func_name not in self.graph:
            return []
        return sorted(self.graph.successors(func_name))

    def callers(self, func_name: str) -> List[str]:
        if func_name not in self.graph:
            return []
        return sorted(self.graph.predecessors(func_name))

    def transitive_callees(self, func_name: str) -> Set[str]:
        """All functions reachable from ``func_name`` through calls,
        never ``func_name`` itself."""
        if func_name not in self.graph:
            return set()
        return self.graph.descendants(func_name)

    def is_recursive(self, func_name: str) -> bool:
        """Whether ``func_name`` can call itself: directly, or through
        any chain of callees (mutual recursion)."""
        if func_name not in self.graph:
            return False
        callers = self.graph.ancestors(func_name)
        return any(
            callee == func_name or callee in callers
            for callee in self.graph.successors(func_name)
        )

    def functions_called_from(self, instructions: List[Instruction]) -> Set[str]:
        """Functions transitively callable from the given instructions."""
        result: Set[str] = set()
        for instr in instructions:
            if instr.opcode is Opcode.CALL and instr.callee is not None:
                if instr.callee in result:
                    continue
                result.add(instr.callee)
                result |= self.transitive_callees(instr.callee)
        return result


def build_callgraph(module: Module) -> CallGraph:
    """Construct the call graph of ``module``."""
    graph = DiGraph()
    call_sites: Dict[Tuple[str, str], List[Instruction]] = {}
    for func in module.functions.values():
        graph.add_node(func.name)
    for func in module.functions.values():
        for instr in func.instructions():
            if instr.opcode is Opcode.CALL and instr.callee is not None:
                edge = (func.name, instr.callee)
                graph.add_edge(*edge)
                call_sites.setdefault(edge, []).append(instr)
    return CallGraph(module=module, graph=graph, call_sites=call_sites)
