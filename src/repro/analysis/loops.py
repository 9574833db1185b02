"""Natural loop detection and the loop nesting forest.

A back edge is an edge ``latch -> header`` where ``header`` dominates
``latch``; the natural loop is the set of blocks that can reach the latch
without passing through the header.  Multiple back edges to one header are
merged into a single loop (as in LLVM).  The frontend only emits reducible
control flow, so natural loops cover every cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFGView
from repro.analysis.dominators import DominatorTree, dominators
from repro.ir import Function, Instruction, Opcode


class Loop:
    """One natural loop of a function."""

    def __init__(self, func: Function, header: str, blocks: Set[str], latches: Set[str]):
        self.func = func
        self.header = header
        self.blocks: Set[str] = blocks
        self.latches: Set[str] = latches
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def id(self) -> Tuple[str, str]:
        """Stable program-wide identifier: (function name, header name)."""
        return (self.func.name, self.header)

    @property
    def depth(self) -> int:
        """Nesting depth within this function (outermost = 1)."""
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def back_edges(self) -> List[Tuple[str, str]]:
        return [(latch, self.header) for latch in sorted(self.latches)]

    def exit_edges(self, cfg: CFGView) -> List[Tuple[str, str]]:
        """Edges leaving the loop: (inside block, outside successor)."""
        edges = []
        for name in sorted(self.blocks):
            for succ in cfg.succs[name]:
                if succ not in self.blocks:
                    edges.append((name, succ))
        return edges

    def exit_blocks(self, cfg: CFGView) -> List[str]:
        """Blocks inside the loop with a successor outside it."""
        return sorted({src for src, _ in self.exit_edges(cfg)})

    def instructions(self) -> List[Instruction]:
        """All instructions of the loop, in block order."""
        result: List[Instruction] = []
        for block in self.func.block_order():
            if block.name in self.blocks:
                result.extend(block.instructions)
        return result

    def call_sites(self) -> List[Instruction]:
        """CALL instructions directly inside the loop."""
        return [i for i in self.instructions() if i.opcode is Opcode.CALL]

    def __repr__(self) -> str:
        return f"<Loop {self.func.name}:{self.header} ({len(self.blocks)} blocks)>"


class LoopForest:
    """All natural loops of one function, with nesting structure."""

    def __init__(self, func: Function, loops: List[Loop]) -> None:
        self.func = func
        self.loops = loops
        self.by_header: Dict[str, Loop] = {l.header: l for l in loops}
        #: Innermost loop containing each block (or absent).
        self.innermost: Dict[str, Loop] = {}
        for loop in sorted(loops, key=lambda l: len(l.blocks), reverse=True):
            for name in loop.blocks:
                self.innermost[name] = loop

    @property
    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def loop_of(self, block_name: str) -> Optional[Loop]:
        """The innermost loop containing ``block_name``."""
        return self.innermost.get(block_name)

    def headers(self) -> Set[str]:
        return set(self.by_header)

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)


def find_loops(
    func: Function,
    cfg: Optional[CFGView] = None,
    dom: Optional[DominatorTree] = None,
) -> LoopForest:
    """Detect natural loops and build the nesting forest."""
    cfg = cfg or CFGView(func)
    dom = dom or dominators(cfg)

    # Collect back edges grouped by header.
    latches_by_header: Dict[str, Set[str]] = {}
    for name in cfg.nodes():
        if name not in dom:
            continue
        for succ in cfg.succs[name]:
            if succ in dom and dom.dominates(succ, name):
                latches_by_header.setdefault(succ, set()).add(name)

    loops: List[Loop] = []
    for header, latches in latches_by_header.items():
        blocks: Set[str] = {header}
        work = [l for l in latches if l != header]
        blocks.update(latches)
        while work:
            node = work.pop()
            for pred in cfg.preds[node]:
                if pred not in blocks and pred in dom:
                    blocks.add(pred)
                    work.append(pred)
        loops.append(Loop(func, header, blocks, set(latches)))

    # Nesting: parent = smallest strictly containing loop.
    loops.sort(key=lambda l: len(l.blocks))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1:]:
            if inner.header in outer.blocks and inner is not outer:
                inner.parent = outer
                outer.children.append(inner)
                break

    return LoopForest(func, loops)
