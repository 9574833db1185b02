"""Dominator trees.

Implements the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.cfg import CFGView, postorder


class DominatorTree:
    """Immediate-dominator mapping with ancestor queries."""

    def __init__(self, idom: Dict[str, Optional[str]], root: str) -> None:
        self.idom = idom
        self.root = root
        self._depth: Dict[str, int] = {}
        for node in idom:
            self._compute_depth(node)

    def _compute_depth(self, node: str) -> int:
        if node in self._depth:
            return self._depth[node]
        chain: List[str] = []
        current: Optional[str] = node
        while current is not None and current not in self._depth:
            chain.append(current)
            current = self.idom[current] if current != self.root else None
        base = self._depth[current] if current is not None else -1
        for item in reversed(chain):
            base += 1
            self._depth[item] = base
        return self._depth[node]

    def dominates(self, a: str, b: str) -> bool:
        """Whether ``a`` dominates ``b`` (reflexively)."""
        if a not in self._depth or b not in self._depth:
            return False
        node: Optional[str] = b
        while node is not None and self._depth[node] >= self._depth[a]:
            if node == a:
                return True
            node = self.idom[node] if node != self.root else None
        return False

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def children(self) -> Dict[str, List[str]]:
        """Tree children map (root excluded from any child list)."""
        result: Dict[str, List[str]] = {node: [] for node in self.idom}
        for node, parent in self.idom.items():
            if parent is not None and node != self.root:
                result[parent].append(node)
        return result

    def __contains__(self, node: str) -> bool:
        return node in self.idom


def _run_chk(
    nodes_postorder: List[str],
    preds: Dict[str, List[str]],
    root: str,
) -> Dict[str, Optional[str]]:
    """Core CHK fixed-point over the given postorder."""
    index = {name: i for i, name in enumerate(nodes_postorder)}
    idom: Dict[str, Optional[str]] = {root: root}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] < index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] < index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    order = [n for n in reversed(nodes_postorder) if n != root]
    changed = True
    while changed:
        changed = False
        for node in order:
            candidates = [p for p in preds[node] if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    idom[root] = None
    return idom


def dominators(cfg: CFGView) -> DominatorTree:
    """Dominator tree of ``cfg`` (unreachable blocks are absent)."""
    order = postorder(cfg)
    idom = _run_chk(order, cfg.preds, cfg.entry)
    return DominatorTree(idom, cfg.entry)

