"""A small directed graph: what the analyses ask of one.

The call graph, the loop nesting graphs and Step 6's dependence
redundance graph need adjacency both ways, reachability and, for
Theorem 1, the source components of the condensation.  Everything
iterates in insertion order -- nodes in the order they were first
added, a node's successors and predecessors in the order their edges
were -- because results depend on it: Step 6 records the *first* kept
predecessor of a covered dependence.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Set, Tuple

Node = Hashable


class DiGraph:
    """Directed graph over hashable nodes, without parallel edges."""

    def __init__(self) -> None:
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}

    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, source: Node, target: Node) -> None:
        self.add_node(source)
        self.add_node(target)
        self._succ[source][target] = None
        self._pred[target][source] = None

    def __contains__(self, node: object) -> bool:
        return node in self._succ

    @property
    def nodes(self) -> List[Node]:
        return list(self._succ)

    @property
    def edges(self) -> List[Tuple[Node, Node]]:
        return [
            (source, target)
            for source, targets in self._succ.items()
            for target in targets
        ]

    def successors(self, node: Node) -> Iterator[Node]:
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        return iter(self._pred[node])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    def has_edge(self, source: Node, target: Node) -> bool:
        return target in self._succ.get(source, ())

    def descendants(self, node: Node) -> Set[Node]:
        """Every node reachable from ``node``, never ``node`` itself."""
        return _reachable(self._succ, node)

    def ancestors(self, node: Node) -> Set[Node]:
        """Every node ``node`` is reachable from, never ``node`` itself."""
        return _reachable(self._pred, node)

    def source_components(self) -> List[Set[Node]]:
        """The strongly connected components no edge enters from
        outside: the sources of the condensation (Kosaraju's two
        passes)."""
        finished: List[Node] = []
        seen: Set[Node] = set()
        for root in self._succ:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(self._succ[root]))]
            while stack:
                node, targets = stack[-1]
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append((target, iter(self._succ[target])))
                        break
                else:
                    stack.pop()
                    finished.append(node)
        component_of: Dict[Node, int] = {}
        components: List[Set[Node]] = []
        for root in reversed(finished):
            if root in component_of:
                continue
            component_of[root] = len(components)
            component = {root}
            stack = [root]
            while stack:
                for source in self._pred[stack.pop()]:
                    if source not in component_of:
                        component_of[source] = len(components)
                        component.add(source)
                        stack.append(source)
            components.append(component)
        return [
            component
            for component in components
            if all(
                source in component
                for node in component
                for source in self._pred[node]
            )
        ]


def _reachable(adjacency: Dict[Node, Dict[Node, None]], node: Node) -> Set[Node]:
    reached: Set[Node] = set()
    stack = list(adjacency[node])
    while stack:
        other = stack.pop()
        if other not in reached:
            reached.add(other)
            stack.extend(adjacency[other])
    reached.discard(node)
    return reached
