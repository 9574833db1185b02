"""Unit tests of the in-repo directed graph behind the analyses."""

from repro.analysis.digraph import DiGraph


def _graph(edges, nodes=()):
    graph = DiGraph()
    for node in nodes:
        graph.add_node(node)
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


def test_everything_iterates_in_insertion_order():
    graph = _graph([(3, 1), (2, 1), (0, 1), (3, 0), (3, 2)], nodes=[9])
    assert graph.nodes == [9, 3, 1, 2, 0]
    assert list(graph.predecessors(1)) == [3, 2, 0]
    assert list(graph.successors(3)) == [1, 0, 2]
    assert graph.edges == [(3, 1), (3, 0), (3, 2), (2, 1), (0, 1)]
    # A repeated edge is one edge and keeps its first position.
    graph.add_edge(3, 1)
    assert list(graph.successors(3)) == [1, 0, 2]
    assert graph.in_degree(1) == 3 and graph.in_degree(9) == 0


def test_membership_and_edges():
    graph = _graph([("a", "b")])
    assert "a" in graph and "c" not in graph
    assert graph.has_edge("a", "b") and not graph.has_edge("b", "a")
    assert not graph.has_edge("c", "a")


def test_reachability_never_holds_the_start_node():
    graph = _graph([(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)])
    assert graph.descendants(0) == {1, 2, 3}
    assert graph.ancestors(0) == {1, 2}
    assert graph.descendants(3) == set()
    assert graph.ancestors(3) == {0, 1, 2}
    # Not even through a self-loop.
    assert graph.descendants(4) == set() == graph.ancestors(4)


def test_source_components_of_the_condensation():
    # {0, 1} is a cycle fed by nothing, 2 hangs off it, {3, 4} is a cycle
    # fed by 2, 5 is isolated and 6 -> 7 is a chain.
    graph = _graph(
        [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3), (6, 7)],
        nodes=[5],
    )
    components = graph.source_components()
    assert sorted(sorted(c) for c in components) == [[0, 1], [5], [6]]
    assert DiGraph().source_components() == []
