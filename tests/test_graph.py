import pytest

from mwns.graph import Graph, connected_components, reachable


def test_empty_graph_has_no_components():
    assert connected_components(Graph()) == []


def test_path_plus_isolated_vertex():
    g = Graph(range(1, 5), [(1, 2), (2, 3)])
    assert connected_components(g) == [[1, 2, 3], [4]]


def test_complete_graph_single_component():
    g = Graph(range(1, 6), [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    assert connected_components(g) == [[1, 2, 3, 4, 5]]


def test_rejects_self_loops_and_bad_ids():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([0, 1], [])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])


def test_deleting_a_vertex_removes_incident_edges():
    g = Graph(range(1, 4), [(1, 2), (2, 3)])
    h = g.without([2])
    assert h.vertices == (1, 3)
    assert h.edges() == []


def test_adjacency_is_symmetric_and_deduplicated():
    g = Graph([1, 2], [(1, 2), (2, 1)])
    assert g.m == 1
    assert g.neighbors(1) == frozenset({2})
    assert g.neighbors(2) == frozenset({1})


def test_induced_subgraph_keeps_inner_edges_only():
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
    h = g.induced({1, 2, 3})
    assert h.edges() == [(1, 2), (2, 3)]
    fresh = Graph([3, 2, 1], [(2, 3), (1, 2)])
    assert h == fresh and hash(h) == hash(fresh) and h.vertices == (1, 2, 3)
    assert g.without([4]) == fresh and isinstance(h.neighbors(2), frozenset)
    with pytest.raises(ValueError, match=r"unknown vertices \[5\]"):
        g.induced({1, 5})


def test_reachable_respects_removed_set():
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    assert reachable(g, [1], {2}) == {1}
    assert reachable(g, [1]) == {1, 2, 3, 4}
