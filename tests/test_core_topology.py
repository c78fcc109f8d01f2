"""Unit tests for topology derivation from the matrix."""

import pytest

from repro.core import SERVER, ThreadMatrix, build_overlay_graph
from repro.core.topology import OverlayGraph


@pytest.fixture
def matrix(rng):
    m = ThreadMatrix(k=5)
    m.join(0, 2, rng, columns=[0, 1])
    m.join(1, 2, rng, columns=[1, 2])
    m.join(2, 2, rng, columns=[0, 2])
    return m


class TestBuildGraph:
    def test_nodes_and_edges(self, matrix):
        graph = build_overlay_graph(matrix)
        assert graph.nodes == {0, 1, 2}
        assert graph.succ[SERVER] == {0: 2, 1: 1}  # cols 0,1 -> node0; col 2 -> node1
        assert graph.succ[0] == {1: 1, 2: 1}
        assert graph.succ[1] == {2: 1}

    def test_in_degree_equals_d(self, matrix):
        graph = build_overlay_graph(matrix)
        for node in graph.nodes:
            assert graph.in_degree(node) == 2

    def test_failed_node_removed(self, matrix):
        graph = build_overlay_graph(matrix, failed={1})
        assert 1 not in graph.nodes
        assert 1 not in graph.succ.get(0, {})
        # node 2's thread on column 2 is dead: in-degree drops to 1
        assert graph.in_degree(2) == 1

    def test_failed_parent_and_child_edges_gone(self, matrix):
        graph = build_overlay_graph(matrix, failed={0})
        assert all(0 not in targets for targets in graph.succ.values())
        assert 0 not in graph.succ

    def test_edge_count(self, matrix):
        graph = build_overlay_graph(matrix)
        assert graph.edge_count() == 6


class TestGraphAlgorithms:
    def test_depths(self, matrix):
        graph = build_overlay_graph(matrix)
        depths = graph.depths_from_server()
        assert depths == {0: 1, 1: 1, 2: 2}

    def test_longest_depths(self, matrix):
        graph = build_overlay_graph(matrix)
        longest = graph.longest_depths_from_server()
        assert longest == {0: 1, 1: 2, 2: 3}

    def test_acyclic(self, matrix):
        assert build_overlay_graph(matrix).is_acyclic()

    def test_cycle_detected(self):
        graph = OverlayGraph()
        graph.add_node(1)
        graph.add_node(2)
        graph.add_edge(SERVER, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        assert not graph.is_acyclic()
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_topological_order_server_first(self, matrix):
        order = build_overlay_graph(matrix).topological_order()
        assert order[0] == SERVER

    def test_parents_children(self, matrix):
        graph = build_overlay_graph(matrix)
        assert set(graph.parents(2)) == {0, 1}
        assert set(graph.children(0)) == {1, 2}


class TestHangingSources:
    def test_unreachable_nodes_have_no_depth(self, matrix):
        graph = build_overlay_graph(matrix, failed={0, 1})
        depths = graph.depths_from_server()
        assert 2 not in depths  # node 2 fully cut off
