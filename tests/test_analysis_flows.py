"""Unit tests for the max-flow solver, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis import FlowNetwork


def build_diamond():
    """s -> a,b -> t with capacities allowing flow 2."""
    net = FlowNetwork()
    net.add_edge("s", "a", 1)
    net.add_edge("s", "b", 1)
    net.add_edge("a", "t", 1)
    net.add_edge("b", "t", 1)
    return net


class TestMaxFlowBasics:
    def test_diamond(self):
        assert build_diamond().max_flow("s", "t") == 2

    def test_bottleneck(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 5)
        net.add_edge("a", "t", 2)
        assert net.max_flow("s", "t") == 2

    def test_disconnected(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("b", "t", 1)
        assert net.max_flow("s", "t") == 0

    def test_unknown_vertices(self):
        net = build_diamond()
        assert net.max_flow("s", "zzz") == 0
        assert net.max_flow("zzz", "t") == 0

    def test_source_equals_sink_raises(self):
        net = build_diamond()
        with pytest.raises(ValueError):
            net.max_flow("s", "s")

    def test_limit_stops_early(self):
        net = build_diamond()
        assert net.max_flow("s", "t", limit=1) == 1

    def test_negative_capacity_raises(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_edge("a", "b", -1)

    def test_parallel_edges_accumulate(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("s", "a", 1)
        net.add_edge("a", "t", 3)
        assert net.max_flow("s", "t") == 2

    def test_needs_residual_pushback(self):
        """Classic case where a greedy path must be partially undone."""
        net = FlowNetwork()
        net.add_edge("s", "a", 1)
        net.add_edge("s", "b", 1)
        net.add_edge("a", "b", 1)
        net.add_edge("a", "t", 1)
        net.add_edge("b", "t", 1)
        assert net.max_flow("s", "t") == 2


class TestSnapshotRestore:
    def test_restore_allows_rerun(self):
        net = build_diamond()
        base = net.snapshot()
        assert net.max_flow("s", "t") == 2
        assert net.max_flow("s", "t") == 0  # capacities consumed
        net.restore(base)
        assert net.max_flow("s", "t") == 2

    def test_truncate_removes_temp_edges(self):
        net = build_diamond()
        base = net.snapshot()
        mark = net.edge_mark()
        net.add_edge("t", "super", 2)
        assert net.max_flow("s", "super") == 2
        net.truncate(mark)
        net.restore(base)
        assert net.max_flow("s", "super") == 0
        net.restore(base)
        assert net.max_flow("s", "t") == 2

    def test_edge_count(self):
        """Each edge carries its residual reverse: four edges mark 8."""
        assert build_diamond().edge_mark() == 2 * 4

    def test_truncate_rejects_odd_floor(self):
        net = build_diamond()
        with pytest.raises(ValueError):
            net.truncate(1)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        graph = nx.gnp_random_graph(n, 0.35, seed=seed, directed=True)
        net = FlowNetwork()
        for u, v in graph.edges:
            capacity = int(rng.integers(1, 5))
            graph[u][v]["capacity"] = capacity
            net.add_edge(u, v, capacity)
        source, sink = 0, n - 1
        if not graph.has_node(source) or not graph.has_node(sink):
            pytest.skip("degenerate random graph")
        net.vertex(source)
        net.vertex(sink)
        expected = nx.maximum_flow_value(graph, source, sink)
        assert net.max_flow(source, sink) == expected
