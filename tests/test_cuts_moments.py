"""Unit tests for min-cut witnesses."""

from repro.analysis import cut_mentions_failed_parents, min_cut


class TestMinCut:
    def test_value_matches_connectivity(self, small_net):
        small_net.fail(small_net.matrix.node_ids[0])
        for node in small_net.working_nodes[:10]:
            value, cut = min_cut(small_net.matrix, node, small_net.failed)
            assert value == small_net.connectivity(node)
            assert len(cut) == value  # max-flow = min-cut

    def test_cut_is_separating(self, small_net):
        """Removing the witness edges really disconnects the node."""
        from repro.analysis import FlowNetwork
        from repro.core import SERVER, build_overlay_graph

        node = small_net.matrix.node_ids[-1]
        value, cut = min_cut(small_net.matrix, node)
        assert value == 3
        graph = build_overlay_graph(small_net.matrix)
        network = FlowNetwork()
        network.vertex(SERVER)
        remaining = dict()
        for u, targets in graph.succ.items():
            for v, mult in targets.items():
                remaining[(u, v)] = mult
        for pair in cut:
            remaining[pair] -= 1
        for (u, v), mult in remaining.items():
            if mult > 0:
                network.add_edge(u, v, mult)
        network.vertex(node)
        assert network.max_flow(SERVER, node) == 0

    def test_failed_node_empty_cut(self, small_net):
        victim = small_net.matrix.node_ids[3]
        small_net.fail(victim)
        assert min_cut(small_net.matrix, victim, small_net.failed) == (0, [])

    def test_unknown_node(self, small_net):
        assert min_cut(small_net.matrix, 9999) == (0, [])

    def test_local_containment_signature(self, small_net):
        """After a single failure, every degraded node's shortfall equals
        its failed-parent count (Theorem 4 locality, certified by cuts)."""
        victim = small_net.matrix.node_ids[0]
        small_net.fail(victim)
        for node in small_net.working_nodes:
            assert cut_mentions_failed_parents(
                small_net.matrix, node, small_net.failed
            )
