"""Tests for smaller public API surfaces not covered elsewhere."""

from repro.analysis import FlowNetwork
from repro.sim import RngStreams


class TestFlowNetworkIntrospection:
    def test_vertex_bookkeeping(self):
        network = FlowNetwork()
        a = network.vertex("a")
        assert network.vertex("a") == a  # idempotent
        assert network.has_vertex("a")
        assert not network.has_vertex("b")
        network.add_edge("a", "b", 1)
        assert network.edge_count == 1


class TestRngStreamsIndependenceAcrossNames:
    def test_prefix_names_do_not_collide(self):
        """'node-1' and 'node-11' must not share a stream (a classic
        spawn-key bug class)."""
        streams = RngStreams(9)
        a = streams.get("node-1").integers(0, 10**9)
        b = streams.get("node-11").integers(0, 10**9)
        c = streams.get("node-1 1").integers(0, 10**9)
        assert len({int(a), int(b), int(c)}) == 3


class TestOverlayMiscBranches:
    def test_defect_summary_explicit_failed_override(self, tiny_net):
        bottom = tiny_net.matrix.node_ids[-1]
        summary = tiny_net.defect_summary(samples=None, failed={bottom})
        assert summary.mean_defect > 0.0
        # the overlay itself has no failures recorded
        assert tiny_net.failed == frozenset()

    def test_stats_property_is_live(self, tiny_net):
        before = tiny_net.stats.hello_grants
        tiny_net.join()
        assert tiny_net.stats.hello_grants == before + 1
