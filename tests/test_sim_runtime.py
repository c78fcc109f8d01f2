"""Unit tests for the unified slotted runtime (topology × behaviour)."""

import numpy as np
import pytest

from repro.coding.generation import GenerationParams
from repro.core import OverlayNetwork
from repro.core.matrix import SERVER
from repro.core.random_graph import RandomGraphOverlay
from repro.sim import (
    CurtainTopology,
    GraphTopology,
    NodeBehavior,
    NodeReport,
    NodeRole,
    RlncBehavior,
    RngStreams,
    RunReport,
    SessionConfig,
    SlottedRuntime,
    StaticTopology,
    StoreForwardBehavior,
    Topology,
    completion_percentile,
    mean_completion_slot,
    rlnc,
    run_session,
)
from repro.sim.links import LinkStats


def _content(size: int, seed: int = 7) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _rlnc_runtime(topology, seed=5, g=4, payload=16, **kwargs):
    streams = RngStreams(seed)
    behavior = RlncBehavior(
        _content(g * payload), GenerationParams(g, payload), streams
    )
    return SlottedRuntime(topology, behavior, streams=streams, **kwargs)


class TestStaticTopology:
    def test_chain_decodes_end_to_end(self):
        topology = StaticTopology([(SERVER, 0), (0, 1), (1, 2)])
        runtime = _rlnc_runtime(topology)
        report = runtime.run_until_complete(max_slots=200)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)
        # pipeline delay: each hop adds at least one slot
        by_id = {n.node_id: n for n in report.nodes}
        assert by_id[0].completed_at < by_id[2].completed_at

    def test_infers_nodes_from_edges(self):
        topology = StaticTopology([(SERVER, 3), (3, 9)])
        assert topology.measured_nodes() == [3, 9]

    def test_fail_and_repair(self):
        topology = StaticTopology([(SERVER, 0), (0, 1)])
        runtime = _rlnc_runtime(topology)
        topology.fail(0)
        runtime.step()
        # failed node neither receives nor forwards
        assert runtime.behavior.node_report(0).received == 0
        assert runtime.behavior.node_report(1).received == 0
        topology.repair(0)
        report = runtime.run_until_complete(max_slots=200)
        assert report.completion_fraction == 1.0

    def test_tree_with_flooding_behavior(self):
        # a striped two-branch tree under uncoded forwarding
        edges = [(SERVER, 0), (0, 1), (0, 2), (1, 3), (2, 3)]
        streams = RngStreams(11)
        runtime = SlottedRuntime(
            StaticTopology(edges), StoreForwardBehavior(6, streams),
            streams=streams,
        )
        report = runtime.run_until_complete(max_slots=500)
        assert report.completion_fraction == 1.0
        assert 0.0 <= report.duplicate_fraction < 1.0


class TestProtocols:
    def test_topologies_satisfy_protocol(self):
        net = OverlayNetwork(k=4, d=2, seed=1)
        net.grow(4)
        overlay = RandomGraphOverlay(k=4, d=2, seed=1)
        overlay.grow(4)
        assert isinstance(CurtainTopology(net), Topology)
        assert isinstance(GraphTopology(overlay), Topology)
        assert isinstance(StaticTopology([(SERVER, 0)]), Topology)

    def test_behaviors_satisfy_protocol(self):
        streams = RngStreams(2)
        rlnc = RlncBehavior(_content(64), GenerationParams(4, 16), streams)
        flood = StoreForwardBehavior(4, RngStreams(3))
        assert isinstance(rlnc, NodeBehavior)
        assert isinstance(flood, NodeBehavior)


class TestSlotHooks:
    def test_hooks_fire_once_per_driven_slot(self):
        topology = StaticTopology([(SERVER, 0)])
        runtime = _rlnc_runtime(topology)
        seen = []
        runtime.add_slot_hook(lambda rt: seen.append(rt.slot))
        runtime.run(5)
        assert seen == [0, 1, 2, 3, 4]

    def test_hook_driven_failure_halts_delivery(self):
        topology = StaticTopology([(SERVER, 0), (0, 1)])
        runtime = _rlnc_runtime(topology)

        def kill_at_three(rt):
            if rt.slot == 3:
                topology.fail(1)

        runtime.add_slot_hook(kill_at_three)
        runtime.run(20)
        behavior = runtime.behavior
        assert behavior.node_report(0).received == 20  # head of chain unaffected
        assert behavior.node_report(1).received <= 3

    def test_bare_step_skips_hooks(self):
        runtime = _rlnc_runtime(StaticTopology([(SERVER, 0)]))
        fired = []
        runtime.add_slot_hook(lambda rt: fired.append(rt.slot))
        runtime.step()
        assert fired == []


class TestReportHelpers:
    def test_summary_helpers_empty(self):
        assert mean_completion_slot([]) == 0.0
        assert completion_percentile([], 95) == 0.0

    def test_summary_helpers_values(self):
        slots = [10, 20, 30, 40]
        assert mean_completion_slot(slots) == 25.0
        assert completion_percentile(slots, 50) == 25.0
        assert completion_percentile(slots, 100) == 40.0

    def test_run_report_methods_match_helpers(self):
        rows = [
            NodeReport(node_id=i, rank=4, needed=4, completed_at=slot,
                       received=6, innovative=4, decoded_ok=True)
            for i, slot in enumerate([5, 15])
        ]
        report = RunReport(slots=20, nodes=rows, link_stats=LinkStats(),
                           server_packets=0)
        assert report.mean_completion_slot() == 10.0
        assert report.completion_percentile(100) == 15.0

    def test_flooding_view_derives_from_rows(self):
        rows = [
            NodeReport(node_id=0, rank=3, needed=4, completed_at=None,
                       received=9, innovative=3, decoded_ok=None),
            NodeReport(node_id=1, rank=4, needed=4, completed_at=12,
                       received=4, innovative=4, decoded_ok=None),
        ]
        report = RunReport(slots=20, nodes=rows, link_stats=LinkStats(),
                           server_packets=0)
        assert report.completion_fraction == 0.5
        assert report.mean_unique_fraction == pytest.approx((0.75 + 1.0) / 2)
        assert report.duplicate_fraction == pytest.approx(6 / 13)
        assert report.completion_slots() == [12]
        assert report.mean_completion_slot() == 12.0


class TestGraphRoles:
    def test_graph_broadcast_supports_attacker_roles(self):
        overlay = RandomGraphOverlay(k=6, d=2, seed=31)
        nodes = overlay.grow(10)
        sim = rlnc(
            overlay,
            _content(256),
            GenerationParams(4, 64),
            seed=32,
            roles={nodes[4]: NodeRole.ENTROPY_ATTACKER},
        )
        report = sim.run_until_complete(max_slots=300)
        measured = {n.node_id for n in report.nodes}
        assert nodes[4] not in measured  # attackers are not measured
        assert report.completion_fraction > 0.0


class TestSwarmFullRank:
    def test_peers_that_left_do_not_count(self):
        # §6: the server detaches on this answer, so a buffer that left
        # with its peer must not keep it true.
        overlay = RandomGraphOverlay(k=6, d=2, seed=3)
        overlay.grow(12)
        sim = rlnc(overlay, _content(512), GenerationParams(8, 64), seed=4)
        while not sim.swarm_has_full_rank():
            sim.step()
        holders = [
            n for n in sim.topology.live_nodes() if sim.behavior.node_report(n).rank
        ]
        assert sim.slot == 2 and len(holders) == 10
        for node_id in holders:
            overlay.leave(node_id)
        assert not sim.swarm_has_full_rank()

    def test_failed_curtain_peers_do_not_count(self):
        net = OverlayNetwork(k=4, d=2, seed=9)
        net.grow(6)
        sim = rlnc(net, _content(256), GenerationParams(4, 64), seed=10)
        while not sim.swarm_has_full_rank():
            sim.step()
        for node_id in net.working_nodes:
            net.fail(node_id)
        assert not sim.swarm_has_full_rank()


class TestGraphSession:
    def test_run_session_on_graph_topology(self):
        result = run_session(
            SessionConfig(
                k=6, d=2, population=10, content_size=2048,
                generation_size=8, payload_size=64, loss_rate=0.2,
                repair_interval=3, join_rate=1, leave_probability=0.05,
                max_slots=300, seed=77, topology="graph",
            )
        )
        assert result.joins > 0
        assert result.failures_injected == 0
        assert isinstance(result.net, RandomGraphOverlay)
        assert result.report.completion_fraction > 0.0

    def test_graph_topology_rejects_failures(self):
        with pytest.raises(ValueError, match="curtain"):
            run_session(
                SessionConfig(k=6, d=2, population=4, fail_probability=0.1,
                              repair_interval=10, max_slots=10,
                              topology="graph", seed=1)
            )

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            run_session(SessionConfig(k=4, d=2, population=2, max_slots=5,
                                      topology="mesh", seed=1))

