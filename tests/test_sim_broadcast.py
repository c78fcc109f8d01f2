"""Unit tests for the slotted packet-level broadcast simulation."""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import LossModel, NodeRole, rlnc

PARAMS = GenerationParams(generation_size=6, payload_size=32)


def make_sim(net=None, content_size=400, seed=9, **kwargs):
    net = net or _default_net()
    rng = np.random.default_rng(1)
    content = bytes(rng.integers(0, 256, size=content_size, dtype=np.uint8))
    return rlnc(net, content, PARAMS, seed=seed, **kwargs), net


def _default_net():
    net = OverlayNetwork(k=10, d=2, seed=3)
    net.grow(25)
    return net


class TestHappyPath:
    def test_everyone_completes_and_decodes(self):
        sim, net = make_sim()
        report = sim.run_until_complete(max_slots=800)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)

    def test_completion_respects_pipeline_depth(self):
        """A node cannot finish before (its depth + needed packets)."""
        sim, net = make_sim()
        report = sim.run_until_complete(max_slots=800)
        depths = net.graph().depths_from_server()
        for node in report.nodes:
            # need at least depth-1 slots to hear anything plus rank slots
            assert node.completed_at is not None
            assert node.completed_at + 1 >= depths[node.node_id]

    def test_innovative_counts_bounded_by_needed(self):
        sim, _ = make_sim()
        report = sim.run_until_complete(max_slots=800)
        for node in report.nodes:
            assert node.innovative == node.needed
            assert node.received >= node.innovative

    def test_goodput_positive(self):
        sim, _ = make_sim()
        report = sim.run_until_complete(max_slots=800)
        assert report.mean_goodput > 0.0

    def test_server_emits_k_per_slot(self):
        sim, net = make_sim()
        sim.run(10)
        assert sim.server_packets == 10 * net.k


class TestLossAndFailures:
    def test_loss_delays_but_still_completes(self):
        lossless, _ = make_sim(seed=5)
        lossy, _ = make_sim(seed=5, loss=LossModel(0.15))
        report_a = lossless.run_until_complete(max_slots=2000)
        report_b = lossy.run_until_complete(max_slots=2000)
        assert report_b.completion_fraction == 1.0
        assert max(report_b.completion_slots()) >= max(report_a.completion_slots())
        assert report_b.link_stats.delivery_ratio < 0.95

    def test_failed_node_receives_nothing(self):
        sim, net = make_sim()
        victim = net.matrix.node_ids[-1]  # bottom node: nobody depends on it
        net.fail(victim)
        sim.run(30)
        report = sim.report(nodes=[victim])
        assert report.nodes[0].received == 0

    def test_failure_mid_run_then_repair_recovers(self):
        sim, net = make_sim(content_size=1200)
        sim.run(3)
        victim = net.matrix.node_ids[2]
        net.fail(victim)
        sim.run(10)
        net.repair(victim)  # victim spliced out; children reattach
        report = sim.run_until_complete(max_slots=2000)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)

    def test_join_mid_broadcast_catches_up(self):
        sim, net = make_sim(content_size=600)
        sim.run(5)
        grant = net.join()
        report = sim.run_until_complete(max_slots=2000)
        late = [n for n in report.nodes if n.node_id == grant.node_id]
        assert late and late[0].completed_at is not None
        assert late[0].decoded_ok


class TestAttacks:
    def test_jammers_poison_downstream(self):
        net = _default_net()
        jammers = {net.matrix.node_ids[1]: NodeRole.JAMMER}
        sim, _ = make_sim(net=net, roles=jammers)
        report = sim.run_until_complete(max_slots=600)
        assert report.poisoned_fraction > 0.0

    def test_entropy_attackers_reduce_innovation(self):
        net_honest = _default_net()
        honest_sim, _ = make_sim(net=net_honest, content_size=1200)
        honest = honest_sim.run_until_complete(max_slots=1500)

        net_attacked = _default_net()
        top = net_attacked.matrix.node_ids[:5]
        roles = {n: NodeRole.ENTROPY_ATTACKER for n in top}
        attacked_sim, _ = make_sim(net=net_attacked, content_size=1200, roles=roles)
        attacked = attacked_sim.run_until_complete(max_slots=1500)

        def efficiency(report):
            received = sum(n.received for n in report.nodes)
            innovative = sum(n.innovative for n in report.nodes)
            return innovative / received if received else 1.0

        assert efficiency(attacked) < efficiency(honest)

    def test_attackers_excluded_from_default_report(self):
        net = _default_net()
        roles = {net.matrix.node_ids[0]: NodeRole.ENTROPY_ATTACKER}
        sim, _ = make_sim(net=net, roles=roles)
        sim.run(5)
        report = sim.report()
        assert all(n.node_id != net.matrix.node_ids[0] for n in report.nodes)
