"""Unit tests for the actor-level protocol simulation."""

import pytest

from repro.protocol_sim import (
    SERVER_ADDRESS,
    JoinRequest,
    MessageNetwork,
    ProtocolConfig,
    ProtocolSimulation,
)
from repro.sim import Simulator


def make_sim(**overrides):
    config = ProtocolConfig(k=12, d=2, seed=3, **overrides)
    return ProtocolSimulation(config)


class TestNetwork:
    def test_delivery_with_latency(self, rng):
        sim = Simulator()
        network = MessageNetwork(sim, rng, base_latency=0.1, jitter=0.0)
        inbox = []

        class Sink:
            def handle(self, message, sender):
                inbox.append((sim.now, message, sender))

        network.register("sink", Sink())
        network.send("src", "sink", JoinRequest(reply_to=1))
        sim.run()
        assert len(inbox) == 1
        assert inbox[0][0] == pytest.approx(0.1)
        assert inbox[0][2] == "src"

    def test_loss(self, rng):
        sim = Simulator()
        network = MessageNetwork(sim, rng, loss_rate=0.5)
        received = []

        class Sink:
            def handle(self, message, sender):
                received.append(message)

        network.register("sink", Sink())
        for _ in range(200):
            network.send("src", "sink", JoinRequest(reply_to=1))
        sim.run()
        assert 60 < len(received) < 140
        assert network.stats.dropped == 200 - len(received)

    def test_unknown_destination_silently_dropped(self, rng):
        sim = Simulator()
        network = MessageNetwork(sim, rng)
        network.send("src", "ghost", JoinRequest(reply_to=1))
        sim.run()  # no exception

    def test_stats_accounting(self, rng):
        sim = Simulator()
        network = MessageNetwork(sim, rng)
        network.send("a", "b", JoinRequest(reply_to=1))
        assert network.stats.messages["JoinRequest"] == 1
        assert network.stats.total_bytes() == 16

    def test_parameter_validation(self, rng):
        sim = Simulator()
        with pytest.raises(ValueError):
            MessageNetwork(sim, rng, base_latency=-1)
        with pytest.raises(ValueError):
            MessageNetwork(sim, rng, loss_rate=1.0)

    def test_fifo_preserves_per_channel_order(self, rng):
        """Jitter must not reorder a channel's messages (TCP semantics);
        regression for a real race: a stale AttachChild overtaking a
        fresh one under §5 uniform insertion."""
        sim = Simulator()
        network = MessageNetwork(sim, rng, base_latency=0.01, jitter=0.5)
        received = []

        class Sink:
            def handle(self, message, sender):
                received.append(message.reply_to)

        network.register("sink", Sink())
        for index in range(50):
            network.send("src", "sink", JoinRequest(reply_to=index))
        sim.run()
        assert received == list(range(50))

    def test_datagram_mode_can_reorder(self, rng):
        sim = Simulator()
        network = MessageNetwork(sim, rng, base_latency=0.01, jitter=0.5,
                                 fifo=False)
        received = []

        class Sink:
            def handle(self, message, sender):
                received.append(message.reply_to)

        network.register("sink", Sink())
        for index in range(50):
            network.send("src", "sink", JoinRequest(reply_to=index))
        sim.run()
        assert sorted(received) == list(range(50))
        assert received != list(range(50))  # jitter reorders datagrams


class TestJoinLeave:
    def test_grow_builds_consistent_views(self):
        sim = make_sim()
        sim.grow(25, settle=3.0)
        assert len(sim.peers) == 25
        assert sim.core.population == 25
        assert sim.consistency_check()

    def test_graceful_leave_updates_views(self):
        sim = make_sim()
        sim.grow(20, settle=3.0)
        victim = sim.core.matrix.node_ids[4]
        sim.leave(victim)
        sim.run(2.0)
        assert victim not in sim.core.matrix
        assert sim.consistency_check()

    def test_leave_of_unknown_is_ignored(self):
        sim = make_sim()
        sim.grow(5, settle=2.0)
        from repro.protocol.messages import LeaveRequest

        sim.network.send(999, SERVER_ADDRESS, LeaveRequest(node_id=999))
        sim.run(1.0)
        assert sim.core.population == 5


class TestFailureDetectionAndRepair:
    def _sim_with_victim(self):
        sim = make_sim()
        sim.grow(25, settle=3.0)
        victims = [
            n for n in sim.core.matrix.node_ids
            if any(c is not None
                   for c in sim.core.matrix.children_of(n).values())
        ]
        return sim, victims[0]

    def test_crash_is_detected_and_repaired(self):
        sim, victim = self._sim_with_victim()
        sim.crash(victim)
        sim.run(4.0)
        assert victim not in sim.core.matrix
        records = sim.completed_repairs()
        assert len(records) == 1
        assert records[0].victim == victim
        assert sim.consistency_check()

    def test_repair_latency_bounded_by_timers(self):
        sim, victim = self._sim_with_victim()
        sim.crash(victim)
        sim.run(5.0)
        latency = sim.repair_latencies()[0]
        config = sim.config
        # silence detection + probe + a few network hops
        upper = (config.silence_timeout + 2 * config.keepalive_interval
                 + config.probe_timeout + 6 * (config.base_latency + config.jitter))
        assert 0 < latency <= upper

    def test_alive_node_survives_spurious_complaint(self):
        from repro.protocol.messages import ComplaintMsg

        sim = make_sim()
        sim.grow(15, settle=3.0)
        suspect = sim.core.matrix.node_ids[2]
        reporter = sim.core.matrix.node_ids[10]
        sim.network.send(reporter, SERVER_ADDRESS,
                         ComplaintMsg(reporter=reporter, column=0,
                                      suspect=suspect))
        sim.run(3.0)
        assert suspect in sim.core.matrix  # the probe was answered

    def test_leaf_crash_unnoticed_without_children(self):
        """A node with no children never triggers complaints — its row
        stays until some child would depend on it (the paper's model:
        detection is complaint-driven)."""
        sim = make_sim()
        sim.grow(10, settle=3.0)
        leaves = [
            n for n in sim.core.matrix.node_ids
            if all(c is None for c in sim.core.matrix.children_of(n).values())
        ]
        if not leaves:
            pytest.skip("no childless node in this topology")
        sim.crash(leaves[0])
        sim.run(3.0)
        assert leaves[0] in sim.core.matrix
        assert not sim.completed_repairs()

    def test_message_loss_delays_but_does_not_break(self):
        sim = make_sim(message_loss=0.1)
        sim.grow(20, settle=4.0)
        victims = [
            n for n in sim.core.matrix.node_ids
            if any(c is not None
                   for c in sim.core.matrix.children_of(n).values())
        ]
        sim.crash(victims[0])
        sim.run(10.0)
        assert victims[0] not in sim.core.matrix

    def test_two_simultaneous_crashes(self):
        sim = make_sim()
        sim.grow(30, settle=3.0)
        parents = [
            n for n in sim.core.matrix.node_ids
            if any(c is not None
                   for c in sim.core.matrix.children_of(n).values())
        ]
        first, second = parents[0], parents[1]
        sim.crash(first)
        sim.crash(second)
        sim.run(6.0)
        assert first not in sim.core.matrix
        assert second not in sim.core.matrix
        assert sim.consistency_check()


class TestServerLoad:
    def test_keepalives_dominate_but_control_is_light(self):
        sim = make_sim()
        sim.grow(25, settle=5.0)
        stats = sim.network.stats
        control = stats.total_messages() - stats.messages.get("KeepAlive", 0)
        # control-plane messages are O(N·d), keep-alives are the data plane
        assert control < 0.2 * stats.total_messages()
        assert stats.messages["JoinGrant"] == 25


class TestActorCongestion:
    def test_shed_and_restore_cycle(self):
        sim = make_sim()
        sim.grow(20, settle=3.0)
        node = sim.core.matrix.node_ids[5]
        degree_before = sim.core.matrix.row(node).degree
        sim.congest(node)
        sim.run(2.0)
        assert sim.core.matrix.row(node).degree == degree_before - 1
        assert sim.consistency_check()
        sim.uncongest(node)
        sim.run(2.0)
        assert sim.core.matrix.row(node).degree == degree_before
        assert sim.consistency_check()

    def test_shed_to_floor_refused(self):
        sim = make_sim()
        sim.grow(15, settle=3.0)
        node = sim.core.matrix.node_ids[3]
        for _ in range(5):  # d=2: only one drop possible
            sim.congest(node)
            sim.run(1.5)
        assert sim.core.matrix.row(node).degree == 1
        assert sim.consistency_check()

    def test_failed_node_congestion_ignored(self):
        sim = make_sim()
        sim.grow(15, settle=3.0)
        node = sim.core.matrix.node_ids[2]
        sim.crash(node)
        sim.run(4.0)  # node is repaired away
        sim.congest(node)
        sim.run(1.0)  # must not raise; message ignored
        assert node not in sim.core.matrix
