"""The §3/§5 control protocol end to end under virtual time.

These tests drive :mod:`repro.net` — the ``ServerNode``/``PeerNode``
pumps that ship — on the in-memory virtual network through
:class:`~repro.net.testing.ChaosHarness` (the ``deploy`` fixture): joins
and good-byes, silent failure → complaint → probe → repair and its
timing on the virtual clock, and the §5 congestion hand-off.  A silent
failure is ``isolate`` (a partition: the slow path); ``kill`` would
close the control connection and take the EOF fast path instead.
"""

import pytest

from repro.net.testing import ChaosHarness
from repro.protocol import (
    ComplaintMsg,
    CongestionDrop,
    LeaveRequest,
    MessageReceived,
)


def feeders(h: ChaosHarness) -> list[int]:
    """Indices of the peers that currently feed another peer."""
    return list(dict.fromkeys(parent for parent, _, _ in h.data_edges()))


async def isolate_and_time_repair(h: ChaosHarness, index: int) -> float:
    """Silently fail one peer; virtual seconds until the server splices
    it out."""
    before = h.server.engine.obs.repairs.value
    t0 = h.clock.time()
    h.isolate(index)
    assert await h.run_until(
        lambda: h.server.engine.obs.repairs.value > before, timeout=10.0)
    return h.clock.time() - t0


class TestJoinLeave:
    def test_grow_builds_consistent_views(self, deploy):
        async def script(h):
            assert len(h.peers) == 25
            assert h.server.core.population == 25
            assert h.check_structure(), h.violations

        deploy(script, peers=25)

    def test_graceful_leave_updates_views(self, deploy):
        async def script(h):
            victim = h.server.core.matrix.node_ids[4]
            await h.leave(h.index_of(victim))
            await h.settle(0.5)
            assert victim not in h.server.core.matrix
            assert h.check_structure(), h.violations

        deploy(script, peers=20)

    def test_leave_of_unknown_is_ignored(self, deploy):
        async def script(h):
            assert h.server.engine.handle(MessageReceived(
                LeaveRequest(node_id=999), sender=999)) == []
            assert h.server.core.population == 5

        deploy(script, peers=5)


class TestFailureDetectionAndRepair:
    def test_crash_is_detected_and_repaired(self, deploy):
        async def script(h):
            victim = h.pick_parent()
            node_id = h.peers[victim].node_id
            await isolate_and_time_repair(h, victim)
            await h.settle(1.0)
            assert node_id not in h.server.core.matrix
            assert h.server.engine.obs.repairs.value == 1
            assert node_id in h.server.engine.departed
            assert h.check_structure(), h.violations

        deploy(script, peers=25)

    def test_repair_latency_bounded_by_timers(self, deploy):
        async def script(h):
            latency = await isolate_and_time_repair(h, h.pick_parent())
            config = h.config
            # silence detection + probe, observed at emission-round steps
            upper = (config.silence_timeout + 2 * config.keepalive_interval
                     + config.probe_timeout + config.send_interval)
            assert 0 < latency <= upper

        deploy(script, peers=25)

    def test_alive_node_survives_spurious_complaint(self, deploy):
        async def script(h):
            matrix = h.server.core.matrix
            suspect = matrix.node_ids[2]
            column, reporter = next(
                (column, child) for column, child
                in sorted(matrix.children_of(suspect).items())
                if child is not None)
            h.peers[h.index_of(reporter)]._write_control(ComplaintMsg(
                reporter=reporter, column=column, suspect=suspect))
            await h.settle(1.0)
            assert h.server.engine.obs.probes_sent.value == 1
            assert h.server.engine.obs.repairs.value == 0
            assert suspect in h.server.core.matrix  # the probe was answered

        deploy(script, peers=15)

    def test_leaf_crash_unnoticed_without_children(self, deploy):
        """A node with no children never triggers complaints — its row
        stays until some child would depend on it (the paper's model:
        detection is complaint-driven)."""

        async def script(h):
            matrix = h.server.core.matrix
            leaves = [
                n for n in matrix.node_ids
                if all(c is None for c in matrix.children_of(n).values())
            ]
            if not leaves:
                pytest.skip("no childless node in this topology")
            h.isolate(h.index_of(leaves[0]))
            await h.settle(2.0)
            assert leaves[0] in matrix
            assert h.server.engine.obs.repairs.value == 0

        deploy(script, peers=10)

    def test_message_loss_delays_but_does_not_break(self, deploy):
        async def script(h):
            for index in range(len(h.peers)):
                h.net.set_link(h.host(index), h.server_host, loss=0.1)
            victim = h.pick_parent()
            node_id = h.peers[victim].node_id
            h.isolate(victim)
            assert await h.run_until(
                lambda: node_id not in h.server.core.matrix, timeout=10.0)

        deploy(script, peers=20)

    def test_two_simultaneous_crashes(self, deploy):
        async def script(h):
            first, second = feeders(h)[:2]
            h.isolate(first)
            h.isolate(second)
            await h.settle(3.0)
            matrix = h.server.core.matrix
            assert h.peers[first].node_id not in matrix
            assert h.peers[second].node_id not in matrix
            assert h.check_structure(), h.violations

        deploy(script, peers=30)


class TestServerLoad:
    def test_keepalives_dominate_but_control_is_light(self, deploy):
        async def script(h):
            await h.settle(2.0)
            snapshot = h.server.registry.snapshot()
            control = snapshot["counters"]["engine.effects"]
            streamed = (snapshot["gauges"]["net.sender.sent"]
                        + snapshot["gauges"]["net.sender.keepalives"])
            # control-plane messages are O(N·d), the streams are the load
            assert control < 0.2 * (control + streamed)
            assert snapshot["counters"]["engine.joins"] == 25

        # Enough content to outlast the window: the source stops
        # streaming to a column whose top node has everything.
        deploy(script, peers=25, generations=16)


class TestActorCongestion:
    def test_shed_and_restore_cycle(self, deploy):
        async def script(h):
            matrix = h.server.core.matrix
            node = matrix.node_ids[5]
            index = h.index_of(node)
            peer = h.peers[index]
            degree_before = matrix.row(node).degree
            h.congest(index)
            await h.settle(0.5)
            assert matrix.row(node).degree == degree_before - 1
            assert set(peer._thread_tasks) == set(peer.parents)
            assert h.check_structure(), h.violations
            h.uncongest(index)
            await h.settle(0.5)
            assert matrix.row(node).degree == degree_before
            assert set(peer._thread_tasks) == set(peer.parents)
            assert h.check_structure(), h.violations

        deploy(script, peers=20)

    def test_shed_to_floor_refused(self, deploy):
        async def script(h):
            matrix = h.server.core.matrix
            node = matrix.node_ids[3]
            for _ in range(5):  # d=2: only one drop possible
                h.congest(h.index_of(node))
                await h.settle(0.5)
            assert matrix.row(node).degree == 1
            assert h.check_structure(), h.violations

        deploy(script, peers=15)

    def test_failed_node_congestion_ignored(self, deploy):
        async def script(h):
            victim = h.pick_parent()
            node = h.peers[victim].node_id
            await isolate_and_time_repair(h, victim)
            assert h.server.engine.handle(MessageReceived(
                CongestionDrop(node_id=node), sender=node)) == []
            assert node not in h.server.core.matrix

        deploy(script, peers=15)
