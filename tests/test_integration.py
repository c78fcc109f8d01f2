"""Integration tests: whole-system scenarios crossing module boundaries."""

import numpy as np

from repro.coding import GenerationParams
from repro.core import CongestionController, OverlayNetwork, congestion
from repro.failures import IIDFailures, apply_failures
from repro.sim import SessionConfig, rlnc, run_session


class TestBroadcastUnderHeavyChurn:
    def test_content_integrity_through_full_lifecycle(self):
        """Joins, failures, repairs, leaves and loss during one download:
        every surviving node must decode the exact original bytes."""
        result = run_session(
            SessionConfig(
                k=14, d=3, population=30, content_size=2000,
                generation_size=8, payload_size=64, loss_rate=0.03,
                fail_probability=0.01, repair_interval=8, join_rate=1,
                leave_probability=0.005, max_slots=2500, seed=99,
            )
        )
        completed = [n for n in result.report.nodes if n.completed_at is not None]
        assert len(completed) >= 0.9 * len(result.report.nodes)
        assert all(n.decoded_ok for n in completed)
        result.net.matrix.check_invariants()

    def test_repeated_batch_failures_with_repairs(self, rng):
        """Alternating failure waves and repairs keep the overlay sound."""
        net = OverlayNetwork(k=16, d=2, seed=7)
        net.grow(120)
        for _ in range(15):
            apply_failures(net, IIDFailures(0.05), rng)
            net.repair_all()
            net.grow(3)
        net.matrix.check_invariants()
        histogram = net.connectivity_histogram()
        assert histogram == {2: net.population}


class TestCongestionDuringBroadcast:
    def test_thread_shedding_degrades_gracefully(self, monkeypatch):
        """A congested node sheds a thread mid-broadcast; the swarm still
        completes and the shed node still decodes (more slowly)."""
        monkeypatch.setattr(congestion, "DROP_AFTER", 1)
        net = OverlayNetwork(k=12, d=3, seed=23)
        net.grow(25)
        controller = CongestionController(net.server, restore_after=3)
        rng = np.random.default_rng(24)
        content = bytes(rng.integers(0, 256, size=1000, dtype=np.uint8))
        sim = rlnc(
            net, content, GenerationParams(generation_size=8, payload_size=50),
            seed=25,
        )
        victim = net.matrix.node_ids[10]
        sim.run(5)
        controller.observe(victim, congested=True)  # sheds one thread
        assert net.matrix.row(victim).degree == 2
        report = sim.run_until_complete(max_slots=1500)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)
        net.matrix.check_invariants()


class TestHeterogeneousBroadcast:
    def test_mixed_degrees_complete(self):
        from repro.core import BandwidthClass, join_population

        net = OverlayNetwork(k=16, d=4, seed=29)
        rng = np.random.default_rng(30)
        join_population(
            net,
            [BandwidthClass("dsl", 2), BandwidthClass("t1", 6)],
            weights=[2, 1],
            count=24,
            rng=rng,
        )
        content = bytes(rng.integers(0, 256, size=800, dtype=np.uint8))
        sim = rlnc(
            net, content, GenerationParams(generation_size=6, payload_size=40),
            seed=31,
        )
        report = sim.run_until_complete(max_slots=1500)
        assert report.completion_fraction == 1.0
        # T1 nodes (degree 6) should on average finish no later than DSL
        degrees = {n: net.matrix.row(n).degree for n in net.matrix.node_ids}
        t1 = [r.completed_at for r in report.nodes if degrees[r.node_id] == 6]
        dsl = [r.completed_at for r in report.nodes if degrees[r.node_id] == 2]
        assert np.mean(t1) <= np.mean(dsl) + 2.0


class TestLongRunningStability:
    def test_thousand_membership_events(self, rng):
        """A long random walk of membership operations stays consistent."""
        net = OverlayNetwork(k=20, d=2, seed=37, insert_mode="uniform")
        net.grow(50)
        for step in range(1000):
            roll = rng.random()
            if roll < 0.4:
                net.join()
            elif roll < 0.6 and net.population > 20:
                net.leave(net.random_working_node())
            elif roll < 0.8 and net.working_nodes:
                net.fail(net.random_working_node())
            else:
                net.repair_all()
        net.repair_all()
        net.matrix.check_invariants()
        assert all(c == 2 for c in net.connectivities().values())
