"""Tests for the scale layer: quantum clock, swarm rounds, soak runs.

Tier-1 keeps the populations modest (a couple hundred peers, seconds of
wall clock); the 10k acceptance round — the PR-9 headline — is marked
``slow`` and runs in the nightly lane next to the long soaks.
"""

import asyncio
import dataclasses

import pytest

from repro.net.testing import soak, swarm
from repro.net.testing import (
    ChaosConfig,
    ChaosHarness,
    SoakConfig,
    SwarmConfig,
    SwarmHarness,
    VirtualClock,
    VirtualNetwork,
    run_soak,
    run_swarm_round,
)
from repro.net.testing.virtualnet import LinkFaults

from ext import swarm_memory


# ----------------------------------------------------------------------
# Virtual network / quantum clock units at swarm scale


class TestSwarmNetworkUnits:
    """Network and clock units the swarm relies on."""

    def test_round_trip_preserves_bytes(self):
        async def scenario():
            net = VirtualNetwork(VirtualClock(), seed=0,
                                 record_trace=False)
            received = []

            async def handler(reader, writer):
                received.append(await reader.read(11))
                writer.close()

            net.bind("srv", 9000, handler)
            reader, writer = await net.open_connection("cli", "srv", 9000)
            writer.write(b"hello swarm")
            await writer.drain()
            await net.clock.advance(1.0)
            writer.close()
            await net.shutdown()
            return received

        assert asyncio.run(scenario()) == [b"hello swarm"]

    def test_writer_coalesces_writelines(self):
        async def scenario():
            net = VirtualNetwork(VirtualClock(), seed=0,
                                 record_trace=False)
            received = []

            async def handler(reader, writer):
                received.append(await reader.read(6))
                writer.close()

            net.bind("srv", 9000, handler)
            reader, writer = await net.open_connection("cli", "srv", 9000)
            writer.writelines([b"abc", b"def"])
            await writer.drain()
            await net.clock.advance(1.0)
            await net.shutdown()
            return received

        assert asyncio.run(scenario()) == [b"abcdef"]

    def test_port_allocation_wraps_before_uint16_overflow(self):
        """65k+ allocations must stay encodable as a wire port (>H)."""
        async def scenario():
            net = VirtualNetwork(VirtualClock(), seed=0,
                                 record_trace=False)

            async def handler(reader, writer):
                writer.close()

            listener = net.bind("srv", 9000, handler)
            ports = set()
            # Exhaust the ephemeral range: every bind must stay valid
            # and never collide with the listener.
            for i in range(70000):
                port = net._next_port("srv")
                assert 1024 <= port <= 65535, port
                assert (("srv", port)) not in net._listeners
                ports.add(port)
            listener.close()
            await net.shutdown()
            return ports

        ports = asyncio.run(scenario())
        assert 9000 not in ports  # the listener port was skipped on wrap

    def test_quantum_clock_batches_colocated_timers(self):
        """Timers within one quantum fire as a batch: every sleeper in
        the batch wakes at the *batch's* time, not its own."""
        async def scenario(quantum):
            clock = VirtualClock(quantum=quantum)
            wakes = []

            async def sleeper(delay):
                await clock.sleep(delay)
                wakes.append((delay, clock.time()))

            tasks = [
                asyncio.ensure_future(sleeper(d))
                for d in (1.0, 1.1, 1.2, 2.0)
            ]
            await asyncio.sleep(0)
            await clock.advance(5.0)
            await asyncio.gather(*tasks)
            return wakes

        # Default clock: each timer settles alone, at its own time.
        assert asyncio.run(scenario(0.0)) == [
            (1.0, 1.0), (1.1, 1.1), (1.2, 1.2), (2.0, 2.0),
        ]
        # Quantum clock: 1.0/1.1/1.2 fire together (all wake at 1.2);
        # 2.0 is outside the window and fires on its own.
        assert asyncio.run(scenario(0.25)) == [
            (1.0, 1.2), (1.1, 1.2), (1.2, 1.2), (2.0, 2.0),
        ]

    def test_firing_limit_raises_instead_of_hanging(self):
        async def scenario():
            clock = VirtualClock()
            clock.firing_limit = 50

            async def rearm():
                while True:
                    await clock.sleep(0.001)

            task = asyncio.ensure_future(rearm())
            with pytest.raises(RuntimeError, match="fired 50 timers"):
                await clock.advance(10.0)
            task.cancel()

        asyncio.run(scenario())

    def test_linkfaults_is_clean(self):
        assert LinkFaults().is_clean()
        assert not LinkFaults(loss=0.1).is_clean()
        assert not LinkFaults(latency=0.5).is_clean()
        assert not LinkFaults(partitioned=True).is_clean()


# ----------------------------------------------------------------------
# Settle failure reporting (the anti-hang fix)


class TestSettleFailure:
    def test_unquiesced_settle_records_violation_and_dump(self):
        """A harness that cannot settle must fail loudly, not hang."""
        async def scenario():
            harness = ChaosHarness(ChaosConfig(peers=2))
            try:
                await harness.start()
                # A timer loop that re-arms faster than settle drains it.
                clock = harness.clock

                async def rearm():
                    while True:
                        await clock.sleep(1e-9)

                task = asyncio.ensure_future(rearm())
                clock.firing_limit = 1000
                await harness.settle()
                task.cancel()
            finally:
                clock.firing_limit = 2_000_000
                await harness.teardown()
            return harness

        harness = asyncio.run(scenario())
        assert any("never quiesced" in v for v in harness.violations)
        assert harness.flight_dump  # evidence captured, not a bare hang


# ----------------------------------------------------------------------
# Swarm rounds


class TestSwarmConfig:
    def test_defaults_match_the_retired_chaos_copy(self):
        """SwarmConfig *is* the ChaosConfig the harness runs on; these
        are the values its hand-written copy produced before it became
        a subclass, and the three swarm-only settings are constants."""
        assert (swarm.QUANTUM, swarm.JOIN_BATCH, swarm.CHURN_FRACTION) == (
            0.25, 256, 0.10)
        assert dataclasses.asdict(SwarmConfig()) == {
            "peers": 1000, "k": 32, "d": 2, "generation_size": 8,
            "payload_size": 32, "generations": 1, "seed": 0,
            "insert_mode": "append", "send_interval": 1.0,
            "queue_limit": 32, "keepalive_interval": 10.0,
            "silence_timeout": 30.0, "probe_timeout": 4.0,
            "reconnect_base": 0.5, "reconnect_max": 4.0,
            "forward_policy": "innovative", "seed_burst": 8,
            "deadline": 900.0,
        }

    def test_harness_runs_on_the_config_it_was_given(self):
        config = SwarmConfig(peers=5, seed=3)
        assert isinstance(config, ChaosConfig)
        assert SwarmHarness(config).config is config


class TestSwarmRound:
    def test_small_swarm_full_round(self, monkeypatch):
        """Join, broadcast, 10% churn, survivors re-decode — at 150."""
        monkeypatch.setattr(swarm, "JOIN_BATCH", 64)
        report = asyncio.run(run_swarm_round(SwarmConfig(
            peers=150, k=16, seed=0,
        )))
        assert report.ok, report.violations[:5]
        assert report.joined == 150
        assert report.killed == 15
        assert report.converged and report.survivors_decoded
        assert report.server_metrics  # obs registry was read

    def test_seed_changes_churn_victims(self):
        async def run(seed):
            harness = SwarmHarness(SwarmConfig(peers=40, k=8, seed=seed))
            try:
                await harness.join_all()
                return harness.churn()
            finally:
                await harness.teardown()

        assert asyncio.run(run(0)) != asyncio.run(run(1))

    def test_summary_mentions_scale(self):
        report = asyncio.run(run_swarm_round(SwarmConfig(
            peers=60, k=8, seed=3,
        )))
        assert "n=60" in report.summary()
        assert report.wall_total > 0
        assert report.virtual_elapsed > 0

    def test_clean_round_leaves_the_link_table_empty(self):
        """Only scripting makes a per-link fault record; a round that
        scripts nothing dials thousands of pairs and makes none."""
        async def run():
            harness = SwarmHarness(SwarmConfig(peers=300, seed=0))
            try:
                report = await harness.run_round()
            finally:
                await harness.teardown()
            return report, harness.net._links

        report, links = asyncio.run(run())
        assert report.ok, report.violations[:5]
        assert links == {}

    def test_memory_ledger_groups_sum_to_the_traced_total(self):
        groups = swarm_memory.ledger(50)
        assert set(groups) == {*swarm_memory.GROUPS, "total"}
        charged = sum(groups[name] for name in swarm_memory.GROUPS)
        assert abs(groups["total"] - charged) < 4096, (groups, charged)
        assert groups["net.testing.virtualnet"] > 0
        assert groups["net.streams"] > 0

    @pytest.mark.slow
    def test_10k_acceptance_round_under_budget(self, monkeypatch):
        """The PR-9 headline: 10k peers, full round, < 60s wall."""
        monkeypatch.setattr(swarm, "JOIN_BATCH", 512)
        report = asyncio.run(run_swarm_round(SwarmConfig(
            peers=10_000, k=64, seed=0,
        )))
        assert report.ok, report.violations[:5]
        assert report.joined == 10_000
        assert report.killed == 1_000
        assert report.wall_total < 60.0, report.summary()


# ----------------------------------------------------------------------
# Soak runner


class TestSoak:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="trace shape"):
            SoakConfig(trace="tsunami")
        with pytest.raises(ValueError, match="positive"):
            SoakConfig(peers=0)

    def test_epoch_arithmetic(self):
        config = SoakConfig(peers=10, hours=0.5, epoch=60.0)
        assert config.epochs == 30

    def test_steady_soak_smoke(self):
        report = asyncio.run(run_soak(SoakConfig(
            peers=64, hours=0.05, epoch=30.0, trace="steady", seed=0,
        )))
        assert report.ok, report.violations[:5]
        assert report.epochs_run == report.epochs_total == 6
        assert report.final_converged
        # The applied history is a well-formed, replayable trace.
        counts = report.history.counts()
        assert counts["join"] == report.joins
        assert counts["fail"] == report.fails
        assert counts["leave"] == report.leaves

    def test_correlated_soak_mass_failure_absorbed(self, monkeypatch):
        monkeypatch.setattr(soak, "BURST_FRACTION", 0.25)
        report = asyncio.run(run_soak(SoakConfig(
            peers=64, hours=0.05, epoch=30.0, trace="correlated", seed=1,
        )))
        assert report.ok, report.violations[:5]
        # The burst epoch alone crashes ~a quarter of the swarm.
        assert report.fails >= int(0.2 * 64)

    def test_population_cap_clips_and_counts(self, monkeypatch):
        """Joins beyond twice the start population are clipped."""
        monkeypatch.setattr(soak, "PEAK_RATE", 60.0)
        report = asyncio.run(run_soak(SoakConfig(
            peers=32, hours=0.05, epoch=30.0, trace="flash", seed=0,
        )))
        assert report.clipped_joins > 0
        assert report.peers_final <= 64

    @pytest.mark.slow
    def test_nightly_scale_soak(self):
        """1k peers, half a virtual hour of steady churn."""
        report = asyncio.run(run_soak(SoakConfig(
            peers=1000, hours=0.5, epoch=60.0, trace="steady", seed=0,
        )))
        assert report.ok, report.violations[:5]
