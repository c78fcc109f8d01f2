"""The obs core: registries, histograms, flight recorder, instruments.

Property tests pin the two contracts the hot path relies on: a
snapshot is exactly the sum of the increments that produced it, and
histogram bucket boundaries are exact (a sample equal to a bound lands
in that bound's bucket, one ulp above lands in the next).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    Registry,
    format_dump,
)
from repro.obs import flight

#: Every histogram's fixed bucket bounds.
BOUNDS = Histogram.bounds


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x", "")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert counter.snapshot_value() == 6


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g", "")
        gauge.set(10)
        gauge.inc(2.5)
        assert gauge.snapshot_value() == 12.5

    def test_bound_callback_wins_over_stored_value(self):
        gauge = Gauge("g", "")
        gauge.set(1)
        state = {"depth": 7}
        gauge.bind(lambda: state["depth"])
        assert gauge.snapshot_value() == 7
        state["depth"] = 9
        assert gauge.snapshot_value() == 9


class TestHistogram:
    def test_exact_boundary_lands_in_its_bucket(self):
        hist = Histogram("h", "")
        hist.observe(BOUNDS[0])  # == first bound -> first bucket (le semantics)
        hist.observe(BOUNDS[1])
        hist.observe(BOUNDS[2])
        assert hist.bucket_counts[:4] == [1, 1, 1, 0]

    def test_one_ulp_above_bound_spills_to_next_bucket(self):
        import math

        hist = Histogram("h", "")
        hist.observe(math.nextafter(BOUNDS[0], BOUNDS[1]))
        assert hist.bucket_counts[:3] == [0, 1, 0]

    def test_overflow_bucket(self):
        hist = Histogram("h", "")
        hist.observe(100.0)
        assert hist.bucket_counts == [0] * len(BOUNDS) + [1]
        assert hist.count == 1
        assert hist.sum == 100.0

    def test_pow2_bounds_are_powers_of_two(self):
        for i in range(1, len(BOUNDS)):
            assert BOUNDS[i] == pytest.approx(2 * BOUNDS[i - 1])
        # The latency scale spans ~1 microsecond to ~4 seconds.
        assert BOUNDS[0] == pytest.approx(1e-6)
        assert BOUNDS[-1] > 1.0

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        max_size=50,
    ))
    def test_buckets_partition_the_samples(self, samples):
        """Every sample lands in exactly one bucket; count/sum agree."""
        hist = Histogram("h", "")
        for sample in samples:
            hist.observe(sample)
        assert sum(hist.bucket_counts) == hist.count == len(samples)
        assert hist.sum == pytest.approx(sum(samples))
        for i, bound in enumerate(hist.bounds):
            lower = hist.bounds[i - 1] if i else None
            expected = sum(
                1 for s in samples
                if s <= bound and (lower is None or s > lower)
            )
            assert hist.bucket_counts[i] == expected


class TestRegistry:
    def test_idempotent_constructors_return_same_instrument(self):
        registry = Registry("r")
        first = registry.counter("events", "help")
        second = registry.counter("events")
        assert first is second

    def test_kind_collision_is_an_error(self):
        registry = Registry("r")
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    @settings(max_examples=50, deadline=None)
    @given(increments=st.lists(st.integers(min_value=0, max_value=1000),
                               max_size=30))
    def test_snapshot_equals_sum_of_increments(self, increments):
        registry = Registry("r")
        counter = registry.counter("hits")
        for amount in increments:
            counter.inc(amount)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == sum(increments)

    def test_snapshot_sections_are_sorted(self):
        registry = Registry("r")
        registry.counter("zz")
        registry.counter("aa")
        registry.gauge("mm").set(1)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["aa", "zz"]
        assert set(snap) == {"counters", "gauges", "histograms"}


class TestFlightRecorder:
    def test_ring_keeps_only_the_tail(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 3)
        recorder = FlightRecorder()
        for i in range(10):
            recorder.record(f"event{i}", [f"effect{i}"])
        assert recorder.recorded == 10
        assert len(recorder.steps) == 3
        assert [seq for seq, _, _ in recorder.tail(3)] == [7, 8, 9]

    def test_format_dump_names_label_and_truncation(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 2)
        recorder = FlightRecorder()
        recorder.record("ev1", [])
        recorder.record("ev2", ["fx"])
        recorder.record("ev3", [])
        text = format_dump(recorder, "server")
        assert "flight recorder: server" in text
        assert "last 2 of 3 steps" in text
        assert "'ev1'" not in text  # evicted
        assert "'ev3'" in text

    def test_empty_recorder_renders_placeholder(self):
        text = format_dump(FlightRecorder(), "peer0")
        assert "(no steps recorded)" in text


class TestInstruments:
    def test_server_instruments_classify_effects(self):
        from repro.obs import ServerEngineInstruments
        from repro.protocol.effects import Admitted, PeerDeparted, Send
        from repro.protocol.messages import Probe

        registry = Registry("r")
        instruments = ServerEngineInstruments(registry)
        instruments.record_step("ev", [Admitted(node_id=1, assignments=())])
        instruments.record_step("ev", [Send(5, Probe(nonce=1))])
        instruments.record_step("ev", [PeerDeparted(node_id=1, reason="crash")])
        instruments.record_step("ev", [PeerDeparted(node_id=2, reason="leave")])
        snap = registry.snapshot()["counters"]
        assert snap["engine.joins"] == 1
        assert snap["engine.probes_sent"] == 1
        assert snap["engine.repairs"] == 1
        assert snap["engine.leaves"] == 1
        assert snap["engine.events"] == 4

    def test_population_gauge_is_the_registry_size(self):
        """10 joins, 3 leaves, 1 crash: 6 registered.  (Departed ids are
        already out of the registry; subtracting them again read 2.)"""
        import numpy as np

        from repro.core import CoordinationServer
        from repro.obs import ServerEngineInstruments
        from repro.protocol import (
            ConnectionLost,
            JoinRequest,
            LeaveRequest,
            MessageReceived,
            ServerEngine,
        )

        engine = ServerEngine(CoordinationServer(4, 2, np.random.default_rng(0)))
        registry = Registry("r")
        ServerEngineInstruments(registry).attach(engine, registry)
        for _ in range(10):
            engine.handle(MessageReceived(JoinRequest(reply_to=0)))
        for node in (1, 4, 7):
            engine.handle(MessageReceived(LeaveRequest(node), sender=node))
        engine.handle(ConnectionLost(2))
        gauges = registry.snapshot()["gauges"]
        assert gauges["engine.population"] == len(engine.core.registry) == 6
        assert gauges["engine.departed"] == 4

    def test_peer_instruments_classify_effects(self):
        from repro.obs import PeerEngineInstruments
        from repro.protocol.effects import Backoff, Clip, Send
        from repro.protocol.messages import ComplaintMsg

        registry = Registry("r")
        instruments = PeerEngineInstruments(registry)
        instruments.record_step("ev", [Clip(column=0, parent=1)])
        instruments.record_step("ev", [Backoff(column=0, delay=0.1)])
        instruments.record_step(
            "ev", [Send(0, ComplaintMsg(reporter=1, column=0, suspect=3))]
        )
        snap = registry.snapshot()["counters"]
        assert snap["engine.clips"] == 1
        assert snap["engine.backoffs"] == 1
        assert snap["engine.complaints_sent"] == 1


def _scenario_run(name):
    """Run one chaos scenario at seed 0; return its harness (torn down,
    so every counter is final) and its result."""
    import asyncio
    from dataclasses import replace

    from repro.net.testing import ChaosHarness, get_scenario

    spec = get_scenario(name)
    harness = ChaosHarness(replace(spec.config, seed=0))

    async def script():
        try:
            await spec.run(harness)
        finally:
            await harness.teardown()

    asyncio.run(script())
    return harness, harness.result(name)


class TestCountedOnce:
    """Every engine fact has one counter, on the engine's instruments;
    the drivers keep only what they decide themselves, and every
    reader reads the instrument."""

    @pytest.mark.parametrize("name", ["baseline", "partition_repair"])
    def test_each_fact_is_reported_once(self, name):
        harness, result = _scenario_run(name)
        assert result.ok, result.summary()
        server, peers = harness.server, harness.peers

        def copies(node, fields):
            return [f for f in fields if f"net.{f}" in node.registry]

        assert copies(server, ("joins", "leaves", "repairs", "probes",
                               "rounds")) == []
        assert not any(copies(peer, ("complaints",)) for peer in peers)
        counts = server.engine.obs
        assert counts.joins.value == len(peers)
        assert result.repairs == counts.repairs.value
        assert result.probes == counts.probes_sent.value
        assert result.leaves == counts.leaves.value
        assert result.crashes == server.stats.crashes
        assert result.complaints == sum(
            peer.engine.obs.complaints_sent.value for peer in peers)
        assert result.reconnects == sum(peer.stats.reconnects for peer in peers)
        if name == "partition_repair":
            # The probe timer spliced the victim; its control connection
            # never reached EOF, so the driver counted no crash.
            assert (result.repairs, result.crashes) == (1, 0)
            assert result.probes >= 1 and result.complaints >= 1
        else:
            assert (result.repairs, result.crashes, result.probes) == (0, 0, 0)
