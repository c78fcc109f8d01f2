"""Cross-incarnation conformance: one data-plane core, identical traces.

The same delivery sequence is fed to a leaf relay on two entirely
different drivers:

* the live transport on the in-memory virtual network — the leaf's
  :class:`~repro.dataplane.RelayEngine` gets an
  :class:`~repro.protocol.EngineLog` the moment it is constructed, so
  the trace covers everything the peer ever ingests: the (deterministic)
  server-stream packets that land during harness bring-up, then a
  scripted injection on the server's outbound data pump (sixteen
  round-robin source packets with a mid-script duplicate and a trailing
  post-completion duplicate), all travelling through framing, CRC, and
  :meth:`repro.net.streams.PumpSet.consume`;
* the slotted simulator's pull-mode driver
  (:meth:`repro.sim.behaviors.RlncBehavior.deliver`), replaying the
  exact same packets, bring-up prefix included.

Both must produce the *same flattened effect trace* — the
:class:`~repro.dataplane.Ingested` gate verdicts, post-ingest ranks,
one :class:`~repro.dataplane.GenerationComplete` per generation and
the single :class:`~repro.dataplane.MarkComplete` — because the
receive gate is pure linear algebra over the packet bytes, whatever
transport carried them.  The trace is also pinned against a golden
file, the data-plane sibling of ``protocol_effects.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.coding import GenerationParams, SourceEncoder
from repro.dataplane import EngineLog, Ingested, MarkComplete, PacketArrived
from repro.sim import RngStreams
from repro.sim.behaviors import RlncBehavior

GOLDENS = Path(__file__).parent / "goldens"

#: Shared geometry: 2 generations of 4 packets -> 8 degrees of freedom.
PARAMS = GenerationParams(generation_size=4, payload_size=16)
GENERATIONS = 2
NEEDED = GENERATIONS * PARAMS.generation_size
CONTENT_SIZE = GENERATIONS * PARAMS.generation_size * PARAMS.payload_size

#: The leaf's node id in the simulator incarnation (arbitrary).
LEAF = 5


def delivery_script():
    """The scripted injection, identical for both incarnations.

    A dedicated source encoder (its own seed, distinct from either
    incarnation's content) emits each generation to full rank;
    ``script[3]`` re-delivers an absorbed packet mid-run and the final
    packet re-arrives after completion — pinning the gate's verdict on
    both flavours of redundancy.
    """
    rng = np.random.default_rng(1234)
    content = bytes(rng.integers(0, 256, size=CONTENT_SIZE, dtype=np.uint8))
    encoder = SourceEncoder(content, PARAMS, rng)
    packets = [
        encoder.emit(generation)
        for generation in range(GENERATIONS)
        for _ in range(PARAMS.generation_size)
    ]
    return packets[:3] + [packets[0]] + packets[3:] + [packets[1]]


def run_virtualnet_script(script):
    """Run bring-up plus the scripted injection on the live transport.

    Returns the packets the leaf ingested during harness bring-up (the
    server stream's deterministic emissions while ``_drive`` fast-
    forwards the virtual clock through the join handshake) and the
    leaf's full effect trace.  The engine constructor is wrapped so the
    log is attached before the first arrival can slip past it.
    """
    import asyncio

    import repro.net.peer as peer_module
    from repro.net.testing.scenarios import ChaosConfig, ChaosHarness

    real_engine = peer_module.RelayEngine

    def logging_engine(*args, **kwargs):
        engine = real_engine(*args, **kwargs)
        engine.log = EngineLog()
        return engine

    async def go():
        harness = ChaosHarness(ChaosConfig(
            peers=1, k=2, d=2,
            generation_size=PARAMS.generation_size,
            payload_size=PARAMS.payload_size,
            generations=GENERATIONS, seed=0,
            send_interval=10_000.0,
            keepalive_interval=10_000.0,
            silence_timeout=100_000.0,
            probe_timeout=10_000.0,
        ))
        try:
            await harness.start()
            await harness.settle(0.05)
            peer = harness.peers[0]
            log = peer.dataplane.log
            prefix = [event.packet for event in log.events]
            assert all(isinstance(e, PacketArrived) for e in log.events)
            sender = harness.server.pumps.get(0)
            for packet in script:
                assert sender.enqueue(packet), "injection queue overflow"
            expected = len(prefix) + len(script)
            for _ in range(500):
                if peer.dataplane.obs.packets_in >= expected:
                    break
                await harness.clock.advance(0.01)
            assert peer.dataplane.obs.packets_in == expected, (
                "virtual net dropped scripted packets")
            # Snapshot before teardown noise.
            return prefix, list(log.effect_reprs())
        finally:
            await harness.teardown()

    peer_module.RelayEngine = logging_engine
    try:
        return asyncio.run(go())
    finally:
        peer_module.RelayEngine = real_engine


def run_simulator_script(packets):
    """Deliver the same packets through the slotted pull-mode driver."""
    rng = np.random.default_rng(77)
    content = bytes(rng.integers(0, 256, size=CONTENT_SIZE, dtype=np.uint8))
    behavior = RlncBehavior(content, PARAMS, RngStreams(0))
    log = EngineLog()
    behavior.engine_of(LEAF).log = log
    for slot, packet in enumerate(packets):
        behavior.deliver(LEAF, packet, slot)
    return list(log.effect_reprs())


@pytest.fixture(scope="module")
def traces():
    script = delivery_script()
    prefix, net_trace = run_virtualnet_script(script)
    sim_trace = run_simulator_script(prefix + script)
    return sim_trace, net_trace, prefix


class TestCrossIncarnationConformance:
    def test_effect_traces_identical(self, traces):
        sim_trace, net_trace, _ = traces
        assert sim_trace == net_trace

    def test_trace_matches_golden(self, traces):
        sim_trace, _, _ = traces
        golden = json.loads(
            (GOLDENS / "dataplane_effects.json").read_text())
        assert sim_trace == golden["leaf_effects"]

    def test_gate_verdicts(self, traces):
        """Bring-up plus script carry exactly ``NEEDED`` innovative
        packets; every redundant arrival bounces off the gate and the
        decode is marked exactly once, before the trailing duplicate."""
        sim_trace, _, _ = traces
        assert sum(
            "innovative=True" in line for line in sim_trace) == NEEDED
        completions = [
            line for line in sim_trace if line.startswith("MarkComplete")]
        assert completions == [repr(MarkComplete(NEEDED))]
        assert "innovative=False" in sim_trace[-1]

    def test_ranks_monotone_to_full(self, traces):
        sim_trace, _, _ = traces
        ranks = [
            int(line.rsplit("rank=", 1)[1].rstrip(")"))
            for line in sim_trace if line.startswith("Ingested")
        ]
        assert ranks == sorted(ranks)
        assert ranks[-1] == NEEDED

    def test_effect_vocabulary_is_payload_free(self, traces):
        """Only gate verdicts and the completions cross incarnations —
        a leaf with no children must never be asked to emit."""
        sim_trace, _, prefix = traces
        assert all(
            line.startswith(
                ("Ingested", "GenerationComplete", "MarkComplete"))
            for line in sim_trace
        )
        assert sum(
            line.startswith("GenerationComplete") for line in sim_trace
        ) == GENERATIONS
        assert sim_trace[0] == repr(
            Ingested(prefix[0].generation, True, 1))


class TestFanOutCarriesOneMixturePerChild:
    """``DataplaneInstruments.record_step`` counts a fan-out as
    ``len(children)``: every :class:`~repro.dataplane.EmitToChildren`
    either engine emits must carry exactly that many mixtures, in
    whichever payload form."""

    def test_every_emission_in_a_lossy_crash_run(self, monkeypatch):
        import repro.net.peer as peer_module
        import repro.net.server as server_module
        from repro.dataplane import EmitToChildren
        from repro.net.testing.scenarios import run_scenario_sync

        logs = []

        def logged(engine_class):
            def build(*args, **kwargs):
                engine = engine_class(*args, **kwargs)
                engine.log = EngineLog()
                logs.append(engine.log)
                return engine
            return build

        monkeypatch.setattr(
            peer_module, "RelayEngine", logged(peer_module.RelayEngine))
        monkeypatch.setattr(
            server_module, "SourceEngine", logged(server_module.SourceEngine))
        result = run_scenario_sync("lossy_crash_multigen", seed=0)
        assert result.ok, result.violations
        emissions = [
            effect for log in logs for effect in log.effect_trace()
            if isinstance(effect, EmitToChildren)
        ]
        forms = {"rows": 0, "packets": 0}
        for effect in emissions:
            if effect.rows is not None:
                forms["rows"] += 1
                mixtures = sum(rows.shape[0] for _, rows in effect.rows)
            else:
                forms["packets"] += 1
                mixtures = len(effect.packets)
            assert mixtures == len(effect.children), effect
        assert forms["rows"] > 100 and forms["packets"] > 10, forms
