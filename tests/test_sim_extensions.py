"""Unit tests for the graph broadcast simulator, server detach,
and the binary-codec ablation support."""

import numpy as np
import pytest

from ext.binary import BinaryDecoder, BinaryEncoder, innovation_probability_q
from repro.coding import GenerationParams
from repro.core import OverlayNetwork, RandomGraphOverlay
from repro.sim import LossModel, rlnc


def make_content(size, seed=3):
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


class TestGraphBroadcast:
    def _run(self, seed=2, loss=0.0, n=30):
        overlay = RandomGraphOverlay(k=12, d=3, seed=seed)
        overlay.grow(n)
        content = make_content(2000)
        sim = rlnc(
            overlay, content, GenerationParams(8, 125), seed=seed + 1,
            loss=LossModel(loss),
        )
        return sim, overlay, content

    def test_completes_and_decodes(self):
        sim, _, _ = self._run()
        report = sim.run_until_complete(max_slots=500)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)

    def test_cycles_tolerated(self):
        sim, overlay, _ = self._run(n=100)
        assert not overlay.is_acyclic()
        report = sim.run_until_complete(max_slots=800)
        assert report.completion_fraction == 1.0

    def test_loss_slows_but_completes(self):
        clean, _, _ = self._run(seed=5)
        lossy, _, _ = self._run(seed=5, loss=0.15)
        report_clean = clean.run_until_complete(max_slots=1500)
        report_lossy = lossy.run_until_complete(max_slots=1500)
        assert report_lossy.completion_fraction == 1.0
        assert max(report_lossy.completion_slots()) >= max(
            report_clean.completion_slots()
        )

    def test_low_delay_vs_curtain(self):
        """Same population: random-graph completion beats curtain depth."""
        overlay = RandomGraphOverlay(k=12, d=3, seed=7)
        overlay.grow(150)
        content = make_content(1500)
        graph_sim = rlnc(
            overlay, content, GenerationParams(6, 250), seed=8
        )
        graph_report = graph_sim.run_until_complete(max_slots=1000)

        net = OverlayNetwork(k=12, d=3, seed=7)
        net.grow(150)
        curtain_sim = rlnc(
            net, content, GenerationParams(6, 250), seed=8
        )
        curtain_report = curtain_sim.run_until_complete(max_slots=1000)
        assert graph_report.completion_fraction == 1.0
        assert max(graph_report.completion_slots()) < max(
            curtain_report.completion_slots()
        )


class TestServerDetach:
    def test_curtain_cannot_self_sustain(self):
        """Acyclic flow: once the rod is silent the top starves."""
        net = OverlayNetwork(k=10, d=2, seed=5)
        net.grow(20)
        content = make_content(3000)
        sim = rlnc(net, content, GenerationParams(12, 125), seed=6)
        while not sim.swarm_has_full_rank():
            sim.step()
        sim.detach_server()
        report = sim.run_until_complete(max_slots=400)
        assert report.completion_fraction < 1.0

    def test_random_graph_self_sustains(self):
        """§6: cycles circulate information; the swarm finishes alone."""
        overlay = RandomGraphOverlay(k=12, d=3, seed=2)
        overlay.grow(40)
        content = make_content(3000)
        sim = rlnc(
            overlay, content, GenerationParams(12, 125), seed=4
        )
        while not sim.swarm_has_full_rank():
            sim.step()
        detach_slot = sim.slot
        sim.detach_server()
        report = sim.run_until_complete(max_slots=600)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)
        assert sim.server_packets <= detach_slot * 12

    def test_detach_at_future_slot(self):
        net = OverlayNetwork(k=10, d=2, seed=9)
        net.grow(10)
        sim = rlnc(
            net, make_content(500), GenerationParams(4, 125), seed=10
        )
        occupied = sum(
            1 for c in range(net.k) if net.matrix.column_chain(c)
        )
        sim.run(5)
        sim.detach_server()
        sim.run(3)
        assert sim.server_packets == 5 * occupied

    def test_swarm_rank_false_before_anything_sent(self):
        net = OverlayNetwork(k=10, d=2, seed=11)
        net.grow(5)
        sim = rlnc(
            net, make_content(500), GenerationParams(4, 125), seed=12
        )
        assert not sim.swarm_has_full_rank()


class TestBinaryCodec:
    def test_roundtrip(self, rng):
        source = rng.integers(0, 256, size=(10, 32), dtype=np.uint8)
        encoder = BinaryEncoder(source, rng)
        decoder = BinaryDecoder(10, 32)
        while not decoder.is_complete:
            decoder.push(encoder.emit())
        assert np.array_equal(decoder.recover(), source)

    def test_coefficients_binary(self, rng):
        source = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)
        encoder = BinaryEncoder(source, rng)
        for _ in range(20):
            packet = encoder.emit()
            assert set(np.unique(packet.coefficients)) <= {0, 1}

    def test_duplicate_not_innovative(self, rng):
        source = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)
        encoder = BinaryEncoder(source, rng)
        decoder = BinaryDecoder(6, 8)
        packet = encoder.emit()
        assert decoder.push(packet)
        assert not decoder.push(packet)

    def test_gf2_less_efficient_than_gf256(self, rng):
        """The field-size ablation: GF(2) wastes more packets."""
        trials = 30
        g = 12

        def binary_cost():
            source = rng.integers(0, 256, size=(g, 16), dtype=np.uint8)
            encoder = BinaryEncoder(source, rng)
            decoder = BinaryDecoder(g, 16)
            while not decoder.is_complete:
                decoder.push(encoder.emit())
            return decoder.received

        from repro.coding import Decoder, SourceEncoder

        def gf256_cost():
            params = GenerationParams(g, 16)
            content = bytes(rng.integers(0, 256, size=g * 16, dtype=np.uint8))
            encoder = SourceEncoder(content, params, rng)
            decoder = Decoder(params, 1)
            while not decoder.is_complete:
                decoder.push(encoder.emit())
            return decoder.generations[0].received

        binary_mean = np.mean([binary_cost() for _ in range(trials)])
        gf256_mean = np.mean([gf256_cost() for _ in range(trials)])
        assert binary_mean > gf256_mean

    def test_analytic_innovation_probability(self):
        assert innovation_probability_q(2, 8, 7) == pytest.approx(0.5)
        assert innovation_probability_q(256, 8, 7) == pytest.approx(1 - 1 / 256)
        assert innovation_probability_q(2, 8, 8) == 0.0
        with pytest.raises(ValueError):
            innovation_probability_q(1, 8, 4)

    def test_recover_early_raises(self, rng):
        decoder = BinaryDecoder(4, 8)
        with pytest.raises(RuntimeError):
            decoder.recover()
