"""Unit tests for the erasure-striping and flooding baselines."""

import numpy as np
import pytest

from repro.baselines import (
    MDSCode,
    evaluate_erasure_overlay,
    stripes_received,
)
from repro.core import OverlayNetwork
from repro.sim import uncoded


class TestMDSCode:
    def test_encode_shape(self, rng):
        code = MDSCode(n=10, m=6)
        source = rng.integers(0, 256, size=(6, 40), dtype=np.uint8)
        coded = code.encode(source)
        assert coded.shape == (10, 40)

    def test_decode_any_m_stripes(self, rng):
        code = MDSCode(n=10, m=6)
        source = rng.integers(0, 256, size=(6, 40), dtype=np.uint8)
        coded = code.encode(source)
        for _ in range(10):
            indices = sorted(rng.choice(10, size=6, replace=False))
            recovered = code.decode(list(indices), coded[indices])
            assert np.array_equal(recovered, source)

    def test_too_few_stripes_raises(self, rng):
        code = MDSCode(n=6, m=4)
        source = rng.integers(0, 256, size=(4, 8), dtype=np.uint8)
        coded = code.encode(source)
        with pytest.raises(ValueError):
            code.decode([0, 1, 2], coded[[0, 1, 2]])

    def test_wrong_source_shape_raises(self, rng):
        code = MDSCode(n=6, m=4)
        with pytest.raises(ValueError):
            code.encode(rng.integers(0, 256, size=(5, 8), dtype=np.uint8))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MDSCode(n=4, m=5)
        with pytest.raises(ValueError):
            MDSCode(n=300, m=4)


class TestStripesReceived:
    def test_all_alive_without_failures(self, small_net):
        for node in small_net.matrix.node_ids[:10]:
            stripes = stripes_received(small_net.matrix, node, frozenset())
            assert len(stripes) == 3

    def test_dead_upstream_kills_stripe(self, rng):
        net = OverlayNetwork(k=6, d=2, seed=41)
        net.grow(2)
        # make node 1 depend on node 0 somewhere, if columns overlap
        first, second = net.matrix.node_ids
        shared = net.matrix.columns_of(first) & net.matrix.columns_of(second)
        stripes = stripes_received(net.matrix, second, failed={first})
        expected = 2 - len(shared)
        assert len(stripes) == expected

    def test_own_failure_irrelevant_to_its_stripes(self, small_net):
        node = small_net.matrix.node_ids[5]
        with_self = stripes_received(small_net.matrix, node, failed={node})
        assert len(with_self) == 3  # only *upstream* failures matter


class TestEvaluateErasureOverlay:
    def test_no_failures_everyone_decodes(self, small_net):
        outcome = evaluate_erasure_overlay(small_net.matrix, frozenset(), required=3)
        assert outcome.decode_fraction == 1.0
        assert outcome.mean_stripe_count == pytest.approx(3.0)

    def test_redundancy_raises_decode_rate(self, small_net):
        failed = set(small_net.matrix.node_ids[:6])
        strict = evaluate_erasure_overlay(small_net.matrix, failed, required=3)
        relaxed = evaluate_erasure_overlay(small_net.matrix, failed, required=2)
        assert relaxed.decode_fraction >= strict.decode_fraction

    def test_empty_population(self):
        net = OverlayNetwork(k=6, d=2, seed=42)
        outcome = evaluate_erasure_overlay(net.matrix, frozenset(), required=1)
        assert outcome.decode_fraction == 1.0


class TestFloodingSimulation:
    def _net(self, seed=43):
        net = OverlayNetwork(k=10, d=2, seed=seed)
        net.grow(20)
        return net

    def test_completes_eventually(self):
        sim = uncoded(self._net(), 15, seed=1)
        report = sim.run_until_complete(max_slots=2000)
        assert report.completion_fraction == 1.0
        assert report.slots < 2000

    def test_duplicates_waste_bandwidth(self):
        sim = uncoded(self._net(), 15, seed=2)
        report = sim.run_until_complete(max_slots=2000)
        assert report.duplicate_fraction > 0.2

    def test_slower_than_rlnc(self):
        """The headline gap: flooding pays the coupon-collector tax."""
        from repro.coding import GenerationParams
        from repro.sim import rlnc

        packet_count = 24
        flood = uncoded(self._net(seed=44), packet_count, seed=3)
        flood_report = flood.run_until_complete(max_slots=3000)

        rng = np.random.default_rng(0)
        content = bytes(
            rng.integers(0, 256, size=packet_count * 32, dtype=np.uint8)
        )
        coded = rlnc(
            self._net(seed=44), content,
            GenerationParams(generation_size=packet_count, payload_size=32),
            seed=3,
        )
        rlnc_report = coded.run_until_complete(max_slots=3000)
        assert rlnc_report.completion_fraction == 1.0
        assert max(rlnc_report.completion_slots()) < flood_report.slots

    def test_progress_metric(self):
        sim = uncoded(self._net(), 30, seed=4)
        sim.step()
        report = sim.report()
        assert 0.0 <= report.mean_unique_fraction <= 1.0

    def test_invalid_packet_count(self):
        with pytest.raises(ValueError):
            uncoded(self._net(), 0)
