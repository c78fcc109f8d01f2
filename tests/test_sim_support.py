"""Unit tests for RNG streams and loss models."""

import numpy as np
import pytest

from repro.sim import LinkStats, LossModel, RngStreams


class TestRngStreams:
    def test_same_seed_same_streams(self):
        a = RngStreams(7).get("coding").integers(0, 1000, size=5)
        b = RngStreams(7).get("coding").integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        streams = RngStreams(7)
        a = streams.get("coding").integers(0, 1000, size=5)
        b = streams.get("loss").integers(0, 1000, size=5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        streams = RngStreams(7)
        assert streams.get("x") is streams.get("x")

    def test_different_seeds_differ(self):
        a = RngStreams(1).get("s").integers(0, 10**6)
        b = RngStreams(2).get("s").integers(0, 10**6)
        assert a != b


class TestLossModel:
    def test_zero_loss_always_delivers(self, rng):
        model = LossModel(0.0)
        assert all(model.delivers(rng) for _ in range(100))

    def test_loss_rate_respected(self, rng):
        model = LossModel(0.3)
        delivered = sum(model.delivers(rng) for _ in range(10_000))
        assert 0.65 < delivered / 10_000 < 0.75

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LossModel(1.0)
        with pytest.raises(ValueError):
            LossModel(-0.1)


class TestLinkStats:
    def test_ratio(self):
        stats = LinkStats()
        stats.record(True)
        stats.record(True)
        stats.record(False)
        assert stats.attempted == 3
        assert stats.delivered == 2
        assert stats.delivery_ratio == pytest.approx(2 / 3)

    def test_empty_ratio_is_one(self):
        assert LinkStats().delivery_ratio == 1.0
