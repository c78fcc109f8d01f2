"""Unit tests for delay and statistics helpers."""

import pytest

from repro.analysis import (
    chi_square_same_distribution,
    delay_profile,
    ks_same_distribution,
    pipeline_depth_profile,
)
from repro.core import OverlayNetwork


class TestDelay:
    def test_profile_fields(self, small_net):
        profile = delay_profile(small_net.graph())
        assert profile.population == 40
        assert profile.unreachable == 0
        assert 1 <= profile.mean_depth <= profile.max_depth
        assert profile.p95_depth <= profile.max_depth

    def test_pipeline_at_least_shortest(self, small_net):
        graph = small_net.graph()
        shortest = delay_profile(graph)
        longest = pipeline_depth_profile(graph)
        assert longest.max_depth >= shortest.max_depth
        assert longest.mean_depth >= shortest.mean_depth

    def test_unreachable_counted(self, small_net):
        # fail the entire top half: some bottom nodes get cut off entirely
        for node in small_net.matrix.node_ids[:20]:
            small_net.fail(node)
        profile = delay_profile(small_net.graph())
        assert profile.population == 20
        assert profile.unreachable >= 0

    def test_empty_graph(self):
        net = OverlayNetwork(k=6, d=2, seed=0)
        profile = delay_profile(net.graph())
        assert profile.population == 0
        assert profile.mean_depth == 0.0


class TestStats:
    def test_chi_square_same_distribution_accepts_identical(self, rng):
        counts = rng.integers(50, 100, size=6)
        _, p_value = chi_square_same_distribution(counts, counts)
        assert p_value > 0.9

    def test_chi_square_detects_difference(self):
        a = [100, 10, 10, 10]
        b = [10, 10, 10, 100]
        _, p_value = chi_square_same_distribution(a, b)
        assert p_value < 0.001

    def test_chi_square_validation(self):
        with pytest.raises(ValueError):
            chi_square_same_distribution([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            chi_square_same_distribution([0, 0], [0, 0])

    def test_ks_same_distribution(self, rng):
        a = rng.normal(0, 1, size=300)
        b = rng.normal(0, 1, size=300)
        c = rng.normal(2, 1, size=300)
        _, p_same = ks_same_distribution(a, b)
        _, p_diff = ks_same_distribution(a, c)
        assert p_same > 0.01
        assert p_diff < 0.001
