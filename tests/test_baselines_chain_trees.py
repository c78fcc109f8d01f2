"""Unit tests for the chain and striped-tree baselines."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.baselines import ChainOverlay, StripedTrees
from repro.core import SERVER


class TestChainOverlay:
    def test_structure(self):
        chain = ChainOverlay(k=4, population=10)
        assert chain.chain_of(0) == 0
        assert chain.chain_of(5) == 1
        assert chain.depth_of(0) == 1
        assert chain.depth_of(9) == 3

    def test_graph_is_k_paths(self):
        chain = ChainOverlay(k=3, population=9)
        graph = chain.to_overlay_graph()
        assert len(graph.nodes) == 9
        assert graph.succ[SERVER] == {0: 1, 1: 1, 2: 1}
        for node in graph.nodes:
            assert graph.in_degree(node) == 1
            assert graph.out_degree(node) <= 1

    def test_delivery_probability_decays_with_depth(self):
        chain = ChainOverlay(k=2, population=100)
        assert chain.delivery_probability(0, 0.1) == 1.0
        assert chain.delivery_probability(98, 0.1) < 0.01

    def test_mean_delivery_closed_form(self):
        chain = ChainOverlay(k=1, population=3)
        p = 0.5
        expected = (1 + 0.5 + 0.25) / 3
        assert chain.mean_delivery(p) == pytest.approx(expected)

    def test_simulation_matches_expectation(self, rng):
        chain = ChainOverlay(k=10, population=500)
        p = 0.02
        trials = [chain.simulate_delivery(p, rng) for _ in range(60)]
        assert np.mean(trials) == pytest.approx(chain.mean_delivery(p), abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainOverlay(k=0, population=5)


class TestStripedTrees:
    def test_depth_logarithmic(self):
        trees = StripedTrees(d=4, population=1000)
        assert trees.max_depth() <= 3 * math.ceil(math.log(1000, 4)) + 2

    def test_parents_precede_or_are_interior(self):
        trees = StripedTrees(d=3, population=50)
        for stripe in range(3):
            for node in range(50):
                parent = trees.parent_in_tree(node, stripe)
                if parent != SERVER:
                    assert parent % 3 == stripe  # only interiors forward

    def test_interior_out_degree_bounded(self):
        trees = StripedTrees(d=3, population=60)
        for stripe in range(3):
            out_degree = Counter(trees.parent_in_tree(v, stripe) for v in range(60))
            for node in range(60):
                if node % 3 == stripe:
                    assert out_degree[node] <= 3
                else:
                    assert out_degree[node] == 0

    def test_unknown_node_raises(self):
        trees = StripedTrees(d=2, population=4)
        with pytest.raises(KeyError):
            trees.parent_in_tree(99, 0)

    def test_no_failures_full_delivery(self, rng):
        trees = StripedTrees(d=3, population=100)
        mean_fraction, decode = trees.simulate_delivery(0.0, rng)
        assert mean_fraction == 1.0
        assert decode == 1.0

    def test_erasure_protection_helps(self, rng):
        """Requiring m < d stripes must decode at least as often."""
        strict = StripedTrees(d=4, population=300, required_stripes=4)
        protected = StripedTrees(d=4, population=300, required_stripes=3)
        _, strict_decode = strict.simulate_delivery(0.05, np.random.default_rng(3))
        _, protected_decode = protected.simulate_delivery(0.05, np.random.default_rng(3))
        assert protected_decode >= strict_decode

    def test_delivery_decreases_with_p(self, rng):
        trees = StripedTrees(d=3, population=200)
        low, _ = trees.simulate_delivery(0.01, np.random.default_rng(4))
        high, _ = trees.simulate_delivery(0.2, np.random.default_rng(4))
        assert high < low

    def test_validation(self):
        with pytest.raises(ValueError):
            StripedTrees(d=0, population=5)
        with pytest.raises(ValueError):
            StripedTrees(d=3, population=5, required_stripes=4)
