"""Unit tests for the chain and striped-tree baselines."""

import math
from collections import Counter

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
        """The closed form against Monte-Carlo trials: a working node is
        served while every node above it on its chain works."""
        chain = ChainOverlay(k=10, population=500)
        p = 0.02

        def trial() -> float:
            working = rng.random(chain.population) >= p
            alive = [True] * chain.k
            served = []
            for node in range(chain.population):
                if working[node]:
                    served.append(alive[chain.chain_of(node)])
                else:
                    alive[chain.chain_of(node)] = False
            return sum(served) / len(served)

        trials = [trial() for _ in range(60)]
        assert sum(trials) / len(trials) == pytest.approx(
            chain.mean_delivery(p), abs=0.05)

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

    def test_no_failures_full_delivery(self):
        """Every node hangs, in every stripe's tree, under a chain that
        ends at the server: with nobody failed, every stripe arrives."""
        trees = StripedTrees(d=3, population=100)
        for stripe in range(trees.d):
            for node in range(trees.population):
                assert trees.depth_in_tree(node, stripe) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StripedTrees(d=0, population=5)
