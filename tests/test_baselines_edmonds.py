"""Unit tests for the Edmonds branching packing baseline."""

import numpy as np
import pytest

from repro.baselines import (
    curtain_tree_decomposition,
    route_stripes,
    verify_packing,
)
from repro.core import SERVER, OverlayNetwork
from repro.core.topology import OverlayGraph


class TestCurtainDecomposition:
    def test_valid_packing(self, small_net):
        trees = curtain_tree_decomposition(small_net.matrix)
        assert len(trees) == 3
        assert verify_packing(small_net.graph(), trees)

    def test_every_node_in_every_tree(self, small_net):
        trees = curtain_tree_decomposition(small_net.matrix)
        for tree in trees:
            assert set(tree) == set(small_net.matrix.node_ids)

    def test_empty_matrix(self):
        net = OverlayNetwork(k=6, d=2, seed=1)
        assert curtain_tree_decomposition(net.matrix) == []

    def test_heterogeneous_rejected(self, rng):
        net = OverlayNetwork(k=12, d=2, seed=2)
        net.grow(5)
        net.join(d=4)
        with pytest.raises(ValueError):
            curtain_tree_decomposition(net.matrix)

    def test_trees_use_disjoint_threads(self, small_net):
        """Each (parent, child) pair may be reused at most its edge
        multiplicity; verify_packing covers it, but check totals too."""
        trees = curtain_tree_decomposition(small_net.matrix)
        used = sum(len(t) for t in trees)
        assert used == 40 * 3  # every thread segment used exactly once


class TestVerifyPacking:
    def test_detects_missing_node(self, small_net):
        trees = curtain_tree_decomposition(small_net.matrix)
        del trees[0][small_net.matrix.node_ids[0]]
        assert not verify_packing(small_net.graph(), trees)

    def test_detects_overused_edge(self, rng):
        net = OverlayNetwork(k=8, d=2, seed=6)
        net.grow(10)
        trees = curtain_tree_decomposition(net.matrix)
        # point both trees' entry for some node at the same parent
        node = net.matrix.node_ids[-1]
        parents = list(net.matrix.parents_of(node).values())
        if parents[0] != parents[1]:
            trees[0][node] = parents[0]
            trees[1][node] = parents[0]
            assert not verify_packing(net.graph(), trees)

    def test_detects_cycle(self):
        graph = OverlayGraph()
        for node in (1, 2):
            graph.add_node(node)
        graph.add_edge(SERVER, 1, 1)
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 1, 1)
        assert not verify_packing(graph, [{1: 2, 2: 1}])


class TestRouteStripes:
    def test_no_failures_full_delivery(self, small_net):
        trees = curtain_tree_decomposition(small_net.matrix)
        outcome = route_stripes(trees, failed=set())
        assert outcome.mean_stripe_fraction == 1.0
        assert outcome.full_delivery_fraction == 1.0
        assert outcome.affected_by_failure == 0.0

    def test_failure_breaks_subtrees(self, small_net):
        trees = curtain_tree_decomposition(small_net.matrix)
        victim = small_net.matrix.node_ids[0]
        outcome = route_stripes(trees, failed={victim})
        assert outcome.mean_stripe_fraction < 1.0
        assert outcome.affected_by_failure > 0.0

    def test_fixed_trees_worse_than_recomputed(self, small_net, rng):
        """The paper's point: after failures a stale packing loses stripes
        that recomputation (on the working graph) would recover."""
        trees = curtain_tree_decomposition(small_net.matrix)
        victims = set(small_net.matrix.node_ids[:4])
        stale = route_stripes(trees, failed=victims)
        for victim in victims:
            small_net.fail(victim)
        connectivities = small_net.connectivities(
            [n for n in small_net.matrix.node_ids if n not in victims]
        )
        # recomputation could deliver min(conn, d) stripes to each node
        recomputed_fraction = float(
            np.mean([min(c, 3) / 3 for c in connectivities.values()])
        )
        assert recomputed_fraction >= stale.mean_stripe_fraction

    def test_empty_packing(self):
        outcome = route_stripes([], failed=set())
        assert outcome.mean_stripe_fraction == 1.0
