"""Unit tests for the OverlayNetwork facade."""

import numpy as np
import pytest

from repro.core import OverlayNetwork


class TestLifecycle:
    def test_grow(self, small_net):
        assert small_net.population == 40
        assert len(small_net.working_nodes) == 40

    def test_join_returns_grant(self, small_net):
        grant = small_net.join()
        assert grant.node_id == 40
        assert small_net.population == 41

    def test_leave(self, small_net):
        small_net.leave(0)
        assert small_net.population == 39
        small_net.matrix.check_invariants()

    def test_fail_and_repair(self, small_net):
        small_net.fail(3)
        assert 3 in small_net.failed
        assert 3 not in small_net.working_nodes
        small_net.repair(3)
        assert small_net.failed == frozenset()
        assert small_net.population == 39

    def test_repair_all(self, small_net):
        for node in (1, 2, 3):
            small_net.fail(node)
        small_net.repair_all()
        assert small_net.failed == frozenset()
        assert small_net.population == 37

    def test_random_working_node(self, small_net):
        node = small_net.random_working_node()
        assert node in small_net.working_nodes

    def test_random_working_node_empty_raises(self):
        net = OverlayNetwork(k=6, d=2, seed=1)
        with pytest.raises(RuntimeError):
            net.random_working_node()


class TestMeasurements:
    def test_full_connectivity_without_failures(self, small_net):
        histogram = small_net.connectivity_histogram()
        assert histogram == {3: 40}

    def test_connectivity_drops_for_children_of_failed(self, small_net):
        victim = 0  # early node: likely to have children
        children = {
            child
            for child in small_net.matrix.children_of(victim).values()
            if child is not None
        }
        small_net.fail(victim)
        for child in children:
            assert small_net.connectivity(child) < 3

    def test_connectivities_match_single_queries(self, small_net):
        small_net.fail(2)
        bulk = small_net.connectivities()
        for node in list(bulk)[:10]:
            assert bulk[node] == small_net.connectivity(node)

    def test_failed_node_connectivity_zero(self, small_net):
        small_net.fail(5)
        assert small_net.connectivity(5) == 0

    def test_graph_excludes_failures_by_default(self, small_net):
        assert 7 in small_net.graph().nodes
        small_net.fail(7)
        assert 7 not in small_net.graph().nodes

    def test_defect_summary_sampled(self, small_net):
        summary = small_net.defect_summary(samples=50)
        assert summary.samples == 50
        assert not summary.exact
        assert summary.mean_defect == 0.0  # no failures -> no defects

    def test_defect_summary_exact(self, tiny_net):
        summary = tiny_net.defect_summary(samples=None)
        assert summary.exact
        assert summary.samples == 15  # C(6, 2)
        assert summary.mean_defect == 0.0

    def test_defect_appears_with_failure(self, tiny_net):
        tiny_net.fail(tiny_net.matrix.node_ids[-1])  # bottom node owns threads
        summary = tiny_net.defect_summary(samples=None)
        assert summary.mean_defect > 0.0
        assert summary.bad_fraction > 0.0

    def test_mean_depth_positive(self, small_net):
        assert small_net.mean_depth() > 1.0

    def test_seed_reproducibility(self):
        a = OverlayNetwork(k=10, d=2, seed=5)
        b = OverlayNetwork(k=10, d=2, seed=5)
        a.grow(25)
        b.grow(25)
        assert a.matrix.to_dense().tolist() == b.matrix.to_dense().tolist()

    def test_generator_seed_accepted(self):
        rng = np.random.default_rng(3)
        net = OverlayNetwork(k=8, d=2, seed=rng)
        assert net.rng is rng
