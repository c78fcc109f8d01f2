"""Unit tests for the rarest-first forwarding baseline."""

import numpy as np
import pytest

from repro.core import OverlayNetwork
from repro.sim import RarestFirstBehavior, uncoded


def _net(seed=51):
    net = OverlayNetwork(k=10, d=2, seed=seed)
    net.grow(20)
    return net


def _rarest(net, packet_count, seed=None):
    return uncoded(net, packet_count, seed=seed, behavior=RarestFirstBehavior)


class TestRarestFirst:
    def test_completes(self):
        sim = _rarest(_net(), 15, seed=1)
        report = sim.run_until_complete(max_slots=1000)
        assert report.completion_fraction == 1.0

    def test_beats_random_flooding(self):
        """The scheduling heuristic must pay for itself."""
        rarest = _rarest(_net(seed=52), 20, seed=2)
        flood = uncoded(_net(seed=52), 20, seed=2)
        rarest_report = rarest.run_until_complete(max_slots=2000)
        flood_report = flood.run_until_complete(max_slots=2000)
        assert rarest_report.slots < flood_report.slots
        assert rarest_report.duplicate_fraction <= flood_report.duplicate_fraction

    def test_still_slower_than_rlnc(self):
        """...but a heuristic cannot beat coding."""
        from repro.coding import GenerationParams
        from repro.sim import rlnc

        packet_count = 20
        rarest = _rarest(_net(seed=53), packet_count, seed=3)
        rarest_report = rarest.run_until_complete(max_slots=2000)
        rng = np.random.default_rng(0)
        content = bytes(rng.integers(0, 256, size=packet_count * 32,
                                     dtype=np.uint8))
        coded = rlnc(
            _net(seed=53), content,
            GenerationParams(generation_size=packet_count, payload_size=32),
            seed=3,
        )
        rlnc_report = coded.run_until_complete(max_slots=2000)
        assert max(rlnc_report.completion_slots()) < rarest_report.slots

    def test_send_counting_rotates_pieces(self):
        """A node must not fixate on one piece: consecutive picks from a
        multi-piece buffer differ."""
        sim = _rarest(_net(), 10, seed=4)
        behavior = sim.behavior
        node = sim.topology.net.matrix.node_ids[0]
        behavior.buffer_of(node).update({0, 1, 2})
        rng = np.random.default_rng(5)
        picks = {behavior._pick_piece(node, rng) for _ in range(3)}
        assert picks == {0, 1, 2}

    def test_failed_nodes_silent(self):
        net = _net()
        victim = net.matrix.node_ids[-1]
        net.fail(victim)
        sim = _rarest(net, 10, seed=6)
        sim.step()
        sim.step()
        assert sim.behavior.node_report(victim).received == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            _rarest(_net(), 0)
