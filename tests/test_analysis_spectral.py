"""Unit tests for spectral expansion measurements."""

import numpy as np

from repro.analysis import spectral_gap, symmetric_adjacency
from repro.baselines import ChainOverlay
from repro.core import SERVER, OverlayNetwork, RandomGraphOverlay
from repro.core.topology import OverlayGraph


class TestAdjacency:
    def test_symmetry_and_multiplicity(self, rng):
        from repro.core import ThreadMatrix
        from repro.core.topology import build_overlay_graph

        m = ThreadMatrix(k=4)
        m.join(0, 2, rng, columns=[0, 1])
        m.join(1, 2, rng, columns=[0, 1])  # double edge 0 -> 1
        adjacency, nodes = symmetric_adjacency(build_overlay_graph(m))
        assert np.array_equal(adjacency, adjacency.T)
        i, j = nodes.index(0), nodes.index(1)
        assert adjacency[i, j] == 2

    def test_server_included(self, small_net):
        _, index = symmetric_adjacency(small_net.graph())
        assert index[0] == SERVER


class TestSpectralGap:
    def test_complete_graph_large_gap(self):
        graph = OverlayGraph()
        for v in range(6):
            graph.add_node(v)
        for u in range(6):
            for v in range(6):
                if u != v:
                    graph.add_edge(u, v)
        assert spectral_gap(graph) > 0.4

    def test_path_graph_tiny_gap(self):
        graph = OverlayGraph()
        for v in range(40):
            graph.add_node(v)
        for v in range(39):
            graph.add_edge(v, v + 1)
        assert spectral_gap(graph) < 0.02

    def test_trivial_graphs(self):
        graph = OverlayGraph()
        assert spectral_gap(graph) == 0.0
        graph.add_node(0)
        assert spectral_gap(graph) == 0.0

    def test_gap_in_unit_interval(self, small_net):
        gap = spectral_gap(small_net.graph())
        assert 0.0 <= gap <= 1.0

    def test_random_graph_beats_chains(self):
        """The expander story: random overlays have a much larger gap
        than the chain baseline at equal size."""
        overlay = RandomGraphOverlay(k=12, d=3, seed=3)
        overlay.grow(120)
        random_gap = spectral_gap(overlay.to_overlay_graph())
        chains = ChainOverlay(k=12, population=120).to_overlay_graph()
        chain_gap = spectral_gap(chains)
        assert random_gap > 5 * chain_gap

    def test_curtain_gap_shrinks_with_population(self):
        """Curtain chains grow linearly, so its gap decays — consistent
        with the linear-delay finding of E6."""
        gaps = []
        for n in (50, 200):
            net = OverlayNetwork(k=12, d=3, seed=4)
            net.grow(n)
            gaps.append(spectral_gap(net.graph()))
        assert gaps[1] < gaps[0]
