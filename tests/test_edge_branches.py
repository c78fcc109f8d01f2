"""Edge-branch tests: unusual states and boundary behaviours."""

import numpy as np

from repro.coding import GenerationParams
from repro.core import OverlayNetwork, RandomGraphOverlay
from repro.sim import SessionConfig, rlnc, run_session


class TestDegenerateOverlays:
    def test_single_node_overlay(self):
        net = OverlayNetwork(k=4, d=2, seed=1)
        net.grow(1)
        assert net.connectivity_histogram() == {2: 1}
        assert net.mean_depth() == 1.0
        net.leave(0)
        assert net.population == 0

    def test_d_equals_k(self):
        """A node may clip every thread (d = k)."""
        net = OverlayNetwork(k=3, d=3, seed=2)
        net.grow(5)
        net.matrix.check_invariants()
        assert net.connectivity_histogram() == {3: 5}
        # each node's parents are exactly the previous node (x3 threads)
        order = net.matrix.node_ids
        for earlier, later in zip(order, order[1:]):
            parents = set(net.matrix.parents_of(later).values())
            assert parents == {earlier}

    def test_d_one_chains(self):
        """d = 1 degenerates to the §1 distribution path (no guarantees,
        but the machinery must still work)."""
        net = OverlayNetwork(k=5, d=1, seed=3)
        net.grow(20)
        net.matrix.check_invariants()
        assert all(c == 1 for c in net.connectivities().values())

    def test_everyone_fails_then_full_repair(self):
        net = OverlayNetwork(k=8, d=2, seed=4)
        net.grow(15)
        for node in list(net.working_nodes):
            net.fail(node)
        assert net.working_nodes == []
        net.repair_all()
        assert net.population == 0
        net.grow(5)  # the overlay is reusable afterwards
        assert net.connectivity_histogram() == {2: 5}


class TestBroadcastEdgeStates:
    def test_empty_overlay_broadcast_is_harmless(self):
        net = OverlayNetwork(k=6, d=2, seed=5)
        rng = np.random.default_rng(6)
        content = bytes(rng.integers(0, 256, size=200, dtype=np.uint8))
        sim = rlnc(net, content, GenerationParams(4, 50), seed=7)
        sim.run(5)
        assert sim.report().nodes == []
        assert sim.server_packets == 0  # no occupied columns

    def test_single_generation_single_packet(self):
        net = OverlayNetwork(k=6, d=2, seed=8)
        net.grow(6)
        sim = rlnc(net, b"x", GenerationParams(1, 1), seed=9)
        report = sim.run_until_complete(max_slots=60)
        assert report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in report.nodes)

    def test_session_with_zero_slots_budget(self):
        result = run_session(SessionConfig(
            k=8, d=2, population=5, content_size=100,
            generation_size=4, payload_size=25, seed=10, max_slots=0,
        ))
        assert result.report.slots == 0
        assert result.report.completion_fraction == 0.0

    def test_graph_sim_on_empty_overlay(self):
        overlay = RandomGraphOverlay(k=6, d=2, seed=11)
        rng = np.random.default_rng(12)
        content = bytes(rng.integers(0, 256, size=100, dtype=np.uint8))
        sim = rlnc(
            overlay, content, GenerationParams(4, 25), seed=13
        )
        report = sim.run_until_complete(max_slots=5)
        assert report.nodes == []


class TestMatrixBoundaryOps:
    def test_k_equals_one(self, rng):
        from repro.core import ThreadMatrix

        matrix = ThreadMatrix(k=1)
        matrix.join(0, 1, rng)
        matrix.join(1, 1, rng)
        assert matrix.column_chain(0) == [0, 1]
        matrix.leave(0)
        assert matrix.column_chain(0) == [1]
        matrix.check_invariants()

    def test_interleaved_drop_add_same_column(self, rng):
        from repro.core import ThreadMatrix

        matrix = ThreadMatrix(k=4)
        matrix.join(0, 2, rng, columns=[0, 1])
        matrix.join(1, 2, rng, columns=[0, 1])
        matrix.drop_thread(1, column=0)
        matrix.add_thread(1, column=0)
        matrix.drop_thread(0, column=0)
        matrix.check_invariants()
        assert matrix.column_chain(0) == [1]

    def test_random_graph_population_one(self):
        overlay = RandomGraphOverlay(k=4, d=2, seed=14)
        overlay.join()
        graph = overlay.to_overlay_graph()
        assert graph.in_degree(0) == 2
        depths = overlay.depths_from_server()
        assert depths == {0: 1}
