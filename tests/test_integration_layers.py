"""Cross-layer integration: the deployed control plane evolves the
topology, then the data plane broadcasts over the result."""

import numpy as np

from repro.coding import GenerationParams
from repro.sim import rlnc


class TestControlPlaneThenDataPlane:
    def test_broadcast_over_actor_evolved_topology(self, deploy):
        """Joins, crashes and repairs happen through real messages; the
        matrix that emerges must carry a bit-exact broadcast."""

        async def script(h):
            # two silent failures detected and repaired through the
            # message path
            for _ in range(2):
                h.isolate(h.pick_parent())
                await h.settle(2.0)
            assert h.server.engine.obs.repairs.value == 2
            for _ in range(5):
                await h.add_peer()
            await h.settle(1.0)
            assert h.check_structure(), h.violations

            # hand the evolved overlay to the data plane
            net_view = _overlay_facade(h.server.core)
            rng = np.random.default_rng(62)
            content = bytes(rng.integers(0, 256, size=2000, dtype=np.uint8))
            sim = rlnc(
                net_view, content, GenerationParams(8, 125), seed=63
            )
            report = sim.run_until_complete(max_slots=1200)
            assert report.completion_fraction == 1.0
            assert all(n.decoded_ok for n in report.nodes)

        deploy(script, peers=30, k=14, d=3, seed=61)

    def test_peer_views_drive_same_edges_as_matrix(self, deploy):
        """The peers' local parent maps and the matrix describe the same
        overlay — the property the data plane relies on."""

        async def script(h):
            matrix = h.server.core.matrix
            for peer in h.peers:
                assert peer.node_id in matrix
                for column, parent in matrix.parents_of(peer.node_id).items():
                    assert peer.parents[column] == parent

        deploy(script, peers=25, seed=64, insert_mode="uniform")


def _overlay_facade(core):
    """Wrap a deployment's core server in the OverlayNetwork facade."""
    from repro.core import OverlayNetwork

    facade = OverlayNetwork.__new__(OverlayNetwork)
    facade.rng = np.random.default_rng(0)
    facade.server = core
    return facade
