"""High-level facade: build, maintain and measure an overlay in a few calls.

:class:`OverlayNetwork` bundles the coordination server, the analysis
tooling and a seeded RNG behind the API most callers want::

    net = OverlayNetwork(k=32, d=4, seed=7)
    net.grow(1000)
    net.fail(net.random_working_node())
    print(net.connectivity_histogram())

Everything is also reachable piecemeal (``net.server``, ``net.matrix``)
for callers that need the raw protocol surface.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Union

import numpy as np

from ..analysis.connectivity import all_node_connectivities, node_connectivity
from ..analysis.defects import DefectSummary, exact_defect, sampled_defect
from .matrix import ThreadMatrix
from .protocols import HelloGrant, MessageStats, Redirect
from .server import CoordinationServer
from .topology import OverlayGraph, build_overlay_graph


class OverlayNetwork:
    """A peer-to-peer broadcast overlay per the paper's construction.

    Args:
        k: Server bandwidth in thread units.
        d: Default per-node bandwidth in thread units (``d >= 2`` for the
            paper's guarantees; ``d = 1`` degenerates to chains).
        seed: Seed or Generator for all randomness.
        insert_mode: ``"append"`` (§3) or ``"uniform"`` (§5 hardened).
    """

    def __init__(
        self,
        k: int,
        d: int,
        seed: Union[int, np.random.Generator, None] = None,
        insert_mode: str = "append",
    ) -> None:
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.server = CoordinationServer(k, d, self.rng, insert_mode)

    # ------------------------------------------------------------------
    # Pass-throughs

    @property
    def k(self) -> int:
        return self.server.k

    @property
    def d(self) -> int:
        return self.server.d

    @property
    def matrix(self) -> ThreadMatrix:
        return self.server.matrix

    @property
    def population(self) -> int:
        return self.server.population

    @property
    def mutation_epoch(self) -> int:
        """Structural version of the overlay; bumps on every matrix change.

        Lets consumers (simulators, analyses) cache topology-derived data
        and invalidate precisely when the overlay actually mutated.
        """
        return self.server.matrix.mutation_epoch

    @property
    def failed(self) -> frozenset[int]:
        return frozenset(self.server.failed)

    @property
    def working_nodes(self) -> list[int]:
        return self.server.working_nodes

    @property
    def stats(self) -> MessageStats:
        return self.server.stats

    # ------------------------------------------------------------------
    # Membership

    def join(self, d: Optional[int] = None,
             columns: Optional[Sequence[int]] = None) -> HelloGrant:
        """Admit one node (the hello protocol); returns its grant."""
        return self.server.hello(d, columns)

    def grow(self, count: int) -> list[int]:
        """Admit ``count`` nodes; returns their ids."""
        return [self.join().node_id for _ in range(count)]

    def leave(self, node_id: int) -> tuple[Redirect, ...]:
        """Graceful departure (the good-bye protocol)."""
        return self.server.goodbye(node_id)

    def fail(self, node_id: int) -> None:
        """Non-ergodic failure: the node goes dark, row kept until repair."""
        self.server.fail(node_id)

    def repair(self, node_id: int) -> tuple[Redirect, ...]:
        """Repair one failed node (splice parents to children)."""
        return self.server.repair(node_id)

    def repair_all(self) -> list[Redirect]:
        """Repair every outstanding failure."""
        return self.server.repair_all()

    def random_working_node(self) -> int:
        """A uniformly random working node id (for fault injection)."""
        working = self.working_nodes
        if not working:
            raise RuntimeError("no working nodes")
        return int(working[int(self.rng.integers(0, len(working)))])

    # ------------------------------------------------------------------
    # Measurement

    def graph(self) -> OverlayGraph:
        """The working overlay graph (failed vertices removed)."""
        return build_overlay_graph(self.matrix, self.failed)

    def connectivity(self, node_id: int) -> int:
        """Edge-connectivity from the server to one node."""
        return node_connectivity(self.matrix, node_id, self.failed)

    def connectivities(self, nodes: Optional[Sequence[int]] = None) -> dict[int, int]:
        """Edge-connectivity from the server for many (default: all) nodes."""
        return all_node_connectivities(self.matrix, self.failed, nodes)

    def connectivity_histogram(self) -> dict[int, int]:
        """Histogram {connectivity value: node count} over working nodes."""
        return dict(Counter(self.connectivities().values()))

    def defect_summary(self, samples: Optional[int] = 200) -> DefectSummary:
        """Defect profile of the current hanging-thread pool.

        ``samples=None`` enumerates every tuple (small ``k`` only).
        """
        if samples is None:
            return exact_defect(self.matrix, self.d, self.failed)
        return sampled_defect(self.matrix, self.d, self.rng, samples, self.failed)

    def mean_depth(self) -> float:
        """Average shortest-path hop depth of working nodes."""
        depths = self.graph().depths_from_server()
        return float(np.mean(list(depths.values()))) if depths else 0.0
