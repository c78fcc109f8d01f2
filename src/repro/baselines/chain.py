"""Baseline 1 — the distribution *path* (§1's strawman).

Each node has enough bandwidth and incentive to forward to exactly one
other node, so the server's k unit-streams become k chains, each carrying
the full content at rate 1... and each hop multiplies reliability by
(1 − p).  With a million nodes and a hundred chains, depths reach ten
thousand and "the probability that any one of the upstream nodes fails is
significant" — the motivating failure of this design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.matrix import SERVER
from ..core.topology import OverlayGraph


@dataclass(frozen=True)
class ChainOverlay:
    """``k`` equal-length chains hanging off the server.

    Attributes:
        k: Number of chains (server bandwidth in full-content streams).
        population: Total nodes, distributed round-robin across chains.
    """

    k: int
    population: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.population < 0:
            raise ValueError("need k >= 1 and population >= 0")

    def chain_of(self, node_id: int) -> int:
        """Which chain a node sits on (round-robin by join order)."""
        return node_id % self.k

    def depth_of(self, node_id: int) -> int:
        """1-based hop depth of a node on its chain."""
        return node_id // self.k + 1

    def to_overlay_graph(self) -> OverlayGraph:
        """Materialise the chains as an overlay graph."""
        graph = OverlayGraph()
        previous: dict[int, int] = {}
        for node_id in range(self.population):
            graph.add_node(node_id)
            chain = self.chain_of(node_id)
            graph.add_edge(previous.get(chain, SERVER), node_id)
            previous[chain] = node_id
        return graph

    def delivery_probability(self, node_id: int, p: float) -> float:
        """P(node receives) = every upstream node on the chain works.

        The node itself must work too, matching how the overlay metrics
        count only working nodes: ``(1-p)^(depth-1)`` for ancestors.
        """
        return float((1.0 - p) ** (self.depth_of(node_id) - 1))

    def mean_delivery(self, p: float) -> float:
        """Average delivery probability over working nodes (closed form)."""
        return float(
            np.mean(
                [self.delivery_probability(n, p) for n in range(self.population)]
            )
        ) if self.population else 1.0
