"""Baseline 2 — striped multiple multicast trees (SplitStream-style [4]).

The content is split into ``d`` stripes of rate 1/d; stripe ``s`` is
multicast over its own tree.  Each node is an *interior* node in exactly
one tree (forwarding that stripe to up to ``d`` children, spending its
whole upload bandwidth there) and a leaf in the other trees — so upload
equals download, like the overlay paper's model.  Reliability per stripe
decays with tree depth (≈ log_d N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.matrix import SERVER


@dataclass
class StripedTrees:
    """``d`` interior-disjoint multicast trees over ``population`` nodes.

    Construction (an idealised static snapshot, adequate for reliability
    and depth analysis): node ``v`` is interior in tree ``v mod d``.
    Within tree ``s`` the members occupy *heap positions*: the interior
    nodes of the stripe first (in join order), then everyone else.  The
    first ``d`` positions are fed by the server; position ``r >= d``
    hangs under the interior node at heap position ``r // d - 1``.  Every
    interior node thus has at most ``d`` children and depth is
    ``Θ(log_d N)``.

    Attributes:
        d: Stripe/tree count (= per-node bandwidth in stripe units).
        population: Node count.
    """

    d: int
    population: int
    _interior: list[list[int]] = field(default_factory=list, repr=False)
    _position: list[dict[int, int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1 or self.population < 0:
            raise ValueError("need d >= 1 and population >= 0")
        self._interior = [
            [v for v in range(self.population) if v % self.d == s]
            for s in range(self.d)
        ]
        self._position = []
        for s in range(self.d):
            layout = list(self._interior[s]) + [
                v for v in range(self.population) if v % self.d != s
            ]
            self._position.append({v: r for r, v in enumerate(layout)})

    def parent_in_tree(self, node_id: int, stripe: int) -> int:
        """The node's parent in ``stripe``'s tree (``SERVER`` at the top)."""
        if not 0 <= node_id < self.population:
            raise KeyError(f"unknown node {node_id}")
        position = self._position[stripe][node_id]
        if position < self.d:
            return SERVER
        parent_position = position // self.d - 1
        interior = self._interior[stripe]
        parent_position = min(parent_position, len(interior) - 1)
        return interior[parent_position]

    def depth_in_tree(self, node_id: int, stripe: int) -> int:
        """Hop depth of a node in one stripe's tree."""
        depth = 0
        current = node_id
        while current != SERVER:
            current = self.parent_in_tree(current, stripe)
            depth += 1
        return depth

    def max_depth(self) -> int:
        """Deepest node over all trees (the delay figure for E6)."""
        if self.population == 0:
            return 0
        return max(
            self.depth_in_tree(v, s)
            for v in range(self.population)
            for s in range(self.d)
        )
