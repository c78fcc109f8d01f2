"""Baseline 2 — striped multiple multicast trees (SplitStream-style [4]).

The content is split into ``d`` stripes of rate 1/d; stripe ``s`` is
multicast over its own tree.  Each node is an *interior* node in exactly
one tree (forwarding that stripe to up to ``d`` children, spending its
whole upload bandwidth there) and a leaf in the other trees — so upload
equals download, like the overlay paper's model.  Reliability per stripe
decays with tree depth (≈ log_d N); stripes may be protected by an MDS
erasure code: receive any ``m`` of ``d`` stripes to decode (at rate m/d
of the full content).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        required_stripes: Stripes needed to decode (MDS ``m`` of ``d``);
            defaults to ``d`` (no erasure protection).
    """

    d: int
    population: int
    required_stripes: int = 0  # 0 -> defaults to d in __post_init__
    _interior: list[list[int]] = field(default_factory=list, repr=False)
    _position: list[dict[int, int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1 or self.population < 0:
            raise ValueError("need d >= 1 and population >= 0")
        if self.required_stripes == 0:
            self.required_stripes = self.d
        if not 1 <= self.required_stripes <= self.d:
            raise ValueError("required_stripes must be in [1, d]")
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

    def simulate_delivery(
        self, p: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        """One trial: (mean stripes received / d, full-decode fraction).

        A working node decodes iff at least ``required_stripes`` stripes
        arrive through all-working ancestor chains.
        """
        if self.population == 0:
            return 1.0, 1.0
        working = rng.random(self.population) >= p
        received = np.zeros((self.population, self.d), dtype=bool)
        for s in range(self.d):
            # Evaluate in heap-position order so parents come first.
            layout = sorted(range(self.population), key=lambda v: self._position[s][v])
            for v in layout:
                parent = self.parent_in_tree(v, s)
                if parent == SERVER:
                    received[v, s] = True
                else:
                    received[v, s] = bool(working[parent]) and received[parent, s]
        working_ids = [v for v in range(self.population) if working[v]]
        if not working_ids:
            return 1.0, 1.0
        stripe_counts = received[working_ids].sum(axis=1)
        mean_fraction = float(stripe_counts.mean()) / self.d
        decode_fraction = float((stripe_counts >= self.required_stripes).mean())
        return mean_fraction, decode_fraction

    def max_depth(self) -> int:
        """Deepest node over all trees (the delay figure for E6)."""
        if self.population == 0:
            return 0
        return max(
            self.depth_in_tree(v, s)
            for v in range(self.population)
            for s in range(self.d)
        )
