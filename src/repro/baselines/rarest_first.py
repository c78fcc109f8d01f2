"""Baseline 6 — rarest-first piece forwarding (BitTorrent's heuristic [7]).

Uncoded store-and-forward with the scheduling fix BitTorrent deploys:
instead of forwarding a uniformly random buffered piece, a node forwards
the piece it estimates to be *rarest*.  Estimation is local (real swarms
gossip bitfields): each node scores every piece by how often it has
seen it arrive **plus how often it has already forwarded it** and sends
the lowest-scoring buffered piece, ties broken randomly.  Counting own
transmissions is essential — score receipts alone and a node fixates on
its newest piece, re-sending it slot after slot (measurably *worse*
than random forwarding).

Rarest-first flattens the piece distribution and closes much of the
coupon-collector gap to RLNC — but not all of it, and only via a
heuristic whose accuracy decays with distance, whereas a random linear
mixture is *always* (w.h.p.) useful without any estimation at all.
That comparison is the practical content of the paper's coding argument.

Since the runtime unification the piece-selection policy lives in
:class:`~repro.sim.behaviors.RarestFirstBehavior`; the slot loop is the
shared :class:`~repro.sim.runtime.SlottedRuntime`.
"""

from __future__ import annotations

import numpy as np

from ..sim.behaviors import RarestFirstBehavior
from .store_forward import FloodingSimulation

__all__ = ["RarestFirstSimulation"]


class RarestFirstSimulation(FloodingSimulation):
    """Uncoded forwarding with local rarest-first piece selection.

    Same slot discipline and reporting as
    :class:`~repro.baselines.store_forward.FloodingSimulation`; only the
    node behaviour differs.
    """

    behavior_class = RarestFirstBehavior

    @property
    def _seen_counts(self) -> dict[int, np.ndarray]:
        return self.behavior._seen_counts

    def _pick_piece(self, node_id: int, rng: np.random.Generator) -> int:
        return self.behavior._pick_piece(node_id, rng)
