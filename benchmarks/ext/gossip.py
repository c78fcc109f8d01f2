"""Decentralised joins via gossip (§7, after [12]).

"In corresponding practical schemes, the role of the server can be
decreased still further or even eliminated."  This module implements
that variant: a joining node finds its ``d`` hanging threads *without*
asking the coordination authority to pick them — it random-walks the
overlay from a bootstrap peer, asking each visited node which of its
threads currently hang (a node knows this locally: a thread hangs iff it
streams to no child), and clips from what it saw.

The thread matrix remains the ground truth of who-clips-what (some
registry always exists, even if distributed); what changes is the
*selection distribution*: the walk's visit distribution is not uniform
over hanging threads, so the resulting overlay is a biased version of
§3's.  :func:`selection_bias` quantifies the bias and the X1 ablation
measures its (small) effect on connectivity — the paper's claim that
"the specifics of the protocol are less important than the topological
structure".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.matrix import SERVER
from repro.core.overlay import OverlayNetwork
from repro.core.protocols import HelloGrant


@dataclass
class GossipJoinStats:
    """Accounting for one gossip-driven join."""

    walk_length: int
    peers_probed: int
    threads_seen: int
    columns_chosen: tuple[int, ...] = ()


class GossipJoinProtocol:
    """Join by random-walk discovery instead of server selection.

    Args:
        net: The overlay being grown.
        walk_length: Steps of the discovery walk per join.
        rng: Randomness (defaults to the overlay's).

    The walk moves over working nodes following stream links, biased
    *downstream* (hanging threads live at the frontier — the most recent
    joiners — so following the direction the content flows finds them;
    an unbiased walk mixes over the whole history and can miss the
    frontier entirely).  Visiting the server exposes any unserved rod
    threads.  If the walk discovers fewer than ``d`` distinct hanging
    threads it is extended until enough are found (bounded by
    ``max_extensions``).
    """

    def __init__(
        self,
        net: OverlayNetwork,
        walk_length: int = 8,
        rng: np.random.Generator | None = None,
        max_extensions: int = 20,
        downstream_bias: float = 0.85,
        oversample: float = 1.0,
        choose: str = "first",
    ) -> None:
        if walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if not 0.0 <= downstream_bias <= 1.0:
            raise ValueError("downstream_bias must be a probability")
        if oversample < 1.0:
            raise ValueError("oversample must be >= 1")
        if choose not in ("first", "random"):
            raise ValueError("choose must be 'first' or 'random'")
        self.net = net
        self.walk_length = walk_length
        self.rng = rng or net.rng
        self.max_extensions = max_extensions
        self.downstream_bias = downstream_bias
        #: Keep walking until ``oversample * d`` distinct threads are known.
        #: Oversampling plus ``choose="random"`` de-biases selection: the
        #: X1 ablation shows greedy first-seen clipping builds deep narrow
        #: braids that forfeit the paper's robustness guarantees — the
        #: *uniformity* of thread selection is load-bearing, exactly the
        #: paper's point that the topological structure is what matters.
        self.oversample = oversample
        self.choose = choose
        self.history: list[GossipJoinStats] = []

    # ------------------------------------------------------------------

    def _neighbours(self, node: int, downstream_only: bool = False) -> list[int]:
        """Working neighbours of ``node`` (SERVER included as a parent).

        ``downstream_only`` restricts to children — the stream direction.
        """
        matrix = self.net.matrix
        failed = self.net.server.failed
        if node == SERVER:
            # the server knows its direct children: first occupants
            firsts = {
                chain[0]
                for chain in (matrix.column_chain(c) for c in range(matrix.k))
                if chain
            }
            return [n for n in firsts if n not in failed]
        linked = set()
        for child in matrix.children_of(node).values():
            if child is not None:
                linked.add(child)
        if not downstream_only or not linked:
            for parent in matrix.parents_of(node).values():
                linked.add(parent)
        return [
            n for n in linked
            if n == SERVER or n not in failed
        ]

    def _hanging_threads_of(self, node: int) -> list[int]:
        """Columns whose hanging thread ``node`` owns (local knowledge)."""
        matrix = self.net.matrix
        if node == SERVER:
            return [c for c in range(matrix.k) if not matrix.column_chain(c)]
        return [
            column
            for column, child in matrix.children_of(node).items()
            if child is None
        ]

    def discover(self, d: int) -> tuple[list[int], GossipJoinStats]:
        working = self.net.working_nodes
        current = SERVER if not working else int(
            working[int(self.rng.integers(0, len(working)))]
        )
        seen_columns: list[int] = []
        seen_set: set[int] = set()
        probed = 0
        steps = 0
        # The hanging frontier sits ~N·d/k hops below a random start, so
        # the extension budget must scale with the population (a node
        # does not know N, but it does know to keep walking until it
        # finds open slots — this is the cap on that persistence).
        budget = (
            self.walk_length * (1 + self.max_extensions)
            + 2 * max(1, self.net.population)
        )
        while steps < budget:
            for column in self._hanging_threads_of(current):
                if column not in seen_set:
                    seen_set.add(column)
                    seen_columns.append(column)
            probed += 1
            if len(seen_set) >= d and steps >= self.walk_length:
                break
            downstream = bool(self.rng.random() < self.downstream_bias)
            neighbours = self._neighbours(current, downstream_only=downstream)
            if not neighbours:
                neighbours = self._neighbours(current)
            if not neighbours:
                break
            current = neighbours[int(self.rng.integers(0, len(neighbours)))]
            steps += 1
        if len(seen_set) < d:
            raise RuntimeError(
                f"gossip walk found only {len(seen_set)} hanging threads "
                f"(need {d}) within budget"
            )
        stats = GossipJoinStats(
            walk_length=steps, peers_probed=probed, threads_seen=len(seen_set)
        )
        return seen_columns, stats

    def join(self, d: int | None = None) -> HelloGrant:
        """One decentralised join; returns the grant as usual."""
        degree = d if d is not None else self.net.d
        target = min(self.net.k,
                     max(degree, int(round(self.oversample * degree))))
        try:
            discovered, stats = self.discover(target)
        except RuntimeError:
            # oversampling may exceed what the walk can find; settle for
            # the minimum the join actually needs
            discovered, stats = self.discover(degree)
        if self.choose == "first":
            # clip the FIRST d distinct threads the walk saw (locality
            # bias — the greedy variant of this ablation)
            columns = discovered[:degree]
        else:
            picks = self.rng.choice(len(discovered), size=degree, replace=False)
            columns = [discovered[int(i)] for i in picks]
        grant = self.net.join(d=degree, columns=columns)
        stats.columns_chosen = tuple(columns)
        self.history.append(stats)
        return grant

    def grow(self, count: int) -> list[int]:
        """Admit ``count`` nodes via gossip joins."""
        return [self.join().node_id for _ in range(count)]


def selection_bias(history: list[GossipJoinStats], k: int) -> float:
    """Total-variation distance of chosen columns from uniform.

    0 means the gossip walk picked columns exactly uniformly (like §3's
    server); 1 means maximal bias.
    """
    counts = Counter()
    total = 0
    for stats in history:
        for column in stats.columns_chosen:
            counts[column] += 1
            total += 1
    if total == 0:
        return 0.0
    uniform = 1.0 / k
    return 0.5 * sum(
        abs(counts.get(column, 0) / total - uniform) for column in range(k)
    )
