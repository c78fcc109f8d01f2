"""Unified run reporting for the slotted data-plane runtime.

Every run (curtain RLNC, random-graph RLNC, store-and-forward flooding,
rarest-first) reports through one :class:`RunReport`: a list of
per-node :class:`NodeReport` rows plus link accounting, server load, and
an optional per-slot timeline.  The summary helpers (completion
percentiles, mean completion slot) live here once.

For the uncoded baselines the RLNC vocabulary maps directly: *rank* is
the number of distinct pieces buffered, *needed* is the piece count, and
*innovative* is the number of deliveries that added a new piece, so
:attr:`RunReport.mean_unique_fraction` and
:attr:`RunReport.duplicate_fraction` read the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..metrics import stats
from .links import LinkStats

__all__ = [
    "NodeReport",
    "RunReport",
    "SlotRecord",
    "completion_percentile",
    "mean_completion_slot",
]


def mean_completion_slot(completion_slots: Sequence[int]) -> float:
    """Mean slot at which finishing nodes completed (0.0 if none did)."""
    return stats.mean(completion_slots)


def completion_percentile(completion_slots: Sequence[int], q: float) -> float:
    """The ``q``-th percentile completion slot (0.0 if none finished)."""
    return stats.percentile(completion_slots, q)


@dataclass
class NodeReport:
    """Per-node outcome of a slotted run.

    Attributes:
        node_id: The peer.
        rank: Degrees of freedom collected (distinct pieces for the
            uncoded baselines).
        needed: Degrees of freedom required for full decode/collection.
        completed_at: Slot at which the node completed (None if never).
        received: Packets delivered to this node.
        innovative: Of those, rank-increasing (piece-adding) ones.
        decoded_ok: True if the node decoded *and* the content matched
            the original bytes (False under jamming pollution; None for
            incomplete nodes and for the uncoded baselines).
    """

    node_id: int
    rank: int
    needed: int
    completed_at: Optional[int]
    received: int
    innovative: int
    decoded_ok: Optional[bool]


@dataclass(frozen=True)
class SlotRecord:
    """One slot's delivery accounting (collected when timeline recording
    is enabled on the runtime)."""

    slot: int
    attempted: int
    delivered: int
    completions: int


@dataclass
class RunReport:
    """Aggregate outcome of a slotted run, shared by every simulator."""

    slots: int
    nodes: list[NodeReport]
    link_stats: LinkStats
    server_packets: int
    timeline: list[SlotRecord] = field(default_factory=list)

    @property
    def completion_fraction(self) -> float:
        """Fraction of measured nodes that fully completed."""
        if not self.nodes:
            return 0.0
        return sum(1 for n in self.nodes if n.completed_at is not None) / len(self.nodes)

    @property
    def mean_goodput(self) -> float:
        """Mean innovative packets per node per slot (units of bandwidth)."""
        if not self.nodes or self.slots == 0:
            return 0.0
        return float(np.mean([n.innovative for n in self.nodes])) / self.slots

    @property
    def poisoned_fraction(self) -> float:
        """Fraction of completed nodes whose decoded bytes were corrupt."""
        completed = [n for n in self.nodes if n.completed_at is not None]
        if not completed:
            return 0.0
        return sum(1 for n in completed if n.decoded_ok is False) / len(completed)

    @property
    def mean_unique_fraction(self) -> float:
        """Mean share of the needed DoF (distinct pieces) each node holds."""
        # A node that needs nothing is trivially complete: fraction 1.0,
        # not a ZeroDivisionError.
        return stats.mean(
            [n.rank / n.needed if n.needed else 1.0 for n in self.nodes]
        )

    @property
    def duplicate_fraction(self) -> float:
        """Share of deliveries that added nothing to their receiver."""
        received = sum(n.received for n in self.nodes)
        if not received:
            return 0.0
        duplicates = sum(max(0, n.received - n.innovative) for n in self.nodes)
        return duplicates / received

    def completion_slots(self) -> list[int]:
        """Completion times of the nodes that finished."""
        return [n.completed_at for n in self.nodes if n.completed_at is not None]

    def mean_completion_slot(self) -> float:
        """Mean completion slot over the nodes that finished."""
        return mean_completion_slot(self.completion_slots())

    def completion_percentile(self, q: float) -> float:
        """The ``q``-th percentile completion slot over finishers."""
        return completion_percentile(self.completion_slots(), q)
