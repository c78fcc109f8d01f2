"""Link models: per-delivery loss (ergodic failures) on thread segments.

The paper folds packet loss and momentary congestion into *ergodic
failures*.  At the data plane that is simply: each packet handed to a
thread segment is delivered with probability ``1 − loss_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LossModel:
    """Bernoulli per-packet loss.

    Attributes:
        loss_rate: Probability an individual delivery is dropped.
    """

    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")

    def delivers(self, rng: np.random.Generator) -> bool:
        """Sample one delivery attempt."""
        if self.loss_rate == 0.0:
            return True
        return bool(rng.random() >= self.loss_rate)

    def delivers_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample ``count`` delivery attempts with one vectorised draw.

        Stream-compatible with ``count`` sequential :meth:`delivers` calls
        on the same generator: ``Generator.random(n)`` consumes the exact
        same variates as ``n`` scalar ``random()`` calls, and a zero loss
        rate draws nothing in either form — so seeded runs are bit-for-bit
        identical whichever API the simulator uses.
        """
        if self.loss_rate == 0.0:
            return np.ones(count, dtype=bool)
        return rng.random(count) >= self.loss_rate


@dataclass
class OutageModel:
    """§2 ergodic failures: temporary, unannounced node outages.

    Distinct from non-ergodic failures: an outaged node is silent for a
    while (congestion, a competing process) and then *resumes by itself*
    — no complaint, no repair, its row never moves.  Per slot, a healthy
    node enters outage with probability ``onset``; an outage ends each
    slot with probability ``recovery`` (geometric duration with mean
    ``1/recovery`` slots).

    Attributes:
        onset: Per-slot probability a healthy node goes dark.
        recovery: Per-slot probability an outaged node comes back.
    """

    onset: float = 0.0
    recovery: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.onset < 1.0:
            raise ValueError("onset must be in [0, 1)")
        if not 0.0 < self.recovery <= 1.0:
            raise ValueError("recovery must be in (0, 1]")

    @property
    def stationary_outage_fraction(self) -> float:
        """Long-run fraction of time a node spends outaged."""
        if self.onset == 0.0:
            return 0.0
        return self.onset / (self.onset + self.recovery)

    def advance(self, outaged: set[int], population, rng: np.random.Generator) -> None:
        """Advance the outage state one slot, in place.

        Draws are batched (one vectorised ``random(n)`` per phase) but
        stream-compatible with the historical per-node scalar loop: the
        same nodes are visited in the same order and consume the same
        variates, so seeded runs are unchanged.
        """
        if self.onset == 0.0 and not outaged:
            return
        recovering = list(outaged)
        if recovering:
            recovered = np.asarray(rng.random(len(recovering)) < self.recovery)
            outaged.difference_update(
                node for node, done in zip(recovering, recovered) if done
            )
        if self.onset:
            candidates = [node for node in population if node not in outaged]
            if candidates:
                onsets = np.asarray(rng.random(len(candidates)) < self.onset)
                outaged.update(
                    node for node, hit in zip(candidates, onsets) if hit
                )


@dataclass
class LinkStats:
    """Delivery accounting for a simulation run."""

    attempted: int = 0
    delivered: int = 0

    def record(self, delivered: bool) -> None:
        self.attempted += 1
        if delivered:
            self.delivered += 1

    def record_batch(self, attempted: int, delivered: int) -> None:
        """Account a whole slot's deliveries in one call."""
        self.attempted += attempted
        self.delivered += delivered

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.attempted if self.attempted else 1.0
