"""Failure models: who fails, when (§4 iid, §5 adversarial).

A failure model selects, for one repair interval, the set of nodes that
fail non-ergodically.  The paper analyses iid failures and then argues
(§5) that a *coordinated* adversary — a p-fraction of nodes failing
simultaneously — is no more harmful, provided row insertion is random.
The adversarial models here reproduce both the benign case (adversaries
arrive at random times) and the attack the randomisation defends against
(adversaries who joined consecutively and fail together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..core.overlay import OverlayNetwork


class FailureModel(Protocol):
    """Strategy choosing which working nodes fail this interval."""

    def select(self, net: OverlayNetwork, rng: np.random.Generator) -> list[int]:
        """Return the node ids that fail (subset of working nodes)."""
        ...


@dataclass(frozen=True)
class IIDFailures:
    """§4: every working node fails independently with probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")

    def select(self, net: OverlayNetwork, rng: np.random.Generator) -> list[int]:
        working = net.working_nodes
        if not working:
            return []
        coins = rng.random(len(working)) < self.p
        return [node for node, failed in zip(working, coins) if failed]


@dataclass(frozen=True)
class RandomBatchFailures:
    """§5 benign adversary: a uniformly random ``fraction`` fails at once.

    "The set of adversaries is a uniformly chosen random subset of users"
    — what an attacker achieves when it cannot control arrival times (or
    when the server randomises row insertion).
    """

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    def select(self, net: OverlayNetwork, rng: np.random.Generator) -> list[int]:
        working = net.working_nodes
        count = int(round(self.fraction * len(working)))
        if count == 0:
            return []
        picks = rng.choice(len(working), size=count, replace=False)
        return [working[int(i)] for i in picks]


@dataclass(frozen=True)
class CohortBatchFailures:
    """§5 coordinated adversary: a *consecutive-arrival* cohort fails.

    Adversaries who joined back-to-back are logically adjacent in an
    append-ordered matrix (they form long sub-chains of the same columns),
    so their simultaneous failure cuts deep.  Random row insertion
    destroys this adjacency; comparing this model under the two insert
    modes is experiment E5.
    """

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    def select(self, net: OverlayNetwork, rng: np.random.Generator) -> list[int]:
        # Cohort = a contiguous run in *join order* (node ids are assigned
        # sequentially by the server), i.e. the adversaries arrived
        # together in time regardless of where rows were inserted.
        working = sorted(net.working_nodes)
        count = int(round(self.fraction * len(working)))
        if count == 0:
            return []
        if count >= len(working):
            return list(working)
        start = int(rng.integers(0, len(working) - count + 1))
        return working[start : start + count]


def apply_failures(
    net: OverlayNetwork,
    model: FailureModel,
    rng: np.random.Generator,
) -> list[int]:
    """Select and inject one interval's failures; returns the victims."""
    victims = model.select(net, rng)
    for node_id in victims:
        net.fail(node_id)
    return victims
