"""§7 attack scenarios and a naive detector.

Three attacks the paper discusses:

* *failure attack* — join, then go dark.  Equivalent to batch failures
  (see :mod:`repro.failures.models`); the system is robust to it.
* *entropy destruction attack* — forward only trivial combinations.
  Slow poison: the subtree's innovation rate drops, but every packet is a
  valid combination, so it is "more difficult to detect" than failing.
* *jamming attack* — inject random garbage claiming to be combinations.
  After mixing, the garbage contaminates almost every packet downstream.

Role assignment feeds the ``roles=`` of :func:`repro.sim.rlnc`; the
detector reads its :class:`~repro.sim.RunReport` and quantifies the
paper's detectability claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.behaviors import NodeRole
from ..sim.report import RunReport


def assign_attack_roles(
    node_ids: list[int],
    fraction: float,
    role: NodeRole,
    rng: np.random.Generator,
) -> dict[int, NodeRole]:
    """Mark a random ``fraction`` of the given nodes with ``role``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if role is NodeRole.HONEST:
        raise ValueError("assign an attack role, not HONEST")
    count = int(round(fraction * len(node_ids)))
    if count == 0:
        return {}
    picks = rng.choice(len(node_ids), size=count, replace=False)
    return {node_ids[int(i)]: role for i in picks}


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of the naive innovation-rate detector.

    Attributes:
        flagged: Node ids whose receivers would raise an alarm (their
            incoming innovation efficiency fell below the threshold).
        true_positives: Flagged nodes that are actually attackers'
            children (the best a local detector can localise).
        threshold: Efficiency threshold used.
    """

    flagged: list[int]
    true_positives: int
    threshold: float


def detect_low_innovation(
    report: RunReport,
    roles: dict[int, NodeRole],
    attacker_children: set[int],
    threshold: float = 0.5,
) -> DetectionOutcome:
    """Flag honest nodes whose innovation efficiency is suspiciously low.

    A node that mostly receives non-innovative packets is likely fed by
    an entropy attacker.  Failure attacks, by contrast, are *immediately*
    visible (dead threads trigger complaints) — the asymmetry the paper
    points out.
    """
    flagged = []
    for node in report.nodes:
        if roles.get(node.node_id, NodeRole.HONEST) is not NodeRole.HONEST:
            continue
        if node.received == 0:
            continue
        efficiency = node.innovative / node.received
        if efficiency < threshold:
            flagged.append(node.node_id)
    true_positives = sum(1 for n in flagged if n in attacker_children)
    return DetectionOutcome(
        flagged=flagged, true_positives=true_positives, threshold=threshold
    )
