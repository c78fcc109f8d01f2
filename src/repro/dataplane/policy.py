"""Forwarding policies: when does a relay put a mixture on an edge?

PR 6 grew an ``"innovative"`` forwarding mode inside ``net/peer.py``
only — the live transport could bound its fan-out at rank × children
while the simulator stayed eager-only.  The policy objects here lift
that decision to the engine layer so every incarnation shares it.

A policy answers three questions, one per driver shape:

* :meth:`ForwardPolicy.forward_on` — push mode (arrival-triggered
  fan-out): should this arrival be recoded toward the children?
* :attr:`ForwardPolicy.wants_idle` — should the driver fill idle
  child links with data-bearing keep-alives
  (:class:`~repro.dataplane.effects.RequestIdle` /
  :class:`~repro.dataplane.events.IdlePoll`)?  Gated policies need
  this: a child left short by a dependent mixture would otherwise
  starve until the parent's next rank raise.
* :attr:`ForwardPolicy.pull_without_credit` — pull mode (clocked
  per-edge slots): may the engine emit on an edge with no new
  innovation since its last emission there?  The eager answer is yes
  (the paper's constant per-thread flow); the innovative answer is no,
  which translates arrival-gating into the slotted world as
  per-destination *innovation credit* (plus a ``seed_burst`` of
  unconditional packets per fresh edge).

Withholding is always safe for the *swarm*: a recoded packet lies in
the span of its sender's buffer, so peer-to-peer transfers never grow
the union span — swarm full-rank time depends only on server
emissions, which no relay policy touches (the hypothesis suite pins
this).
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "FORWARD_POLICIES",
    "EagerPolicy",
    "ForwardPolicy",
    "InnovativePolicy",
    "resolve_policy",
]


class ForwardPolicy:
    """Base interface; subclasses are stateless and shareable."""

    #: CLI / config spelling.
    name: str = "abstract"
    #: Ask the driver to fill idle child links with fresh mixtures.
    wants_idle: bool = False
    #: Pull-mode edges may emit without fresh innovation credit.
    pull_without_credit: bool = True

    def forward_on(self, innovative: bool) -> bool:
        """Push mode: fan this arrival out to the children?"""
        raise NotImplementedError

    def __repr__(self) -> str:  # noqa: D105
        return f"{type(self).__name__}()"


class EagerPolicy(ForwardPolicy):
    """Recode toward every child on every arrival — the paper's
    constant per-thread flow.  Fine on rate-limited real links;
    multiplies per hop on an infinitely fast virtual network."""

    name = "eager"
    wants_idle = False
    pull_without_credit = True

    def forward_on(self, innovative: bool) -> bool:
        return True


class InnovativePolicy(ForwardPolicy):
    """Fan out only on rank-raising arrivals, bounding total forwards
    per node at rank × children — what the swarm harness runs.
    Idle keep-alive packets cover the rare child left short by a
    dependent-mixture tail."""

    name = "innovative"
    wants_idle = True
    pull_without_credit = False

    def forward_on(self, innovative: bool) -> bool:
        return innovative


#: Accepted ``forward_policy`` spellings, in CLI display order.
FORWARD_POLICIES = ("eager", "innovative")

_BY_NAME = {
    EagerPolicy.name: EagerPolicy(),
    InnovativePolicy.name: InnovativePolicy(),
}


def resolve_policy(policy: Union[str, ForwardPolicy]) -> ForwardPolicy:
    """Map a config spelling (or a policy instance) to a policy object."""
    if isinstance(policy, ForwardPolicy):
        return policy
    resolved = _BY_NAME.get(policy)
    if resolved is None:
        raise ValueError(
            f"unknown forward_policy {policy!r} (expected one of "
            f"{', '.join(FORWARD_POLICIES)})"
        )
    return resolved
