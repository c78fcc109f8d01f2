"""Recording and replaying engine traces.

Attach an :class:`EngineLog` to an engine (``engine.log = EngineLog()``)
and every ``handle`` call appends its ``(event, effects)`` step.  Two
properties make the logs useful:

* **conformance** — a protocol scenario pumped through the engines
  produces the same *effect trace* however the transport interleaves
  (the conformance goldens pin it for the virtual network);
* **determinism** — replaying a recorded event trace into a fresh,
  identically-seeded engine reproduces the effect trace exactly (the
  hypothesis suite fuzzes this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EngineLog", "replay"]


@dataclass
class EngineLog:
    """An append-only record of one engine's event/effect history."""

    #: every event handled, in order
    events: list = field(default_factory=list)
    #: one effects-tuple per event, aligned with :attr:`events`
    steps: list = field(default_factory=list)

    def record(self, event, effects) -> None:
        self.events.append(event)
        self.steps.append(tuple(effects))

    def effect_trace(self) -> tuple:
        """All effects emitted, flattened, in emission order.

        Zero-effect events vanish here, which is what makes the trace
        driver-independent: duplicate complaints, stale probe acks and
        spurious timer fires differ between transports but never
        produce effects.
        """
        return tuple(
            effect for effects in self.steps for effect in effects
        )

    def effect_reprs(self) -> list[str]:
        """The effect trace as stable strings (golden-file friendly)."""
        return [repr(effect) for effect in self.effect_trace()]


def replay(engine, events) -> tuple:
    """Feed ``events`` into ``engine`` and return its flat effect trace.

    The engine should be freshly constructed (and, for a
    :class:`~repro.protocol.server_engine.ServerEngine`, seeded
    identically to the recording run — matrix randomness flows from the
    core's generator).
    """
    trace = []
    for event in events:
        trace.extend(engine.handle(event))
    return tuple(trace)
