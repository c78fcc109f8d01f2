"""Engine observer hooks, and recording and replaying engine traces.

All four engines (both here, both in :mod:`repro.dataplane`) subclass
:class:`TappedEngine`: each supplies ``_dispatch`` and shares one
``handle`` and one set of observer attributes.

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

__all__ = ["EngineLog", "TappedEngine", "replay"]


def _tap(name: str, doc: str) -> property:
    """An observer attribute whose assignment refreshes the engine's
    collapsed hook tuple."""
    slot = f"_{name}"

    def get(engine):
        return getattr(engine, slot)

    def assign(engine, value) -> None:
        setattr(engine, slot, value)
        engine._retap()

    return property(get, assign, doc=doc)


class TappedEngine:
    """The observer hooks every engine shares, and its traced entry
    point.

    A subclass supplies ``_dispatch(event) -> effects``.  The recording
    hooks are collapsed into one tuple, refreshed whenever an observer
    attribute is assigned, so the untapped hot path pays a single
    truthiness check per event.  The engines never import
    ``repro.obs``: ``obs`` is duck-typed (``record_step(event,
    effects)``, e.g. ``obs.DataplaneInstruments``), and the few facts
    that leave no effect to classify — a withheld fan-out slot, a
    suppressed complaint — are bumped on it by the engine itself.
    """

    __slots__ = ("_log", "_flight", "_obs", "_taps")

    def __init__(self) -> None:
        self._log = self._flight = self._obs = None
        self._taps: tuple = ()

    log = _tap("log", "Optional event/effect recorder "
               "(:class:`EngineLog`: conformance and replay).")
    flight = _tap("flight", "Optional bounded ring of recent steps "
                  "(duck-typed ``record``, e.g. ``obs.FlightRecorder``).")
    obs = _tap("obs", "Optional instrument bundle (duck-typed "
               "``record_step``).")

    def _retap(self) -> None:
        hooks = []
        if self._log is not None:
            hooks.append(self._log.record)
        if self._flight is not None:
            hooks.append(self._flight.record)
        if self._obs is not None:
            hooks.append(self._obs.record_step)
        self._taps = tuple(hooks)

    def handle(self, event) -> list:
        """Advance the state machine by one event."""
        effects = self._dispatch(event)
        taps = self._taps
        if taps:
            for record in taps:
                record(event, effects)
        return effects


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
