"""Instrument bundles: each layer's counts as plain ints.

The engines stay observability-agnostic: they expose an ``obs``
attribute (``None`` by default) and call ``obs.record_step(event,
effects)`` after each dispatch.  The classification — which effect
means a join, a repair, a probe — lives *here*, next to the protocol
vocabulary it reads, so ``repro.protocol`` never imports ``repro.obs``
and the layering contract holds in both directions (this module may
import the protocol vocabulary because the protocol core is itself
sans-IO).  A bundle is the one place an engine fact is counted: no
engine or driver keeps a copy.

A bundle's counts are its slots, plain ``int`` attributes bumped in
place (``self.events += 1``); each is snapshotted as the counter
``<prefix><slot>``.  The bundle is also its engine's owner on the
node's :class:`~repro.obs.registry.Registry`: at snapshot time, and
only then, it reads the engine's state sizes into the gauges.
Observability costs nothing until somebody looks.
"""

from __future__ import annotations

from ..dataplane.effects import (
    EmitToChildren,
    Ingested,
    MarkComplete,
)
from ..dataplane.events import ChildAttached, ChildCompleted, IdlePoll
from ..gf.kernels import BACKEND as GF_BACKEND
from ..protocol.effects import (
    Admitted,
    Backoff,
    Clip,
    ComplaintNoted,
    PeerDeparted,
    Send,
)
from ..protocol.events import MessageReceived
from ..protocol.messages import (
    ComplaintMsg,
    CongestionDrop,
    CongestionRestore,
    Probe,
    ProbeAck,
)
from .registry import Registry

__all__ = [
    "DataplaneInstruments",
    "PeerEngineInstruments",
    "ServerEngineInstruments",
]


class _Bundle:
    """Zeroed counts for one engine, hung on it (``engine.obs``) and
    on ``registry`` as the owner of the engine's names.

    A subclass's ``__slots__`` are its counts (this base's ``_engine``
    is not one), and :meth:`snapshot_into` writes each as a counter;
    a subclass adds the engine's gauges.
    """

    __slots__ = ("_engine",)

    #: Every counter name is this plus the slot's name.
    prefix = "engine."

    def __init__(self, engine, registry: Registry) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self._engine = engine
        engine.obs = self
        registry.owners.append(self)

    def snapshot_into(self, counters: dict, gauges: dict,
                      histograms: dict) -> None:
        prefix = self.prefix
        for name in self.__slots__:
            counters[prefix + name] = getattr(self, name)


class ServerEngineInstruments(_Bundle):
    """Protocol-level counts for one :class:`ServerEngine`, plus its
    state sizes as gauges; the engine calls :meth:`record_step` once
    per handled event."""

    __slots__ = (
        "events", "effects", "joins", "leaves", "repairs",
        "probes_sent", "episodes_opened",
        "congestion_drops", "congestion_restores",
    )

    def snapshot_into(self, counters: dict, gauges: dict,
                      histograms: dict) -> None:
        super().snapshot_into(counters, gauges, histograms)
        engine = self._engine
        gauges["engine.open_episodes"] = len(engine._open_episodes)
        gauges["engine.pending_probes"] = len(engine.pending_probes)
        gauges["engine.departed"] = len(engine.departed)
        gauges["engine.population"] = len(engine.core.registry)

    def record_step(self, event, effects) -> None:
        self.events += 1
        self.effects += len(effects)
        if effects and isinstance(event, MessageReceived):
            message = event.message
            if isinstance(message, CongestionDrop):
                self.congestion_drops += 1
            elif isinstance(message, CongestionRestore):
                self.congestion_restores += 1
        for effect in effects:
            if isinstance(effect, Admitted):
                self.joins += 1
            elif isinstance(effect, PeerDeparted):
                if effect.reason == "leave":
                    self.leaves += 1
                else:
                    self.repairs += 1
            elif isinstance(effect, ComplaintNoted):
                self.episodes_opened += 1
            elif isinstance(effect, Send) and isinstance(effect.message, Probe):
                self.probes_sent += 1


class DataplaneInstruments(_Bundle):
    """Data-plane counts for one :class:`~repro.dataplane.RelayEngine`
    or :class:`~repro.dataplane.SourceEngine`.

    Arrivals, innovation and emissions are classified here, once, off
    the engine's event/effect stream: ``Ingested`` effects
    are arrivals through the receive gate, ``EmitToChildren`` carries
    one mixture per child (idle fills — emissions answering an ``IdlePoll``
    — are classified separately), ``MarkComplete`` is the decode, and a
    ``ChildCompleted`` or ``ChildAttached`` (the set a child dialed in
    with) is one completed-set update applied.  ``withheld`` is the odd one:
    a fan-out slot the engine skips because the child lacks nothing
    this node holds leaves no effect, so the engine bumps it directly.
    The gauges are the GF backend's info gauge (named after the
    backend, always 1) and a relay's rank and fan-out or the source's
    emission rounds.
    """

    __slots__ = (
        "events", "effects", "packets_in", "innovative_in",
        "mixtures_out", "idle_fills", "completions",
        "withheld", "feedback_in",
    )

    prefix = "dataplane."

    def snapshot_into(self, counters: dict, gauges: dict,
                      histograms: dict) -> None:
        super().snapshot_into(counters, gauges, histograms)
        engine = self._engine
        gauges[f"gf.backend.{GF_BACKEND}"] = 1
        if hasattr(engine, "rank"):
            gauges["dataplane.rank"] = engine.rank
            gauges["dataplane.children"] = len(engine.children)
        else:
            gauges["dataplane.rounds"] = engine.rounds

    def record_step(self, event, effects) -> None:
        # Once per data-plane event: plain int bumps, and effects
        # classified by exact class (the vocabulary is closed).
        self.events += 1
        self.effects += len(effects)
        kind = event.__class__
        if kind is ChildCompleted or kind is ChildAttached:
            self.feedback_in += 1
        for effect in effects:
            cls = effect.__class__
            if cls is Ingested:
                self.packets_in += 1
                if effect.innovative:
                    self.innovative_in += 1
            elif cls is EmitToChildren:
                # One mixture per child, in either payload form.
                if kind is IdlePoll:
                    self.idle_fills += len(effect.children)
                else:
                    self.mixtures_out += len(effect.children)
            elif cls is MarkComplete:
                self.completions += 1


class PeerEngineInstruments(_Bundle):
    """Protocol-level counts for one :class:`PeerEngine`, plus its
    live thread count as a gauge.

    ``complaints_suppressed`` is special: the engine bumps it directly
    from the one-complaint-per-episode rule (the suppression leaves no
    effect to classify), every other count derives from the
    event/effect stream in :meth:`record_step`.
    """

    __slots__ = (
        "events", "effects", "clips", "backoffs",
        "complaints_sent", "complaints_suppressed", "probe_acks",
    )

    def snapshot_into(self, counters: dict, gauges: dict,
                      histograms: dict) -> None:
        super().snapshot_into(counters, gauges, histograms)
        gauges["engine.threads"] = len(self._engine.parents)

    def record_step(self, event, effects) -> None:
        self.events += 1
        self.effects += len(effects)
        for effect in effects:
            if isinstance(effect, Clip):
                self.clips += 1
            elif isinstance(effect, Backoff):
                self.backoffs += 1
            elif isinstance(effect, Send):
                message = effect.message
                if isinstance(message, ComplaintMsg):
                    self.complaints_sent += 1
                elif isinstance(message, ProbeAck):
                    self.probe_acks += 1
