"""Instrument bundles: pre-bound counters/gauges for each layer.

The engines stay observability-agnostic: they expose an ``obs``
attribute (``None`` by default) and call ``obs.record_step(event,
effects)`` after each dispatch.  The classification — which effect
means a join, a repair, a probe — lives *here*, next to the protocol
vocabulary it reads, so ``repro.protocol`` never imports ``repro.obs``
and the layering contract holds in both directions (this module may
import the protocol vocabulary because the protocol core is itself
sans-IO).  A bundle is the one place an engine fact is counted: no
engine or driver keeps a copy.

Everything else in this module is snapshot-on-read binding: stats
dataclasses the transports already keep (``SenderStats``, per-node
``ServerStats``/``PeerStats``) become callback gauges that read the
live object only when an exporter scrapes.  The hot paths
keep bumping their plain dataclass fields; observability costs nothing
until somebody looks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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
    "bind_fields",
    "bind_sender_totals",
]


def bind_fields(
    registry: Registry,
    obj: object,
    fields: Iterable[str],
    prefix: str,
    help: str = "",
) -> None:
    """Expose ``obj.<field>`` for each field as a callback gauge.

    The one-liner that folds any stats dataclass into a registry:
    the object keeps being mutated by its owner; the gauge reads it
    at snapshot time.
    """
    for field in fields:
        registry.gauge(
            f"{prefix}.{field}", help,
            fn=lambda o=obj, f=field: getattr(o, f),
        )


def bind_sender_totals(
    registry: Registry,
    senders: Callable[[], Sequence],
) -> None:
    """Aggregate live ``SenderStats`` across a dynamic pump set.

    ``senders`` is a callable returning the *current* stats objects
    (pumps come and go with reconnects); each total is summed at
    snapshot time.
    """
    for field in (
        "enqueued", "dropped", "sent", "keepalives", "bytes_sent", "flushes",
    ):
        registry.gauge(
            f"net.sender.{field}", "summed across live outbound pumps",
            fn=lambda f=field: sum(getattr(s, f) for s in senders()),
        )


class ServerEngineInstruments:
    """Protocol-level counters for one :class:`ServerEngine`.

    ``attach`` hangs the bundle on the engine (``engine.obs = self``)
    and binds state-size gauges to the engine's own dicts/sets; the
    engine then calls :meth:`record_step` once per handled event.
    """

    __slots__ = (
        "events", "effects", "joins", "leaves", "repairs",
        "probes_sent", "episodes_opened",
        "congestion_drops", "congestion_restores",
    )

    def __init__(self, registry: Registry) -> None:
        counter = registry.counter
        self.events = counter("engine.events", "events handled")
        self.effects = counter("engine.effects", "effects emitted")
        self.joins = counter("engine.joins", "peers admitted")
        self.leaves = counter("engine.leaves", "graceful good-byes")
        self.repairs = counter("engine.repairs", "crash splices")
        self.probes_sent = counter("engine.probes_sent", "probes dispatched")
        self.episodes_opened = counter(
            "engine.episodes_opened", "failure episodes opened by a complaint",
        )
        self.congestion_drops = counter(
            "engine.congestion_drops", "§5 threads shed from congested nodes",
        )
        self.congestion_restores = counter(
            "engine.congestion_restores", "§5 threads handed back",
        )

    def attach(self, engine, registry: Registry) -> "ServerEngineInstruments":
        engine.obs = self
        registry.gauge(
            "engine.open_episodes", "complained, not yet repaired",
            fn=lambda: len(engine._open_episodes),
        )
        registry.gauge(
            "engine.pending_probes", "probes awaiting ack or timeout",
            fn=lambda: len(engine.pending_probes),
        )
        registry.gauge(
            "engine.departed", "peers ever spliced or left",
            fn=lambda: len(engine.departed),
        )
        registry.gauge(
            "engine.population", "peers currently registered",
            fn=lambda: len(engine.core.registry),
        )
        return self

    def record_step(self, event, effects) -> None:
        self.events.value += 1
        self.effects.value += len(effects)
        if effects and isinstance(event, MessageReceived):
            message = event.message
            if isinstance(message, CongestionDrop):
                self.congestion_drops.value += 1
            elif isinstance(message, CongestionRestore):
                self.congestion_restores.value += 1
        for effect in effects:
            if isinstance(effect, Admitted):
                self.joins.value += 1
            elif isinstance(effect, PeerDeparted):
                if effect.reason == "leave":
                    self.leaves.value += 1
                else:
                    self.repairs.value += 1
            elif isinstance(effect, ComplaintNoted):
                self.episodes_opened.value += 1
            elif isinstance(effect, Send) and isinstance(effect.message, Probe):
                self.probes_sent.value += 1


class DataplaneInstruments:
    """Data-plane counters for one :class:`~repro.dataplane.RelayEngine`
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
    """

    __slots__ = (
        "events", "effects", "packets_in", "innovative_in",
        "mixtures_out", "idle_fills", "completions",
        "withheld", "feedback_in",
    )

    def __init__(self, registry: Registry) -> None:
        counter = registry.counter
        self.events = counter("dataplane.events", "data-plane events handled")
        self.effects = counter("dataplane.effects", "data-plane effects emitted")
        self.packets_in = counter(
            "dataplane.packets_in", "packets through the receive gate",
        )
        self.innovative_in = counter(
            "dataplane.innovative_in", "rank-raising arrivals",
        )
        self.mixtures_out = counter(
            "dataplane.mixtures_out", "fresh mixtures emitted toward children",
        )
        self.idle_fills = counter(
            "dataplane.idle_fills", "data-bearing keep-alive substitutes",
        )
        self.completions = counter(
            "dataplane.completions", "full decodes marked",
        )
        self.withheld = counter(
            "dataplane.withheld",
            "fan-out slots skipped: the child lacks nothing this node holds",
        )
        self.feedback_in = counter(
            "dataplane.feedback_in", "completed-set updates applied",
        )

    def attach(self, engine, registry: Registry) -> "DataplaneInstruments":
        engine.obs = self
        # Info gauge: the name carries the value, the reading is always 1.
        registry.gauge(
            f"gf.backend.{GF_BACKEND}",
            "GF(2^8) kernel backend this process computes on",
        ).set(1)
        if hasattr(engine, "rank"):
            registry.gauge(
                "dataplane.rank", "degrees of freedom collected",
                fn=lambda: engine.rank,
            )
            registry.gauge(
                "dataplane.children", "children in the fan-out list",
                fn=lambda: len(engine.children),
            )
        else:
            registry.gauge(
                "dataplane.rounds", "emission rounds scheduled",
                fn=lambda: engine.rounds,
            )
        return self

    def record_step(self, event, effects) -> None:
        # Once per data-plane event: plain ``value`` bumps, and effects
        # classified by exact class (the vocabulary is closed).
        self.events.value += 1
        self.effects.value += len(effects)
        kind = event.__class__
        if kind is ChildCompleted or kind is ChildAttached:
            self.feedback_in.value += 1
        for effect in effects:
            cls = effect.__class__
            if cls is Ingested:
                self.packets_in.value += 1
                if effect.innovative:
                    self.innovative_in.value += 1
            elif cls is EmitToChildren:
                # One mixture per child, in either payload form.
                sent = self.idle_fills if kind is IdlePoll else self.mixtures_out
                sent.value += len(effect.children)
            elif cls is MarkComplete:
                self.completions.value += 1


class PeerEngineInstruments:
    """Protocol-level counters for one :class:`PeerEngine`.

    ``complaints_suppressed`` is special: the engine bumps it directly
    from the one-complaint-per-episode rule (the suppression leaves no
    effect to classify), every other counter derives from the
    event/effect stream in :meth:`record_step`.
    """

    __slots__ = (
        "events", "effects", "clips", "backoffs",
        "complaints_sent", "complaints_suppressed", "probe_acks",
    )

    def __init__(self, registry: Registry) -> None:
        counter = registry.counter
        self.events = counter("engine.events", "events handled")
        self.effects = counter("engine.effects", "effects emitted")
        self.clips = counter("engine.clips", "upstream (re)clips")
        self.backoffs = counter("engine.backoffs", "reconnect backoff steps")
        self.complaints_sent = counter(
            "engine.complaints_sent", "complaints dispatched to the server",
        )
        self.complaints_suppressed = counter(
            "engine.complaints_suppressed",
            "complaints withheld by the one-per-episode rule",
        )
        self.probe_acks = counter("engine.probe_acks", "probes answered")

    def attach(self, engine, registry: Registry) -> "PeerEngineInstruments":
        engine.obs = self
        registry.gauge(
            "engine.threads", "columns with a live parent",
            fn=lambda: len(engine.parents),
        )
        return self

    def record_step(self, event, effects) -> None:
        self.events.value += 1
        self.effects.value += len(effects)
        for effect in effects:
            if isinstance(effect, Clip):
                self.clips.value += 1
            elif isinstance(effect, Backoff):
                self.backoffs.value += 1
            elif isinstance(effect, Send):
                message = effect.message
                if isinstance(message, ComplaintMsg):
                    self.complaints_sent.value += 1
                elif isinstance(message, ProbeAck):
                    self.probe_acks.value += 1
