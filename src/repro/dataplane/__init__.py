"""The sans-IO data-plane core shared by every transport incarnation.

:mod:`repro.protocol` unified the *control plane* — who joins, who
repairs, who complains.  This package is its data-plane sibling: the
receive → innovation gate → recode → fan-out → completion pipeline that
used to be written three separate times (the slotted simulator's
``RlncBehavior``, the live ``PeerNode``/``ServerNode`` pumps, and the
virtual-network chaos tier running the latter) now lives in two pure
state machines:

* :class:`SourceEngine` — the server side: generation scheduling
  (each child's lowest unfinished generation for clocked emission rounds,
  uniform draws for pull-mode drivers) and per-child emission over a
  :class:`~repro.coding.encoder.SourceEncoder`;
* :class:`RelayEngine` — the peer side: per-packet receive with
  innovation gating, rank/needed/completion bookkeeping, a per-child
  view of the generations each child still lacks, recode fan-out
  through the batched
  :meth:`~repro.coding.recoder.Recoder.emit_rows` path (on every
  arrival, or only rank-raising ones), and idle/keepalive emit
  decisions.

Engines consume :mod:`~repro.dataplane.events` and return
:mod:`~repro.dataplane.effects`; they never touch a socket, a clock, or
an event loop (``tools/check_layering.py`` holds this package to the
same contract as ``repro.protocol``).  Attach a
:class:`~repro.protocol.trace.EngineLog` (``engine.log = EngineLog()``)
to record the event/effect history — the cross-incarnation conformance
tests pin that the simulator and the virtual network produce identical
effect traces from the same delivery script.
"""

from ..protocol.trace import EngineLog, replay
from .effects import (
    Effect,
    EmitToChildren,
    GenerationComplete,
    Ingested,
    MarkComplete,
)
from .events import (
    ChildAttached,
    ChildCompleted,
    ChildDetached,
    EmitRound,
    Event,
    IdlePoll,
    PacketArrived,
    PullEmit,
)
from .relay_engine import RelayEngine
from .source_engine import SourceEngine

__all__ = [
    "ChildAttached",
    "ChildCompleted",
    "ChildDetached",
    "Effect",
    "EmitRound",
    "EmitToChildren",
    "EngineLog",
    "Event",
    "GenerationComplete",
    "IdlePoll",
    "Ingested",
    "MarkComplete",
    "PacketArrived",
    "PullEmit",
    "RelayEngine",
    "SourceEngine",
    "replay",
]
