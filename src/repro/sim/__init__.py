"""Simulation layer: loss models, slotted RLNC broadcast.

* :class:`SlottedRuntime` — the unified two-phase slotted kernel: one
  :class:`Topology` (who sends to whom) × one :class:`NodeBehavior`
  (what is sent, what receipt does) under shared loss/outage/link
  accounting.  Every simulator below runs on it.
* :class:`BroadcastSimulation` — RLNC over the curtain overlay.
* :class:`GraphBroadcastSimulation` — RLNC over the §6 random graph.
* :func:`run_session` — one-call scenario orchestration (churn, repair,
  and attack schedules as runtime slot hooks); :func:`live_streaming`,
  :func:`file_download` and :func:`flash_crowd` are its named presets.
"""

from .behaviors import (
    NodeRole,
    RarestFirstBehavior,
    RlncBehavior,
    StoreForwardBehavior,
)
from .broadcast import BroadcastSimulation
from .graph_broadcast import GraphBroadcastSimulation
from .links import LinkStats, LossModel, OutageModel
from .report import (
    BroadcastReport,
    FloodingReport,
    NodeReport,
    RunReport,
    SlotRecord,
    completion_percentile,
    mean_completion_slot,
)
from .runtime import (
    DEFAULT_MAX_SLOTS,
    CurtainTopology,
    GraphTopology,
    NodeBehavior,
    SlottedRuntime,
    StaticTopology,
    Topology,
)
from .streaming import PlaybackMonitor, PlaybackReport
from .rng import RngStreams, make_rng
from .session import (
    SessionConfig,
    SessionResult,
    file_download,
    flash_crowd,
    live_streaming,
    run_session,
)

__all__ = [
    "BroadcastReport",
    "BroadcastSimulation",
    "CurtainTopology",
    "DEFAULT_MAX_SLOTS",
    "FloodingReport",
    "GraphBroadcastSimulation",
    "GraphTopology",
    "LinkStats",
    "LossModel",
    "NodeBehavior",
    "NodeReport",
    "NodeRole",
    "OutageModel",
    "PlaybackMonitor",
    "PlaybackReport",
    "RarestFirstBehavior",
    "RlncBehavior",
    "RngStreams",
    "RunReport",
    "SessionConfig",
    "SessionResult",
    "SlotRecord",
    "SlottedRuntime",
    "StaticTopology",
    "StoreForwardBehavior",
    "Topology",
    "completion_percentile",
    "file_download",
    "flash_crowd",
    "live_streaming",
    "make_rng",
    "mean_completion_slot",
    "run_session",
]
