"""Simulation layer: loss models, slotted RLNC broadcast.

* :class:`SlottedRuntime` — the unified two-phase slotted kernel: one
  :class:`Topology` (who sends to whom) × one :class:`NodeBehavior`
  (what is sent, what receipt does) under shared loss/outage/link
  accounting.  Every experiment runs on it.
* :func:`rlnc` — a runtime for RLNC over the curtain overlay or the §6
  random graph; :func:`uncoded` — one for the flooding baselines.
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
from .links import LinkStats, LossModel, OutageModel
from .report import (
    NodeReport,
    RunReport,
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
    rlnc,
    uncoded,
)
from .streaming import PlaybackMonitor, PlaybackReport
from .rng import RngStreams
from .session import (
    SessionConfig,
    SessionResult,
    file_download,
    flash_crowd,
    live_streaming,
    run_session,
)

__all__ = [
    "CurtainTopology",
    "DEFAULT_MAX_SLOTS",
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
    "SlottedRuntime",
    "StaticTopology",
    "StoreForwardBehavior",
    "Topology",
    "completion_percentile",
    "file_download",
    "flash_crowd",
    "live_streaming",
    "mean_completion_slot",
    "rlnc",
    "run_session",
    "uncoded",
]
