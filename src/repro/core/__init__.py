"""The paper's primary contribution: overlay construction and maintenance.

Public surface:

* :class:`OverlayNetwork` — the facade most applications want.
* :class:`CoordinationServer` — the raw hello/good-bye/repair protocols.
* :class:`ThreadMatrix` — the matrix ``M`` (curtain-rod model).
* :class:`RandomGraphOverlay` — the §6 low-delay variant.
* :mod:`repro.core.membership` — the §4 arrival/churn processes.
* :class:`CongestionController` — §5 thread shedding.
* :mod:`repro.core.heterogeneous` — §5 mixed bandwidth classes.
"""

from .congestion import CongestionController, CongestionEvent
from .heterogeneous import (
    DEFAULT_CLASSES,
    BandwidthClass,
    class_connectivity_report,
    join_population,
)
from .keys import AppendKeys, UniformKeys
from .matrix import SERVER, Row, ThreadMatrix
from .membership import (
    ArrivalRecord,
    ChurnEpochStats,
    churn_epochs,
    sequential_arrivals,
)
from .node import NodeInfo, NodeStatus
from .overlay import OverlayNetwork
from .protocols import (
    Complaint,
    HelloGrant,
    MessageStats,
    Redirect,
    ThreadAssignment,
)
from .random_graph import RandomGraphOverlay
from .server import CoordinationServer
from .topology import OverlayGraph, build_overlay_graph

__all__ = [
    "SERVER",
    "DEFAULT_CLASSES",
    "AppendKeys",
    "ArrivalRecord",
    "BandwidthClass",
    "ChurnEpochStats",
    "Complaint",
    "CongestionController",
    "CongestionEvent",
    "CoordinationServer",
    "HelloGrant",
    "MessageStats",
    "NodeInfo",
    "NodeStatus",
    "OverlayGraph",
    "OverlayNetwork",
    "RandomGraphOverlay",
    "Redirect",
    "Row",
    "ThreadAssignment",
    "ThreadMatrix",
    "UniformKeys",
    "build_overlay_graph",
    "churn_epochs",
    "class_connectivity_report",
    "join_population",
    "sequential_arrivals",
]
