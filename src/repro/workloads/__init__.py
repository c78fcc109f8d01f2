"""Workload generation: arrival schedules and recorded churn traces."""

from .generator import (
    diurnal_schedule,
    flash_crowd_schedule,
    steady_schedule,
    total_joins,
)
from .trace import ChurnTrace, TraceEvent, TraceRecorder, replay

__all__ = [
    "ChurnTrace",
    "TraceEvent",
    "TraceRecorder",
    "replay",
    "diurnal_schedule",
    "flash_crowd_schedule",
    "steady_schedule",
    "total_joins",
]
