"""Workload generation: arrival schedules and recorded churn traces."""

from .generator import flash_crowd_schedule, steady_schedule
from .trace import ChurnTrace, TraceEvent, TraceRecorder, replay

__all__ = [
    "ChurnTrace",
    "TraceEvent",
    "TraceRecorder",
    "replay",
    "flash_crowd_schedule",
    "steady_schedule",
]
