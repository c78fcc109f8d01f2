"""Metrics: summary statistics and table rendering for the bench harness."""

from . import stats
from .report import format_cell, render_table, sparkline

__all__ = [
    "stats",
    "format_cell",
    "render_table",
    "sparkline",
]
