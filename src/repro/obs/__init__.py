"""``repro.obs``: dependency-free runtime observability.

Four small pieces, layered like the rest of the repo:

* :mod:`~repro.obs.registry` — sans-IO counters/gauges/histograms in a
  named :class:`Registry`; hot-path increments are one attribute bump.
* :mod:`~repro.obs.flight` — a bounded ring of recent engine steps
  (same vocabulary as ``protocol.trace``) for post-mortems.
* :mod:`~repro.obs.instruments` — pre-bound instrument bundles the
  engines drive through a duck-typed ``obs`` attribute, plus binders
  that fold existing stats dataclasses into snapshot-on-read gauges.
* :mod:`~repro.obs.export` / :mod:`~repro.obs.http` — the versioned
  JSON snapshot, Prometheus text rendering, and the asyncio scrape
  endpoint (``http`` is the only module here allowed to touch asyncio;
  ``tools/check_layering.py`` enforces the rest stays sans-IO).
"""

from .export import (
    SCHEMA,
    prometheus_text,
    snapshot_obj,
    validate_snapshot,
)
from .flight import FlightRecorder, format_dump
from .instruments import (
    DataplaneInstruments,
    PeerEngineInstruments,
    ServerEngineInstruments,
    bind_fields,
    bind_sender_totals,
)
from .registry import (
    POW2_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    pow2_bounds,
)

__all__ = [
    "Counter",
    "DataplaneInstruments",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "POW2_LATENCY_BOUNDS",
    "PeerEngineInstruments",
    "Registry",
    "SCHEMA",
    "ServerEngineInstruments",
    "bind_fields",
    "bind_sender_totals",
    "format_dump",
    "pow2_bounds",
    "prometheus_text",
    "snapshot_obj",
    "validate_snapshot",
]
