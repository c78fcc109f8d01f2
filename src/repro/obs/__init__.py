"""``repro.obs``: dependency-free runtime observability.

Four small pieces, layered like the rest of the repo:

* :mod:`~repro.obs.registry` — a named :class:`Registry`: the list of
  objects that already count (plain ``int`` attributes, bumped in
  place), each writing its values into the snapshot when one is read;
  plus the fixed-bucket :class:`Histogram`.
* :mod:`~repro.obs.flight` — a bounded ring of recent engine steps
  (same vocabulary as ``protocol.trace``) for post-mortems.
* :mod:`~repro.obs.instruments` — the instrument bundles the engines
  drive through a duck-typed ``obs`` attribute: each engine's counts,
  and its registry owner.
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
)
from .registry import Histogram, Registry

__all__ = [
    "DataplaneInstruments",
    "FlightRecorder",
    "Histogram",
    "PeerEngineInstruments",
    "Registry",
    "SCHEMA",
    "ServerEngineInstruments",
    "format_dump",
    "prometheus_text",
    "snapshot_obj",
    "validate_snapshot",
]
