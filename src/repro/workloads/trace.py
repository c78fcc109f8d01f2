"""Churn traces: record a membership history, save it, replay it.

A trace is an ordered list of membership events (join / leave / fail /
repair) with timestamps.  Traces make scenarios portable: record one
from any driver (the slotted churn, a hand-written schedule),
serialise it to JSON, and replay it bit-for-bit onto a fresh overlay —
including onto a *differently configured* overlay, which is how
like-for-like protocol comparisons are run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.overlay import OverlayNetwork

#: Recognised event kinds.
EVENT_KINDS = ("join", "leave", "fail", "repair")


@dataclass(frozen=True)
class TraceEvent:
    """One membership event.

    Attributes:
        time: Timestamp (any monotone clock; replay preserves order only).
        kind: One of ``join``, ``leave``, ``fail``, ``repair``.
        node_id: The affected node.  For joins this is the id the node
            received in the recorded run; replay maps it to the id the
            replaying overlay assigns (the mapping is returned).
        degree: Thread count for joins (0 = the overlay default).
    """

    time: float
    kind: str
    node_id: int
    degree: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass
class ChurnTrace:
    """An ordered churn history."""

    events: list[TraceEvent]

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Serialisation

    def to_json(self) -> str:
        """Serialise to a JSON document."""
        return json.dumps(
            {"version": 1, "events": [asdict(e) for e in self.events]},
            indent=None,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChurnTrace":
        """Parse a JSON document produced by :meth:`to_json`."""
        document = json.loads(text)
        if document.get("version") != 1:
            raise ValueError(f"unsupported trace version {document.get('version')}")
        events = [TraceEvent(**item) for item in document["events"]]
        return cls(events=events)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChurnTrace":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Event counts by kind."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            out[event.kind] += 1
        return out


class TraceRecorder:
    """Record membership events against a live overlay.

    Wrap the overlay's verbs with this recorder's; it forwards and logs.
    An event's time is its index in the history.
    """

    def __init__(self, net: OverlayNetwork) -> None:
        self.net = net
        self._events: list[TraceEvent] = []

    def _log(self, kind: str, node_id: int, degree: int = 0) -> None:
        self._events.append(TraceEvent(
            time=float(len(self._events)), kind=kind, node_id=node_id,
            degree=degree,
        ))

    def join(self, d: Optional[int] = None) -> int:
        grant = self.net.join(d)
        self._log("join", grant.node_id, d or 0)
        return grant.node_id

    def leave(self, node_id: int) -> None:
        self.net.leave(node_id)
        self._log("leave", node_id)

    def fail(self, node_id: int) -> None:
        self.net.fail(node_id)
        self._log("fail", node_id)

    def repair(self, node_id: int) -> None:
        self.net.repair(node_id)
        self._log("repair", node_id)

    def trace(self) -> ChurnTrace:
        """The history recorded so far."""
        return ChurnTrace(events=list(self._events))


def replay(trace: ChurnTrace, net: OverlayNetwork) -> dict[int, int]:
    """Apply a trace to a fresh overlay.

    Returns the id mapping ``recorded node id -> replayed node id``.
    Raises if the trace references a node before its join or after its
    departure (corrupted trace).
    """
    mapping: dict[int, int] = {}
    for event in trace.events:
        if event.kind == "join":
            grant = net.join(event.degree or None)
            mapping[event.node_id] = grant.node_id
        else:
            replayed = mapping.get(event.node_id)
            if replayed is None:
                raise ValueError(
                    f"trace references node {event.node_id} before its join"
                )
            if event.kind == "leave":
                net.leave(replayed)
            elif event.kind == "fail":
                net.fail(replayed)
            elif event.kind == "repair":
                net.repair(replayed)
    return mapping
