"""§5 congestion handling: shed threads under pressure, re-add when calm.

The paper: "Suppose a node becomes congested on either its incoming or
outgoing links and would like to reduce its load.  The node picks a child
and a parent and joins them directly. [...] When the node sees that its
congestion is gone for a sufficient length of time, it tries to increase
its rate of obtaining data."

:class:`CongestionController` implements that policy as a small state
machine per node, driven by periodic congestion observations (which the
simulator or an application supplies — e.g. packet-loss measurements per
[11]).
"""

from __future__ import annotations

from dataclasses import dataclass

from .server import CoordinationServer

#: Congested observations in a row before a thread is shed.
DROP_AFTER = 2
#: A node never sheds below this many threads.
MIN_DEGREE = 1


@dataclass
class _NodeCongestionState:
    congested_streak: int = 0
    calm_streak: int = 0
    shed_count: int = 0


@dataclass
class CongestionEvent:
    """One thread change made by the controller."""

    node_id: int
    action: str  # "drop" or "restore"
    column: int


class CongestionController:
    """Hysteresis policy: drop a thread after :data:`DROP_AFTER`
    consecutive congested observations (never below :data:`MIN_DEGREE`
    threads); restore one after ``restore_after`` calm ones.

    Args:
        server: The coordination server to negotiate with.
        restore_after: Calm observations required before re-adding.
    """

    def __init__(
        self,
        server: CoordinationServer,
        restore_after: int = 4,
    ) -> None:
        if restore_after < 1:
            raise ValueError("thresholds must be >= 1")
        self.server = server
        self.restore_after = restore_after
        self._state: dict[int, _NodeCongestionState] = {}
        self.events: list[CongestionEvent] = []

    def observe(self, node_id: int, congested: bool) -> CongestionEvent | None:
        """Feed one congestion observation for ``node_id``.

        Returns the thread change made, if any.
        """
        if node_id not in self.server.registry:
            raise KeyError(f"unknown node {node_id}")
        state = self._state.setdefault(node_id, _NodeCongestionState())
        if congested:
            state.congested_streak += 1
            state.calm_streak = 0
            degree = self.server.matrix.row(node_id).degree
            if state.congested_streak >= DROP_AFTER and degree > MIN_DEGREE:
                column = self.server.congestion_drop(node_id)
                state.congested_streak = 0
                state.shed_count += 1
                event = CongestionEvent(node_id=node_id, action="drop", column=column)
                self.events.append(event)
                return event
        else:
            state.calm_streak += 1
            state.congested_streak = 0
            info = self.server.registry[node_id]
            nominal = info.nominal_degree
            degree = self.server.matrix.row(node_id).degree
            if state.calm_streak >= self.restore_after and degree < nominal:
                column = self.server.congestion_restore(node_id)
                state.calm_streak = 0
                state.shed_count = max(0, state.shed_count - 1)
                event = CongestionEvent(node_id=node_id, action="restore", column=column)
                self.events.append(event)
                return event
        return None

    def shed_count(self, node_id: int) -> int:
        """How many threads ``node_id`` has currently shed."""
        state = self._state.get(node_id)
        return state.shed_count if state else 0
