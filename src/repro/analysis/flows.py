"""Exact max-flow on the overlay graph (BFS augmenting paths).

Flow values in this system are tiny (at most ``d``, a node's thread
count), so Edmonds–Karp — one BFS per unit of flow — is both exact and
fast: O(d · E) per query.  The solver is array-based and supports cheap
capacity snapshots so the defect estimator can run thousands of
virtual-sink queries against one base graph.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np


class FlowNetwork:
    """Integer-capacity flow network with snapshot/restore.

    Vertices are arbitrary hashables, mapped internally to dense indices.
    Edges are directed with integer capacity; a reverse residual edge of
    capacity 0 is added automatically.
    """

    def __init__(self) -> None:
        self._index: dict[object, int] = {}
        self._adj: list[list[int]] = []  # vertex -> list of edge ids
        self._to: list[int] = []
        self._cap: list[int] = []

    def vertex(self, name: object) -> int:
        """Index of ``name``, creating the vertex on first use."""
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._adj)
            self._index[name] = idx
            self._adj.append([])
        return idx

    def has_vertex(self, name: object) -> bool:
        return name in self._index

    @property
    def edge_count(self) -> int:
        """Number of directed edges (not counting residual reverses)."""
        return len(self._to) // 2

    def add_edge(self, u: object, v: object, capacity: int) -> None:
        """Add a directed edge ``u -> v`` with the given capacity."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        ui, vi = self.vertex(u), self.vertex(v)
        self._adj[ui].append(len(self._to))
        self._to.append(vi)
        self._cap.append(capacity)
        self._adj[vi].append(len(self._to))
        self._to.append(ui)
        self._cap.append(0)

    # ------------------------------------------------------------------

    def snapshot(self) -> np.ndarray:
        """Capture current capacities; pass to :meth:`restore` to rewind."""
        return np.array(self._cap, dtype=np.int64)

    def restore(self, snapshot: np.ndarray) -> None:
        """Rewind capacities to a snapshot; later-added edges are kept."""
        kept = list(self._cap[len(snapshot):])
        self._cap[: len(snapshot)] = [int(c) for c in snapshot]
        self._cap[len(snapshot):] = kept

    def truncate(self, edge_floor: int) -> None:
        """Remove every edge with id >= ``edge_floor`` (undo temp edges).

        ``edge_floor`` must come from a previous ``len(self._to)`` capture
        via :meth:`edge_mark`.
        """
        if edge_floor % 2:
            raise ValueError("edge_floor must come from edge_mark()")
        while len(self._to) > edge_floor:
            reverse_id = len(self._to) - 1  # odd: the residual reverse edge
            forward_id = reverse_id - 1
            reverse_source = self._to[forward_id]  # v of the forward edge u->v
            forward_source = self._to[reverse_id]  # u
            # Edges are only ever appended, so each id must still be the
            # last entry of its source vertex's adjacency list.
            assert self._adj[reverse_source][-1] == reverse_id
            self._adj[reverse_source].pop()
            assert self._adj[forward_source][-1] == forward_id
            self._adj[forward_source].pop()
            del self._to[forward_id:]
            del self._cap[forward_id:]

    def edge_mark(self) -> int:
        """Marker for :meth:`truncate` (call before adding temp edges)."""
        return len(self._to)

    # ------------------------------------------------------------------

    def max_flow(self, source: object, sink: object,
                 limit: Optional[int] = None) -> int:
        """Maximum flow from source to sink (Edmonds–Karp).

        ``limit`` optionally stops once that much flow is found — useful
        when the caller only needs to know whether connectivity reaches a
        threshold.  Mutates capacities; snapshot first if you need to
        rerun.
        """
        if source not in self._index or sink not in self._index:
            return 0
        s, t = self._index[source], self._index[sink]
        if s == t:
            raise ValueError("source equals sink")
        flow = 0
        adj, to, cap = self._adj, self._to, self._cap
        n = len(adj)
        while limit is None or flow < limit:
            # BFS for a shortest augmenting path.
            parent_edge = [-1] * n
            parent_edge[s] = -2
            queue = deque([s])
            found = False
            while queue and not found:
                u = queue.popleft()
                for edge_id in adj[u]:
                    if cap[edge_id] > 0:
                        v = to[edge_id]
                        if parent_edge[v] == -1:
                            parent_edge[v] = edge_id
                            if v == t:
                                found = True
                                break
                            queue.append(v)
            if not found:
                break
            # Find bottleneck.
            bottleneck = None
            v = t
            while v != s:
                edge_id = parent_edge[v]
                residual = cap[edge_id]
                bottleneck = residual if bottleneck is None else min(bottleneck, residual)
                v = to[edge_id ^ 1]
            assert bottleneck is not None and bottleneck > 0
            if limit is not None:
                bottleneck = min(bottleneck, limit - flow)
            # Apply.
            v = t
            while v != s:
                edge_id = parent_edge[v]
                cap[edge_id] -= bottleneck
                cap[edge_id ^ 1] += bottleneck
                v = to[edge_id ^ 1]
            flow += bottleneck
        return flow
