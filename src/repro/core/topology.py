"""Topology derivation: from the thread matrix to the working overlay DAG.

The matrix defines a *physical* topology — per column, a chain of thread
segments from the server down through every occupant.  Failures do not
restructure the matrix until repair completes; a failed node simply stops
relaying, so every thread segment into or out of it is dead.  The
*working* graph therefore equals the physical graph with failed vertices
(and all their incident edges) removed.

Because nodes always clip *hanging* threads (which dangle strictly below
every existing occupant of the column) and row order is fixed at join
time, the physical graph is a DAG: every edge goes from an earlier key to
a later key — the §6 acyclicity invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Optional

from .matrix import SERVER, ThreadMatrix


@dataclass
class OverlayGraph:
    """A multigraph snapshot of the overlay.

    Attributes:
        nodes: Working node ids (excluding the server).
        succ: Adjacency with multiplicities, ``u -> {v: multiplicity}``.
            ``SERVER`` appears as a source vertex.
        pred: Reverse adjacency.
    """

    nodes: set[int] = field(default_factory=set)
    succ: dict[int, dict[int, int]] = field(default_factory=dict)
    pred: dict[int, dict[int, int]] = field(default_factory=dict)

    def add_node(self, node_id: int) -> None:
        self.nodes.add(node_id)
        self.succ.setdefault(node_id, {})
        self.pred.setdefault(node_id, {})

    def add_edge(self, u: int, v: int, multiplicity: int = 1) -> None:
        self.succ.setdefault(u, {})
        self.pred.setdefault(v, {})
        self.succ[u][v] = self.succ[u].get(v, 0) + multiplicity
        self.pred[v][u] = self.pred[v].get(u, 0) + multiplicity

    def in_degree(self, node_id: int) -> int:
        """Incoming thread count (with multiplicity)."""
        return sum(self.pred.get(node_id, {}).values())

    def out_degree(self, node_id: int) -> int:
        """Outgoing thread count (with multiplicity)."""
        return sum(self.succ.get(node_id, {}).values())

    def edge_count(self) -> int:
        """Total thread segments (counting multiplicity)."""
        return sum(sum(targets.values()) for targets in self.succ.values())

    def parents(self, node_id: int) -> list[int]:
        """Distinct upstream neighbours of a node."""
        return list(self.pred.get(node_id, {}))

    def children(self, node_id: int) -> list[int]:
        """Distinct downstream neighbours of a node."""
        return list(self.succ.get(node_id, {}))

    # ------------------------------------------------------------------

    def depths_from_server(self) -> dict[int, int]:
        """Shortest hop distance from the server to each reachable node."""
        depths = {SERVER: 0}
        queue = deque([SERVER])
        while queue:
            u = queue.popleft()
            for v in self.succ.get(u, {}):
                if v not in depths:
                    depths[v] = depths[u] + 1
                    queue.append(v)
        depths.pop(SERVER)
        return depths

    def longest_depths_from_server(self) -> dict[int, int]:
        """Longest path length from the server (DAG only).

        For the acyclic curtain model this is the worst-case pipeline
        delay a node's data experiences; raises on cyclic graphs.
        """
        order = self.topological_order()
        longest: dict[int, int] = {SERVER: 0}
        for u in order:
            base = longest.get(u)
            if base is None:
                continue  # unreachable from server
            for v in self.succ.get(u, {}):
                if longest.get(v, -1) < base + 1:
                    longest[v] = base + 1
        longest.pop(SERVER, None)
        return longest

    def topological_order(self) -> list[int]:
        """Topological order including SERVER first; raises if cyclic."""
        indegree = {node: 0 for node in self.succ}
        for targets in self.succ.values():
            for v in targets:
                indegree[v] = indegree.get(v, 0) + 1
        indegree.setdefault(SERVER, 0)
        queue = deque(node for node, deg in indegree.items() if deg == 0)
        order = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in self.succ.get(u, {}):
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
        if len(order) != len(indegree):
            raise ValueError("overlay graph contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        """True when the graph is a DAG (the §6 invariant)."""
        try:
            self.topological_order()
        except ValueError:
            return False
        return True



def build_overlay_graph(
    matrix: ThreadMatrix,
    failed: Optional[AbstractSet[int]] = None,
) -> OverlayGraph:
    """Build the working overlay graph from the matrix.

    ``failed`` nodes are removed along with all their thread segments —
    their children receive nothing on those threads until repair.
    """
    failed = failed or frozenset()
    graph = OverlayGraph()
    for node_id in matrix.node_ids:
        if node_id not in failed:
            graph.add_node(node_id)
    for parent, child, _column in matrix.iter_edges():
        if child in failed:
            continue
        if parent != SERVER and parent in failed:
            continue
        graph.add_edge(parent, child)
    return graph

