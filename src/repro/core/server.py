"""The coordination server: hello, good-bye, complaint and repair (§3, §5).

The server (or any centralized authority standing in for it) owns the
thread matrix ``M`` and a registry of peers.  Every membership event is a
small, local edit of ``M`` plus O(d) redirect messages to the peers whose
streams move.  The server never touches content — the data plane is pure
peer-to-peer RLNC.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .keys import AppendKeys, UniformKeys
from .matrix import SERVER, ThreadMatrix
from .node import NodeInfo, NodeStatus
from .protocols import Complaint, HelloGrant, MessageStats, Redirect, ThreadAssignment


class CoordinationServer:
    """Central authority implementing the paper's membership protocols.

    Args:
        k: Server bandwidth in units (thread count).
        d: Default per-node bandwidth in units (thread count); individual
            joins may override it (heterogeneous users, §5).
        rng: Seeded generator; all membership randomness flows through it.
        insert_mode: ``"append"`` for §3's append-at-the-bottom ordering,
            ``"uniform"`` for §5's adversary-hardened random row insertion.
    """

    def __init__(
        self,
        k: int,
        d: int,
        rng: np.random.Generator,
        insert_mode: str = "append",
    ) -> None:
        if d < 1 or d > k:
            raise ValueError(f"need 1 <= d <= k, got d={d}, k={k}")
        if insert_mode not in ("append", "uniform"):
            raise ValueError(f"unknown insert_mode {insert_mode!r}")
        self.k = k
        self.d = d
        self.insert_mode = insert_mode
        self._rng = rng
        allocator = AppendKeys() if insert_mode == "append" else UniformKeys(rng)
        self.matrix = ThreadMatrix(k, allocator)
        self.registry: dict[int, NodeInfo] = {}
        self.failed: set[int] = set()
        #: Registered-and-not-failed ids, maintained on every membership
        #: edit so working-set queries never rescan the registry.
        self._working: set[int] = set()
        self.stats = MessageStats()
        self._next_id = 0
        self._join_sequence = 0

    # ------------------------------------------------------------------
    # Introspection

    @property
    def population(self) -> int:
        """Number of rows currently in the matrix (incl. failed, pre-repair)."""
        return len(self.matrix)

    @property
    def issued(self) -> int:
        """Ids handed out so far: they are ``0 .. issued-1``, never recycled."""
        return self._next_id

    @property
    def working_nodes(self) -> list[int]:
        """Ids of nodes not currently failed, in matrix row order."""
        if not self.failed:
            return self.matrix.node_ids
        working = self._working
        return [n for n in self.matrix.node_ids if n in working]

    def is_working(self, node_id: int) -> bool:
        return node_id in self._working

    # ------------------------------------------------------------------
    # Hello protocol

    def hello(
        self,
        d: Optional[int] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> HelloGrant:
        """Admit a new node; returns its thread assignments.

        Under append ordering the new node receives the current hanging
        threads of its chosen columns.  Under uniform insertion the new
        row may land mid-matrix; the displaced children are redirected to
        the newcomer (``grant.redirects``).
        """
        degree = self.d if d is None else d
        self.stats.hello_requests += 1
        node_id = self._next_id
        self._next_id += 1
        self.matrix.join(node_id, degree, self._rng, columns)
        self._join_sequence += 1
        self.registry[node_id] = NodeInfo(
            node_id=node_id, nominal_degree=degree, joined_at=self._join_sequence
        )
        self._working.add(node_id)
        assignments = tuple(
            ThreadAssignment(column=column, parent=parent)
            for column, parent in sorted(self.matrix.parents_of(node_id).items())
        )
        redirects = tuple(
            Redirect(column=column, parent=node_id, child=child)
            for column, child in sorted(self.matrix.children_of(node_id).items())
            if child is not None
        )
        self.stats.hello_grants += 1
        self.stats.redirects += len(redirects)
        return HelloGrant(node_id=node_id, assignments=assignments, redirects=redirects)

    # ------------------------------------------------------------------
    # Good-bye protocol

    def goodbye(self, node_id: int) -> tuple[Redirect, ...]:
        """Gracefully remove a node: splice each parent to its child.

        Returns the redirect instructions sent out (one per thread the
        node carried).  Lemma 1: after this the matrix is distributed as
        if the node had never joined.
        """
        self.stats.goodbye_requests += 1
        if node_id in self.failed:
            raise ValueError(f"node {node_id} is failed; use repair()")
        return self._splice_out(node_id)

    # ------------------------------------------------------------------
    # Failures, complaints and repair

    def fail(self, node_id: int) -> None:
        """Mark a node as non-ergodically failed (row kept until repair)."""
        if node_id not in self.registry:
            raise KeyError(f"unknown node {node_id}")
        if node_id in self.failed:
            return
        self.failed.add(node_id)
        self._working.discard(node_id)
        self.registry[node_id].status = NodeStatus.FAILED

    def complain(self, reporter: int, column: int) -> Optional[Complaint]:
        """A child reports its incoming thread on ``column`` is dead.

        Returns the complaint if the suspect parent is indeed failed (the
        server then schedules a repair); None if the parent is healthy
        (spurious complaint, e.g. an ergodic blip that recovered).
        """
        self.stats.complaints += 1
        suspect = self.matrix.parent_in_column(reporter, column)
        if suspect == SERVER or suspect not in self.failed:
            return None
        return Complaint(reporter=reporter, column=column, suspect=suspect)

    def repair(self, node_id: int) -> tuple[Redirect, ...]:
        """Complete the repair of a failed node.

        Performs the steps the node would have done in the good-bye
        protocol: each of its parents redirects its stream to the
        corresponding child, and the row is removed.
        """
        if node_id not in self.failed:
            raise ValueError(f"node {node_id} is not failed")
        redirects = self._splice_out(node_id)
        self.failed.discard(node_id)
        return redirects

    def repair_all(self) -> list[Redirect]:
        """Repair every outstanding failure (end of a repair interval)."""
        redirects: list[Redirect] = []
        for node_id in sorted(self.failed):
            redirects.extend(self.repair(node_id))
        return redirects

    # ------------------------------------------------------------------
    # §5 congestion handling

    def congestion_drop(self, node_id: int, column: Optional[int] = None) -> int:
        """A congested node sheds one thread; parent joins child directly.

        Returns the dropped column.
        """
        info = self.registry[node_id]
        if node_id in self.failed:
            raise ValueError("failed nodes cannot negotiate congestion")
        dropped = self.matrix.drop_thread(node_id, column, self._rng)
        info.dropped_threads.append(dropped)
        info.status = NodeStatus.CONGESTED
        self.stats.congestion_notices += 1
        self.stats.redirects += 1  # parent -> child splice on that column
        return dropped

    def congestion_restore(self, node_id: int) -> int:
        """A recovered node re-acquires one thread (a random zero -> one).

        Per §5 the server picks the column at random among the node's
        zeros.  Returns the added column.
        """
        info = self.registry[node_id]
        if node_id in self.failed:
            raise ValueError("failed nodes cannot negotiate congestion")
        added = self.matrix.add_thread(node_id, None, self._rng)
        if info.dropped_threads:
            info.dropped_threads.pop()
        if not info.dropped_threads:
            info.status = NodeStatus.WORKING
        self.stats.congestion_notices += 1
        self.stats.redirects += 2  # new parent -> node, node -> displaced child
        return added

    # ------------------------------------------------------------------

    def _splice_out(self, node_id: int) -> tuple[Redirect, ...]:
        parents = self.matrix.parents_of(node_id)
        children = self.matrix.children_of(node_id)
        redirects = tuple(
            Redirect(column=column, parent=parents[column], child=children[column])
            for column in sorted(parents)
        )
        self.matrix.leave(node_id)
        self.registry.pop(node_id, None)
        self._working.discard(node_id)
        self.stats.redirects += len(redirects)
        return redirects
