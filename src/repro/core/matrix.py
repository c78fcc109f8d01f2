"""The thread matrix ``M`` — the paper's central data structure (§3).

``M`` is conceptually an ``N' × k`` 0/1 matrix: one row per current node,
one column per server thread, exactly ``d`` ones per row.  An implicit
server row of all ones sits above everything.  The network topology is
read off the columns: within a column, consecutive ones form a chain of
unit-bandwidth thread segments, and the bottom-most one in each column
owns that column's *hanging thread* (an open slot a future node can clip).

Representation.  Rather than a dense matrix with row shifting, each row
carries an arrival *key* (see :mod:`repro.core.keys`) and each column
stores its occupants as a key-sorted list.  This supports, in O(d log N):

* ``join`` — insert a row (at the bottom for append keys, at a uniformly
  random height for uniform keys);
* ``leave`` — delete a row, splicing each column chain (the good-bye
  protocol and the end state of a repair);
* ``drop_thread`` / ``add_thread`` — §5 congestion handling (turn a one
  into a zero and back).

The matrix is purely structural: it knows nothing about failures, which
are tracked by the server registry and applied at analysis time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .keys import AppendKeys, KeyAllocator

#: Virtual node id of the server (the implicit all-ones top row).
SERVER = -1


@dataclass
class Row:
    """One matrix row: a node's arrival key and its set of one-columns."""

    node_id: int
    key: float
    columns: set[int]

    @property
    def degree(self) -> int:
        """Number of ones in the row (the node's thread count)."""
        return len(self.columns)


class ThreadMatrix:
    """The matrix ``M`` with key-ordered rows and per-column chains.

    Args:
        k: Number of server threads (columns).
        allocator: Key allocation strategy; defaults to append ordering.
    """

    def __init__(self, k: int, allocator: Optional[KeyAllocator] = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._allocator: KeyAllocator = allocator or AppendKeys()
        self._rows: dict[int, Row] = {}
        # Per-column key-sorted occupancy: parallel (keys, ids) lists.
        self._col_keys: list[list[float]] = [[] for _ in range(k)]
        self._col_ids: list[list[int]] = [[] for _ in range(k)]
        # Global key-sorted row order, maintained incrementally (one
        # O(log N) bisect per join/leave) so ``node_ids`` is a copy, not
        # a fresh O(N log N) sort — simulators and failure models read
        # the row order every slot, which dominates at 10k-peer scale.
        self._order_keys: list[float] = []
        self._order_ids: list[int] = []
        #: Monotone counter bumped by every structural mutation (join,
        #: leave, drop_thread, add_thread).  Consumers cache derived
        #: topology (chains, children maps) keyed on this value and
        #: invalidate only when it moves — see ``CurtainTopology``.
        self.mutation_epoch = 0

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._rows

    @property
    def node_ids(self) -> list[int]:
        """All current node ids, in arrival-key (i.e. matrix row) order."""
        return list(self._order_ids)

    def row(self, node_id: int) -> Row:
        """The row of ``node_id``; KeyError if absent."""
        return self._rows[node_id]

    def columns_of(self, node_id: int) -> frozenset[int]:
        """The columns where ``node_id``'s row has ones."""
        return frozenset(self._rows[node_id].columns)

    def column_chain(self, column: int) -> list[int]:
        """Node ids with a one in ``column``, top (oldest key) to bottom."""
        return list(self._col_ids[column])

    def hanging_owner(self, column: int) -> int:
        """Owner of the hanging thread of ``column`` (``SERVER`` if empty)."""
        ids = self._col_ids[column]
        return ids[-1] if ids else SERVER

    def hanging_owners(self) -> list[int]:
        """Owner of each of the k hanging threads, indexed by column."""
        return [self.hanging_owner(c) for c in range(self.k)]

    def to_dense(self) -> np.ndarray:
        """Materialise ``M`` as a dense 0/1 array (tests and tiny nets)."""
        order = self.node_ids
        dense = np.zeros((len(order), self.k), dtype=np.uint8)
        for i, node_id in enumerate(order):
            for col in self._rows[node_id].columns:
                dense[i, col] = 1
        return dense

    # ------------------------------------------------------------------
    # Neighbour queries (chain structure)

    def parent_in_column(self, node_id: int, column: int) -> int:
        """The node directly above ``node_id`` in ``column`` (or SERVER)."""
        index = self._index_in_column(node_id, column)
        ids = self._col_ids[column]
        return ids[index - 1] if index > 0 else SERVER

    def child_in_column(self, node_id: int, column: int) -> Optional[int]:
        """The node directly below ``node_id`` in ``column`` (None = hanging)."""
        index = self._index_in_column(node_id, column)
        ids = self._col_ids[column]
        return ids[index + 1] if index + 1 < len(ids) else None

    def parents_of(self, node_id: int) -> dict[int, int]:
        """Map column -> parent node id (SERVER allowed) for each thread."""
        return {
            column: self.parent_in_column(node_id, column)
            for column in self._rows[node_id].columns
        }

    def children_of(self, node_id: int) -> dict[int, Optional[int]]:
        """Map column -> child node id (None when the thread hangs)."""
        return {
            column: self.child_in_column(node_id, column)
            for column in self._rows[node_id].columns
        }

    def _index_in_column(self, node_id: int, column: int) -> int:
        row = self._rows[node_id]
        if column not in row.columns:
            raise KeyError(f"node {node_id} has no thread in column {column}")
        keys = self._col_keys[column]
        index = bisect_left(keys, row.key)
        # keys are unique so this is exact
        assert self._col_ids[column][index] == node_id
        return index

    # ------------------------------------------------------------------
    # Mutation: the hello / good-bye primitives

    def join(
        self,
        node_id: int,
        d: int,
        rng: np.random.Generator,
        columns: Optional[Sequence[int]] = None,
    ) -> Row:
        """Insert a new row with ``d`` ones.

        The columns are chosen uniformly at random without replacement
        unless given explicitly.  Returns the created :class:`Row`.
        """
        if node_id in self._rows:
            raise ValueError(f"node {node_id} already present")
        if not 1 <= d <= self.k:
            raise ValueError(f"d={d} out of range for k={self.k}")
        if columns is None:
            chosen = rng.choice(self.k, size=d, replace=False)
            column_set = {int(c) for c in chosen}
        else:
            column_set = {int(c) for c in columns}
            if len(column_set) != len(columns):
                raise ValueError("duplicate columns in explicit choice")
            if len(column_set) != d:
                raise ValueError("explicit columns must have length d")
            if not all(0 <= c < self.k for c in column_set):
                raise ValueError("column index out of range")
        key = self._allocator.next_key()
        index = bisect_left(self._order_keys, key)
        while (index < len(self._order_keys)
                and self._order_keys[index] == key):  # keys stay unique
            key = self._allocator.next_key()
            index = bisect_left(self._order_keys, key)
        row = Row(node_id=node_id, key=key, columns=column_set)
        self._rows[node_id] = row
        self._order_keys.insert(index, key)
        self._order_ids.insert(index, node_id)
        for column in column_set:
            self._insert_into_column(column, key, node_id)
        return row

    def leave(self, node_id: int) -> Row:
        """Delete a row, splicing every column it occupied.

        This is the structural effect of both a graceful leave and a
        completed repair: each parent thread reattaches directly to the
        corresponding child (Lemma 1).
        """
        row = self._rows.pop(node_id)
        index = bisect_left(self._order_keys, row.key)
        assert self._order_ids[index] == node_id  # keys are unique
        self._order_keys.pop(index)
        self._order_ids.pop(index)
        for column in row.columns:
            self._remove_from_column(column, row.key, node_id)
        return row

    def drop_thread(self, node_id: int, column: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None) -> int:
        """§5 congestion: give up one thread (turn a one into a zero).

        The node splices itself out of one column only — its parent there
        connects directly to its child.  Returns the dropped column.
        A node keeps at least one thread; dropping the last raises.
        """
        row = self._rows[node_id]
        if row.degree <= 1:
            raise ValueError("cannot drop the last thread of a node")
        if column is None:
            if rng is None:
                raise ValueError("need a column or an rng to pick one")
            column = int(rng.choice(sorted(row.columns)))
        if column not in row.columns:
            raise KeyError(f"node {node_id} has no thread in column {column}")
        self._remove_from_column(column, row.key, node_id)
        row.columns.discard(column)
        return column

    def add_thread(self, node_id: int, column: Optional[int] = None,
                   rng: Optional[np.random.Generator] = None) -> int:
        """§5 recovery: re-acquire a thread (turn a random zero into a one).

        The node splices itself into the chosen column at its own key
        height.  Returns the added column.
        """
        row = self._rows[node_id]
        if row.degree >= self.k:
            raise ValueError("node already occupies every column")
        if column is None:
            if rng is None:
                raise ValueError("need a column or an rng to pick one")
            free = [c for c in range(self.k) if c not in row.columns]
            column = int(rng.choice(free))
        if column in row.columns:
            raise ValueError(f"node {node_id} already has a thread in column {column}")
        self._insert_into_column(column, row.key, node_id)
        row.columns.add(column)
        return column

    # ------------------------------------------------------------------
    # Edges

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(parent, child, column)`` for every thread segment.

        The parent may be ``SERVER``.  Hanging threads produce no edge.
        Parallel edges (two columns joining the same pair) appear once per
        column.
        """
        for column in range(self.k):
            ids = self._col_ids[column]
            previous = SERVER
            for node_id in ids:
                yield previous, node_id, column
                previous = node_id

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Aggregate parallel thread segments into ``(u, v) -> count``."""
        counts: dict[tuple[int, int], int] = {}
        for parent, child, _ in self.iter_edges():
            pair = (parent, child)
            counts[pair] = counts.get(pair, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Internals

    def _insert_into_column(self, column: int, key: float, node_id: int) -> None:
        keys = self._col_keys[column]
        index = bisect_left(keys, key)
        keys.insert(index, key)
        self._col_ids[column].insert(index, node_id)
        self.mutation_epoch += 1

    def _remove_from_column(self, column: int, key: float, node_id: int) -> None:
        keys = self._col_keys[column]
        index = bisect_left(keys, key)
        if index >= len(keys) or self._col_ids[column][index] != node_id:
            raise KeyError(f"node {node_id} not found in column {column}")
        keys.pop(index)
        self._col_ids[column].pop(index)
        self.mutation_epoch += 1

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by property tests)

    def check_invariants(self) -> None:
        """Assert internal consistency; raises AssertionError on violation."""
        seen_keys = set()
        for node_id, row in self._rows.items():
            assert row.node_id == node_id
            assert 1 <= row.degree <= self.k
            assert row.key not in seen_keys, "duplicate arrival key"
            seen_keys.add(row.key)
        for column in range(self.k):
            keys = self._col_keys[column]
            ids = self._col_ids[column]
            assert len(keys) == len(ids)
            assert keys == sorted(keys), f"column {column} keys unsorted"
            for key, node_id in zip(keys, ids):
                row = self._rows.get(node_id)
                assert row is not None, f"ghost node {node_id} in column {column}"
                assert row.key == key
                assert column in row.columns
        for node_id, row in self._rows.items():
            for column in row.columns:
                assert node_id in self._col_ids[column]
        assert len(self._order_ids) == len(self._rows)
        assert self._order_keys == sorted(self._order_keys), "row order unsorted"
        for key, node_id in zip(self._order_keys, self._order_ids):
            row = self._rows.get(node_id)
            assert row is not None, f"ghost node {node_id} in row order"
            assert row.key == key, f"row-order key drift for node {node_id}"
