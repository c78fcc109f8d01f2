"""The thread matrix ``M`` — the paper's central data structure (§3).

``M`` is conceptually an ``N' × k`` 0/1 matrix: one row per current node,
one column per server thread, exactly ``d`` ones per row.  An implicit
server row of all ones sits above everything.  The network topology is
read off the columns: within a column, consecutive ones form a chain of
unit-bandwidth thread segments, and the bottom-most one in each column
owns that column's *hanging thread* (an open slot a future node can clip).

Representation.  Rather than a dense matrix with row shifting, each row
carries an arrival *key* (see :mod:`repro.core.keys`), one index maps
each present key to its node, and each column stores its occupants'
keys as a sorted list.  Each edit finds its place in each of its
columns by binary search, O(d log N), and then shifts those columns'
lists, O(d N / k) pointer moves (a column holds about ``d N / k`` rows):

* ``join`` — insert a row (at the bottom for append keys, at a uniformly
  random height for uniform keys);
* ``leave`` — delete a row, splicing each column chain (the good-bye
  protocol and the end state of a repair);
* ``drop_thread`` / ``add_thread`` — §5 congestion handling (turn a one
  into a zero and back).

``join`` and ``leave`` return the row's ``(column, parent, child)`` in
each of its columns, read at the index their one search per column
found: the hello and good-bye protocols need exactly these neighbours,
so no edit searches a column twice.

No edit touches a list of all N rows.  The global row order is computed
where it is read, in ``node_ids``: the joins and leaves since the last
read are replayed into it by binary-search insert and delete (O(N) each),
and once more than ``min(PENDING_MAX, N)`` are waiting they are dropped
and the next read sorts the keys afresh (O(N log N)), so an unread order
costs the writers nothing and memory stays O(N).

The matrix is purely structural: it knows nothing about failures, which
are tracked by the server registry and applied at analysis time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence

import numpy as np

from ..gf.kernels import draw_distinct
from .keys import AppendKeys, KeyAllocator

#: Virtual node id of the server (the implicit all-ones top row).
SERVER = -1

#: Most row-order edits kept for replay (fewer while there are fewer
#: rows); past it the next read of the order re-sorts.  Replaying an edit
#: shifts the order list once, so this is about where re-sorting N keys
#: costs less than replaying the edits.
PENDING_MAX = 1024


class Row:
    """One matrix row: a node's arrival key and its set of one-columns."""

    __slots__ = ("node_id", "key", "columns")

    def __init__(self, node_id: int, key: float, columns: set[int]) -> None:
        self.node_id = node_id
        self.key = key
        self.columns = columns

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
        # Key -> node id of every present row: O(1) key uniqueness, the
        # names of the column occupants, and what the row order is
        # re-sorted from.
        self._id_of_key: dict[float, int] = {}
        # Per-column occupancy: the occupants' keys, sorted.
        self._col_keys: list[list[float]] = [[] for _ in range(k)]
        # Global key-sorted row order as of the last read (None: re-sort
        # at the next), and the (key, id) joins and (key, None) leaves
        # since.  Simulators and failure models read the order every
        # slot or op, so a read replays a few edits; a membership engine
        # never reads it, so its joins and leaves never shift it.
        self._order_keys: Optional[list[float]] = []
        self._order_ids: Optional[list[int]] = []
        self._pending: list[tuple[float, Optional[int]]] = []
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
        return list(self._row_order())

    def row(self, node_id: int) -> Row:
        """The row of ``node_id``; KeyError if absent."""
        return self._rows[node_id]

    def columns_of(self, node_id: int) -> frozenset[int]:
        """The columns where ``node_id``'s row has ones."""
        return frozenset(self._rows[node_id].columns)

    def column_chain(self, column: int) -> list[int]:
        """Node ids with a one in ``column``, top (oldest key) to bottom."""
        return list(map(self._id_of_key.__getitem__, self._col_keys[column]))

    def hanging_owner(self, column: int) -> int:
        """Owner of the hanging thread of ``column`` (``SERVER`` if empty)."""
        keys = self._col_keys[column]
        return self._id_of_key[keys[-1]] if keys else SERVER

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
        return self._thread(node_id, column)[1]

    def child_in_column(self, node_id: int, column: int) -> Optional[int]:
        """The node directly below ``node_id`` in ``column`` (None = hanging)."""
        return self._thread(node_id, column)[2]

    def parents_of(self, node_id: int) -> dict[int, int]:
        """Map column -> parent node id (SERVER allowed) for each thread,
        in the row's own column order."""
        row = self._rows[node_id]
        return {column: parent
                for column, parent, _ in self._threads(row.key, row.columns)}

    def children_of(self, node_id: int) -> dict[int, Optional[int]]:
        """Map column -> child node id (None when the thread hangs), in
        the row's own column order."""
        row = self._rows[node_id]
        return {column: child
                for column, _, child in self._threads(row.key, row.columns)}

    def _threads(self, key: float, columns) -> list[tuple[int, int, Optional[int]]]:
        """``(column, parent, child)`` of the row with ``key`` in each of
        ``columns``, in that order: one binary search per column."""
        id_of_key = self._id_of_key
        threads = []
        for column in columns:
            keys = self._col_keys[column]
            index = bisect_left(keys, key)
            threads.append((
                column,
                id_of_key[keys[index - 1]] if index else SERVER,
                id_of_key[keys[index + 1]] if index + 1 < len(keys) else None,
            ))
        return threads

    def _thread(self, node_id: int, column: int) -> tuple[int, int, Optional[int]]:
        """``(column, parent, child)`` of ``node_id``'s thread in ``column``."""
        row = self._rows[node_id]
        if column not in row.columns:
            raise KeyError(f"node {node_id} has no thread in column {column}")
        return self._threads(row.key, (column,))[0]

    # ------------------------------------------------------------------
    # Mutation: the hello / good-bye primitives

    def join(
        self,
        node_id: int,
        d: int,
        rng: np.random.Generator,
        columns: Optional[Sequence[int]] = None,
    ) -> list[tuple[int, int, Optional[int]]]:
        """Insert a new row with ``d`` ones.

        The columns are chosen uniformly at random without replacement
        unless given explicitly.  Returns the new row's ``(column,
        parent, child)`` in each of its columns, in column order.
        """
        if node_id in self._rows:
            raise ValueError(f"node {node_id} already present")
        if not 1 <= d <= self.k:
            raise ValueError(f"d={d} out of range for k={self.k}")
        if columns is None:
            column_set = set(draw_distinct(rng, self.k, d))
        else:
            column_set = {int(c) for c in columns}
            if len(column_set) != len(columns):
                raise ValueError("duplicate columns in explicit choice")
            if len(column_set) != d:
                raise ValueError("explicit columns must have length d")
            if not all(0 <= c < self.k for c in column_set):
                raise ValueError("column index out of range")
        key = self._allocator.next_key()
        while key in self._id_of_key:  # keys stay unique
            key = self._allocator.next_key()
        self._rows[node_id] = Row(node_id, key, column_set)
        self._id_of_key[key] = node_id
        self._note_order_edit(key, node_id)
        return self._edit_columns(node_id, key, column_set, insert=True)

    def leave(self, node_id: int) -> list[tuple[int, int, Optional[int]]]:
        """Delete a row, splicing every column it occupied.

        This is the structural effect of both a graceful leave and a
        completed repair: each parent thread reattaches directly to the
        corresponding child (Lemma 1).  Returns the row's ``(column,
        parent, child)`` in each of its columns as they stood before the
        splice, in column order.
        """
        row = self._rows.pop(node_id)
        del self._id_of_key[row.key]
        self._note_order_edit(row.key, None)
        return self._edit_columns(node_id, row.key, row.columns, insert=False)

    def drop_thread(self, node_id: int, rng: np.random.Generator) -> int:
        """§5 congestion: give up one random thread (turn a one into a zero).

        The node splices itself out of one column only — its parent there
        connects directly to its child.  Returns the dropped column.
        A node keeps at least one thread; dropping the last raises.
        """
        row = self._rows[node_id]
        if row.degree <= 1:
            raise ValueError("cannot drop the last thread of a node")
        column = int(rng.choice(sorted(row.columns)))
        self._edit_columns(node_id, row.key, (column,), insert=False)
        row.columns.discard(column)
        return column

    def add_thread(self, node_id: int, rng: np.random.Generator) -> int:
        """§5 recovery: re-acquire a thread (turn a random zero into a one).

        The node splices itself into the chosen column at its own key
        height.  Returns the added column.
        """
        row = self._rows[node_id]
        if row.degree >= self.k:
            raise ValueError("node already occupies every column")
        free = [c for c in range(self.k) if c not in row.columns]
        column = int(rng.choice(free))
        self._edit_columns(node_id, row.key, (column,), insert=True)
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
            previous = SERVER
            for node_id in self.column_chain(column):
                yield previous, node_id, column
                previous = node_id

    # ------------------------------------------------------------------
    # Internals

    def _note_order_edit(self, key: float, node_id: Optional[int]) -> None:
        """Queue a join (``node_id``) or leave (None) for the row order."""
        if self._order_ids is None:
            return  # the next read re-sorts anyway
        self._pending.append((key, node_id))
        if len(self._pending) > min(PENDING_MAX, len(self._rows)):
            self._order_keys = self._order_ids = None
            self._pending.clear()

    def _row_order(self) -> list[int]:
        """The row order, brought up to date with the edits since the
        last read (the module docstring has the costs)."""
        if self._order_ids is None:
            self._order_keys = sorted(self._id_of_key)
            self._order_ids = list(map(self._id_of_key.__getitem__, self._order_keys))
        elif self._pending:
            keys, ids = self._order_keys, self._order_ids
            for key, node_id in self._pending:
                index = bisect_left(keys, key)
                if node_id is None:
                    del keys[index], ids[index]
                else:
                    keys.insert(index, key)
                    ids.insert(index, node_id)
            self._pending.clear()
        return self._order_ids

    def _edit_columns(self, node_id: int, key: float, columns,
                      insert: bool) -> list[tuple[int, int, Optional[int]]]:
        """Insert ``key`` into each of ``columns`` (or delete it), and
        return the row's ``(column, parent, child)`` in each, in column
        order, read at the index the one binary search per column found
        (for a delete, as the column stood before it)."""
        id_of_key = self._id_of_key
        threads = []
        for column in sorted(columns):
            keys = self._col_keys[column]
            index = bisect_left(keys, key)
            if insert:
                keys.insert(index, key)
                below = index + 1
            elif index < len(keys) and keys[index] == key:
                del keys[index]
                below = index
            else:
                raise KeyError(f"node {node_id} not found in column {column}")
            threads.append((
                column,
                id_of_key[keys[index - 1]] if index else SERVER,
                id_of_key[keys[below]] if below < len(keys) else None,
            ))
        self.mutation_epoch += len(threads)
        return threads

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by property tests)

    def check_invariants(self) -> None:
        """Assert internal consistency; raises AssertionError on violation."""
        assert len(self._id_of_key) == len(self._rows), "duplicate arrival key"
        for node_id, row in self._rows.items():
            assert row.node_id == node_id
            assert 1 <= row.degree <= self.k
            assert self._id_of_key.get(row.key) == node_id, "key index drift"
        for column in range(self.k):
            keys = self._col_keys[column]
            assert keys == sorted(keys), f"column {column} keys unsorted"
            for key in keys:
                node_id = self._id_of_key.get(key)
                assert node_id is not None, f"ghost key {key} in column {column}"
                assert column in self._rows[node_id].columns
        for node_id, row in self._rows.items():
            for column in row.columns:
                assert row.key in self._col_keys[column]
        assert len(self._pending) <= min(PENDING_MAX, len(self._rows)), \
            "row-order edits unbounded"
        order = self._row_order()
        assert len(order) == len(self._rows)
        assert self._order_keys == sorted(self._order_keys), "row order unsorted"
        for key, node_id in zip(self._order_keys, order):
            row = self._rows.get(node_id)
            assert row is not None, f"ghost node {node_id} in row order"
            assert row.key == key, f"row-order key drift for node {node_id}"
