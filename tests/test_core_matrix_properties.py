"""Property-based tests: random operation sequences keep M consistent."""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SERVER, ThreadMatrix, UniformKeys
from repro.core import matrix as matrix_module
from repro.core.keys import AppendKeys
from repro.core.matrix import PENDING_MAX


operations = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "drop", "add"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=60,
)


def apply_ops(matrix: ThreadMatrix, ops, rng, d=2):
    """Apply a random op sequence, skipping inapplicable ops."""
    next_id = 0
    for op, raw in ops:
        present = matrix.node_ids
        if op == "join":
            matrix.join(next_id, d, rng)
            next_id += 1
        elif op == "leave" and present:
            matrix.leave(present[raw % len(present)])
        elif op == "drop" and present:
            victim = present[raw % len(present)]
            if matrix.row(victim).degree > 1:
                matrix.drop_thread(victim, rng=rng)
        elif op == "add" and present:
            victim = present[raw % len(present)]
            if matrix.row(victim).degree < matrix.k:
                matrix.add_thread(victim, rng=rng)
    return matrix


@settings(max_examples=50, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1),
       uniform=st.booleans())
def test_invariants_hold_under_any_op_sequence(ops, seed, uniform):
    rng = np.random.default_rng(seed)
    allocator = UniformKeys(rng) if uniform else AppendKeys()
    matrix = ThreadMatrix(k=6, allocator=allocator)
    apply_ops(matrix, ops, rng)
    matrix.check_invariants()


@settings(max_examples=50, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_parent_child_are_mutually_consistent(ops, seed):
    rng = np.random.default_rng(seed)
    matrix = apply_ops(ThreadMatrix(k=6), ops, rng)
    for node_id in matrix.node_ids:
        for column, parent in matrix.parents_of(node_id).items():
            if parent != SERVER:
                assert matrix.child_in_column(parent, column) == node_id
        for column, child in matrix.children_of(node_id).items():
            if child is not None:
                assert matrix.parent_in_column(child, column) == node_id


@settings(max_examples=50, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_edge_counts_match_column_occupancy(ops, seed):
    rng = np.random.default_rng(seed)
    matrix = apply_ops(ThreadMatrix(k=6), ops, rng)
    # every occupant of a column contributes exactly one incoming segment
    expected = sum(len(matrix.column_chain(c)) for c in range(matrix.k))
    assert len(list(matrix.iter_edges())) == expected


@settings(max_examples=50, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_hanging_threads_always_number_k(ops, seed):
    """Invariant from §3: 'at all times there are k threads freely hanging'."""
    rng = np.random.default_rng(seed)
    matrix = apply_ops(ThreadMatrix(k=6), ops, rng)
    assert len(matrix.hanging_owners()) == matrix.k


@settings(max_examples=40, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_dense_view_consistent(ops, seed):
    rng = np.random.default_rng(seed)
    matrix = apply_ops(ThreadMatrix(k=6), ops, rng)
    dense = matrix.to_dense()
    assert dense.shape == (len(matrix), matrix.k)
    order = matrix.node_ids
    for i, node_id in enumerate(order):
        assert set(np.nonzero(dense[i])[0]) == matrix.columns_of(node_id)


# ----------------------------------------------------------------------
# Row order off the write path: computed where it is read


row_ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "leave", "drop", "add", "read"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=80,
)


def expected_threads(matrix, node_id):
    """A row's ``(column, parent, child)`` in each of its columns, in
    column order, derived from the column chains by linear search."""
    threads = []
    for column in sorted(matrix.columns_of(node_id)):
        chain = matrix.column_chain(column)
        index = chain.index(node_id)
        threads.append((
            column,
            chain[index - 1] if index else SERVER,
            chain[index + 1] if index + 1 < len(chain) else None,
        ))
    return threads


@settings(max_examples=80, deadline=None)
@given(ops=row_ops, seed=st.integers(min_value=0, max_value=2**31 - 1),
       uniform=st.booleans(), pending_max=st.sampled_from([1, 3, PENDING_MAX]))
def test_row_order_is_the_rows_sorted_by_key(ops, seed, uniform, pending_max):
    """Joins, leaves and thread drops/adds, with reads of the order in
    between or none until the end, and a replay bound small enough to
    force re-sorts: every read is the rows sorted by key, the
    neighbours a join or leave returns from its one search per column
    agree with the chains, and so do the two dict views."""
    rng = np.random.default_rng(seed)
    allocator = UniformKeys(rng) if uniform else AppendKeys()
    matrix = ThreadMatrix(k=6, allocator=allocator)
    present: list[int] = []
    next_id = 0

    def by_key():
        return sorted(present, key=lambda n: matrix.row(n).key)

    with patch.object(matrix_module, "PENDING_MAX", pending_max):
        for op, raw in ops:
            if op == "join":
                threads = matrix.join(next_id, 1 + raw % 3, rng)
                assert threads == expected_threads(matrix, next_id)
                present.append(next_id)
                next_id += 1
            elif op == "read":
                assert matrix.node_ids == by_key()
            elif present:
                node = present[raw % len(present)]
                degree = matrix.row(node).degree
                if op == "leave":
                    threads = expected_threads(matrix, node)
                    assert matrix.leave(node) == threads
                    present.remove(node)
                elif op == "drop" and degree > 1:
                    matrix.drop_thread(node, rng=rng)
                elif op == "add" and degree < matrix.k:
                    matrix.add_thread(node, rng=rng)
            assert len(matrix._pending) <= min(pending_max, len(present))
            for node in present:
                threads = expected_threads(matrix, node)
                assert matrix.parents_of(node) == {c: p for c, p, _ in threads}
                assert matrix.children_of(node) == {c: ch for c, _, ch in threads}
                # The dict views keep the row's own column order, which
                # seeded simulators iterate.
                columns = list(matrix.row(node).columns)
                assert list(matrix.parents_of(node)) == columns
                assert list(matrix.children_of(node)) == columns
        assert matrix.node_ids == by_key()
        matrix.check_invariants()


def test_unread_row_order_stays_bounded():
    """20 000 join/leave cycles with no read keep at most PENDING_MAX
    edits (and never more than there are rows), and the first read after
    them is still exact."""
    rng = np.random.default_rng(11)
    population = PENDING_MAX + 500
    matrix = ThreadMatrix(k=8, allocator=UniformKeys(rng))
    live = list(range(population))
    for node in live:
        matrix.join(node, 2, rng)
    assert matrix.node_ids == sorted(live, key=lambda n: matrix.row(n).key)
    for cycle in range(20_000):
        matrix.leave(live.pop(int(rng.integers(len(live)))))
        matrix.join(population + cycle, 2, rng)
        live.append(population + cycle)
        assert len(matrix._pending) <= min(PENDING_MAX, len(live))
    assert matrix.node_ids == sorted(live, key=lambda n: matrix.row(n).key)
    matrix.check_invariants()
