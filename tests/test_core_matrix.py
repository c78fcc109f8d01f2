"""Unit tests for the thread matrix M."""

import pytest

from repro.core import SERVER, AppendKeys, ThreadMatrix, UniformKeys


@pytest.fixture
def matrix(rng):
    m = ThreadMatrix(k=6)
    m.join(0, 2, rng, columns=[0, 1])
    m.join(1, 2, rng, columns=[1, 2])
    m.join(2, 2, rng, columns=[0, 2])
    return m


class TestJoin:
    def test_row_count(self, matrix):
        assert len(matrix) == 3
        assert 0 in matrix and 3 not in matrix

    def test_row_has_d_ones(self, matrix):
        for node_id in (0, 1, 2):
            assert matrix.row(node_id).degree == 2

    def test_random_columns_distinct(self, rng):
        m = ThreadMatrix(k=8)
        for node_id in range(50):
            threads = m.join(node_id, 3, rng)
            columns = [column for column, _, _ in threads]
            assert len(set(columns)) == 3
            assert columns == sorted(m.row(node_id).columns)
        m.check_invariants()

    def test_duplicate_node_raises(self, matrix, rng):
        with pytest.raises(ValueError):
            matrix.join(0, 2, rng)

    def test_bad_degree_raises(self, rng):
        m = ThreadMatrix(k=4)
        with pytest.raises(ValueError):
            m.join(0, 0, rng)
        with pytest.raises(ValueError):
            m.join(0, 5, rng)

    def test_explicit_columns_validation(self, rng):
        m = ThreadMatrix(k=4)
        with pytest.raises(ValueError):
            m.join(0, 2, rng, columns=[1, 1])
        with pytest.raises(ValueError):
            m.join(0, 2, rng, columns=[1])
        with pytest.raises(ValueError):
            m.join(0, 2, rng, columns=[1, 9])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ThreadMatrix(k=0)


class TestChainsAndNeighbours:
    def test_column_chain_order(self, matrix):
        assert matrix.column_chain(0) == [0, 2]
        assert matrix.column_chain(1) == [0, 1]
        assert matrix.column_chain(2) == [1, 2]
        assert matrix.column_chain(3) == []

    def test_hanging_owner(self, matrix):
        assert matrix.hanging_owner(0) == 2
        assert matrix.hanging_owner(1) == 1
        assert matrix.hanging_owner(3) == SERVER
        owners = matrix.hanging_owners()
        assert owners == [2, 1, 2, SERVER, SERVER, SERVER]

    def test_parents(self, matrix):
        assert matrix.parents_of(0) == {0: SERVER, 1: SERVER}
        assert matrix.parents_of(1) == {1: 0, 2: SERVER}
        assert matrix.parents_of(2) == {0: 0, 2: 1}

    def test_children(self, matrix):
        assert matrix.children_of(0) == {0: 2, 1: 1}
        assert matrix.children_of(2) == {0: None, 2: None}

    def test_parent_in_missing_column_raises(self, matrix):
        with pytest.raises(KeyError):
            matrix.parent_in_column(0, 5)

    def test_node_ids_in_key_order(self, matrix):
        assert matrix.node_ids == [0, 1, 2]


class TestEdges:
    def test_iter_edges(self, matrix):
        edges = sorted(matrix.iter_edges())
        assert (SERVER, 0, 0) in edges
        assert (0, 2, 0) in edges
        assert (1, 2, 2) in edges
        # one edge per thread segment: 3 columns x (occupants)
        assert len(edges) == 6

    def test_edge_multiplicities(self, rng):
        m = ThreadMatrix(k=4)
        m.join(0, 2, rng, columns=[0, 1])
        m.join(1, 2, rng, columns=[0, 1])  # two parallel threads 0 -> 1
        pairs = [(parent, child) for parent, child, _ in m.iter_edges()]
        assert pairs.count((0, 1)) == 2

    def test_dense_shape(self, matrix):
        dense = matrix.to_dense()
        assert dense.shape == (3, 6)
        assert dense.sum() == 6
        assert list(dense.sum(axis=1)) == [2, 2, 2]


class TestLeave:
    def test_leave_splices_chain(self, matrix):
        matrix.leave(1)
        assert matrix.column_chain(1) == [0]
        assert matrix.column_chain(2) == [2]
        assert matrix.parents_of(2) == {0: 0, 2: SERVER}
        matrix.check_invariants()

    def test_leave_unknown_raises(self, matrix):
        with pytest.raises(KeyError):
            matrix.leave(99)

    def test_leave_then_rejoin_id(self, matrix, rng):
        matrix.leave(0)
        matrix.join(0, 2, rng)
        assert 0 in matrix
        matrix.check_invariants()

    def test_leave_restores_hanging_to_server(self, rng):
        m = ThreadMatrix(k=3)
        m.join(0, 2, rng, columns=[0, 1])
        m.leave(0)
        assert m.hanging_owners() == [SERVER, SERVER, SERVER]
        assert len(m) == 0


class TestThreadDropAdd:
    def test_drop_thread(self, matrix, rng):
        dropped = matrix.drop_thread(0, rng)
        assert dropped in (0, 1)
        assert matrix.row(0).degree == 1
        # the child in that column now attaches above
        child = {0: 2, 1: 1}[dropped]
        assert matrix.parents_of(child)[dropped] == SERVER
        matrix.check_invariants()

    def test_drop_last_thread_raises(self, rng):
        m = ThreadMatrix(k=3)
        m.join(0, 1, rng, columns=[0])
        with pytest.raises(ValueError):
            m.drop_thread(0, rng)

    def test_add_thread(self, matrix, rng):
        added = matrix.add_thread(0, rng)
        assert added in (2, 3, 4, 5)
        assert matrix.row(0).degree == 3
        # Node 0 joined first: it heads every chain it enters.
        assert matrix.column_chain(added)[0] == 0
        matrix.check_invariants()

    def test_add_splices_at_key_height(self, rng):
        """Re-adding a thread inserts the node at its own key height."""
        m = ThreadMatrix(k=2)
        m.join(0, 2, rng, columns=[0, 1])
        m.join(1, 2, rng, columns=[0, 1])
        dropped = m.drop_thread(0, rng)
        assert m.add_thread(0, rng) == dropped  # the one free column
        # Node 0 joined first, so it must sit above node 1 again.
        assert m.column_chain(dropped) == [0, 1]
        m.check_invariants()

    def test_full_row_add_raises(self, rng):
        m = ThreadMatrix(k=2)
        m.join(0, 2, rng, columns=[0, 1])
        with pytest.raises(ValueError):
            m.add_thread(0, rng=rng)


class TestKeyAllocators:
    def test_append_keys_monotone(self):
        alloc = AppendKeys()
        keys = [alloc.next_key() for _ in range(10)]
        assert keys == sorted(keys)
        assert len(set(keys)) == 10

    def test_uniform_keys_unique(self, rng):
        alloc = UniformKeys(rng)
        keys = [alloc.next_key() for _ in range(200)]
        assert len(set(keys)) == 200
        assert all(0.0 <= key < 1.0 for key in keys)

    def test_uniform_insertion_mid_matrix(self, rng):
        """With uniform keys, some arrivals must land above older rows."""
        m = ThreadMatrix(k=4, allocator=UniformKeys(rng))
        for node_id in range(30):
            m.join(node_id, 2, rng)
        order = m.node_ids
        assert order != sorted(order)  # at least one mid insertion
        m.check_invariants()
