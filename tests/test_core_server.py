"""Unit tests for the coordination server protocols."""

import pytest

from repro.core import SERVER, CoordinationServer, NodeStatus
from repro.protocol import ServerEngine


@pytest.fixture
def server(rng):
    return CoordinationServer(k=8, d=2, rng=rng)


class TestHello:
    def test_grant_contents(self, server):
        grant = server.hello()
        assert grant.node_id == 0
        assert len(grant.assignments) == 2
        # first joiner's parents are the server on every thread
        assert all(a.parent == SERVER for a in grant.assignments)
        assert grant.redirects == ()

    def test_ids_are_sequential(self, server):
        ids = [server.hello().node_id for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_parents_are_hanging_owners(self, server):
        first = server.hello(columns=[0, 1])
        second = server.hello(columns=[1, 2])
        by_column = {a.column: a.parent for a in second.assignments}
        assert by_column[1] == first.node_id
        assert by_column[2] == SERVER

    def test_rejected_hello_issues_no_id(self, server, rng):
        """A hello the matrix refuses must not burn an id: one that was
        never admitted would read as departed forever."""
        server.hello()
        state = rng.bit_generator.state
        for bad in ({"columns": [1, 1]}, {"d": 9}, {"columns": [0, 8]}):
            with pytest.raises(ValueError):
                server.hello(**bad)
        assert rng.bit_generator.state == state
        assert server.issued == 1
        assert set(ServerEngine(server).departed) == set()
        assert server.hello().node_id == 1

    def test_heterogeneous_degree(self, server):
        grant = server.hello(d=4)
        assert len(grant.assignments) == 4
        assert server.registry[grant.node_id].nominal_degree == 4

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            CoordinationServer(k=4, d=5, rng=rng)
        with pytest.raises(ValueError):
            CoordinationServer(k=4, d=2, rng=rng, insert_mode="bogus")

    def test_append_mode_never_redirects(self, server):
        for _ in range(30):
            assert server.hello().redirects == ()

    def test_uniform_mode_redirects_displaced_children(self, rng):
        server = CoordinationServer(k=4, d=2, rng=rng, insert_mode="uniform")
        redirects = []
        for _ in range(40):
            redirects.extend(server.hello().redirects)
        assert redirects, "40 uniform inserts should displace someone"
        for redirect in redirects:
            assert redirect.child is not None


class TestGoodbye:
    def test_goodbye_redirects_each_thread(self, server):
        a = server.hello(columns=[0, 1]).node_id
        b = server.hello(columns=[0, 1]).node_id
        redirects = server.goodbye(a)
        assert len(redirects) == 2
        for redirect in redirects:
            assert redirect.parent == SERVER
            assert redirect.child == b
        assert a not in server.registry
        assert server.population == 1

    def test_goodbye_hanging_child_is_none(self, server):
        node = server.hello().node_id
        redirects = server.goodbye(node)
        assert all(r.child is None for r in redirects)

    def test_goodbye_failed_node_raises(self, server):
        node = server.hello().node_id
        server.fail(node)
        with pytest.raises(ValueError):
            server.goodbye(node)


class TestFailureAndRepair:
    def test_fail_marks_but_keeps_row(self, server):
        node = server.hello().node_id
        server.fail(node)
        assert node in server.failed
        assert server.population == 1
        assert server.registry[node].status is NodeStatus.FAILED
        assert not server.is_working(node)

    def test_fail_unknown_raises(self, server):
        with pytest.raises(KeyError):
            server.fail(404)

    def test_fail_idempotent(self, server):
        node = server.hello().node_id
        server.fail(node)
        server.fail(node)
        assert node in server.failed

    def test_repair_splices_and_clears(self, server):
        a = server.hello(columns=[0, 1]).node_id
        b = server.hello(columns=[0, 1]).node_id
        server.fail(a)
        redirects = server.repair(a)
        assert len(redirects) == 2
        assert a not in server.failed
        assert server.matrix.parents_of(b) == {0: SERVER, 1: SERVER}

    def test_repair_working_node_raises(self, server):
        node = server.hello().node_id
        with pytest.raises(ValueError):
            server.repair(node)

    def test_repair_all(self, server):
        nodes = [server.hello().node_id for _ in range(5)]
        for node in nodes[:3]:
            server.fail(node)
        server.repair_all()
        assert not server.failed
        assert server.population == 2

    def test_complaint_against_failed_parent(self, server):
        a = server.hello(columns=[0, 1]).node_id
        b = server.hello(columns=[0, 2]).node_id
        server.fail(a)
        complaint = server.complain(b, 0)
        assert complaint is not None
        assert complaint.suspect == a

    def test_spurious_complaint_returns_none(self, server):
        server.hello(columns=[0, 1])
        b = server.hello(columns=[0, 2]).node_id
        assert server.complain(b, 0) is None  # parent is healthy
        assert server.complain(b, 2) is None  # parent is the server


class TestCongestionNegotiation:
    def test_drop_and_restore(self, server):
        node = server.hello().node_id
        column = server.congestion_drop(node)
        assert column not in server.matrix.columns_of(node)
        assert server.registry[node].status is NodeStatus.CONGESTED
        server.congestion_restore(node)
        assert server.matrix.row(node).degree == 2
        assert server.registry[node].status is NodeStatus.WORKING

    def test_failed_node_cannot_negotiate(self, server):
        node = server.hello().node_id
        server.fail(node)
        with pytest.raises(ValueError):
            server.congestion_drop(node)
        with pytest.raises(ValueError):
            server.congestion_restore(node)


class TestMessageAccounting:
    def test_hello_counts(self, server):
        server.hello()
        assert server.stats.hello_requests == 1
        assert server.stats.hello_grants == 1

    def test_repair_cost_is_order_d(self, server):
        """The paper's efficiency claim: O(d) redirects per repair."""
        for _ in range(10):
            server.hello()
        before = server.stats.redirects
        victim = 5
        server.fail(victim)
        server.repair(victim)
        assert victim not in server.registry
        assert server.stats.redirects - before == 2  # exactly d redirects

    def test_total_is_sum(self, server):
        server.hello()
        server.goodbye(0)
        stats = server.stats
        assert stats.total() == (
            stats.hello_requests + stats.hello_grants + stats.goodbye_requests
            + stats.complaints + stats.redirects + stats.congestion_notices
        )
