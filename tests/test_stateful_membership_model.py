"""Model-based stateful test: indexed membership vs a naive reference.

The coordination server keeps derived membership state — the working
set, the failure set, the registry — in incrementally-maintained
indexes so queries never rescan the registry at 10k peers.  Index
bookkeeping is exactly the kind of code that rots silently: one missed
``discard`` on an obscure path and ``working_nodes`` disagrees with
the registry forever after.

This machine replays every membership verb against both the real
server and a deliberately naive reference model (one dict, statuses
recomputed by full scan on every query) and requires the two to agree
after every step.  The reference is too slow to ship and trivially
correct — which is the point: any divergence is a bug in the indexed
implementation, not in the model.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import CoordinationServer
from repro.core.matrix import SERVER

K, D = 8, 2


class NaiveMembership:
    """The obviously-correct model: one dict, scans for every query."""

    def __init__(self) -> None:
        self.next_id = 0
        self.status: dict[int, str] = {}  # node_id -> "working" | "failed"

    def hello(self) -> int:
        node_id = self.next_id
        self.next_id += 1
        self.status[node_id] = "working"
        return node_id

    def goodbye(self, node_id: int) -> None:
        assert self.status[node_id] == "working"
        del self.status[node_id]

    def fail(self, node_id: int) -> None:
        self.status[node_id] = "failed"

    def repair(self, node_id: int) -> None:
        assert self.status[node_id] == "failed"
        del self.status[node_id]

    @property
    def members(self) -> set[int]:
        return set(self.status)

    @property
    def working(self) -> list[int]:
        return sorted(n for n, s in self.status.items() if s == "working")

    @property
    def failed(self) -> set[int]:
        return {n for n, s in self.status.items() if s == "failed"}


class MembershipModelMachine(RuleBasedStateMachine):
    insert_mode = "append"

    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0xBEE5)
        self.server = CoordinationServer(
            K, D, self.rng, insert_mode=self.insert_mode
        )
        self.model = NaiveMembership()

    # ------------------------------------------------------------------
    # Rules: every verb hits both implementations.

    @rule()
    def hello(self):
        if self.server.population >= 64:
            return
        grant = self.server.hello()
        expected = self.model.hello()
        assert grant.node_id == expected

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def goodbye(self, pick):
        working = self.model.working
        if not working:
            return
        victim = working[pick % len(working)]
        self.server.goodbye(victim)
        self.model.goodbye(victim)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def fail(self, pick):
        working = self.model.working
        if not working:
            return
        victim = working[pick % len(working)]
        self.server.fail(victim)
        self.model.fail(victim)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def repair_one(self, pick):
        failed = sorted(self.model.failed)
        if not failed:
            return
        victim = failed[pick % len(failed)]
        self.server.repair(victim)
        self.model.repair(victim)

    @rule()
    def repair_all(self):
        self.server.repair_all()
        for victim in sorted(self.model.failed):
            self.model.repair(victim)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def complain(self, pick):
        """Complaints must validate against the *model's* failure set."""
        working = self.model.working
        if not working:
            return
        reporter = working[pick % len(working)]
        columns = sorted(self.server.matrix.columns_of(reporter))
        column = columns[pick % len(columns)]
        suspect = self.server.matrix.parent_in_column(reporter, column)
        complaint = self.server.complain(reporter, column)
        if suspect == SERVER or suspect not in self.model.failed:
            assert complaint is None
        else:
            assert complaint is not None
            assert complaint.suspect == suspect

    # ------------------------------------------------------------------
    # Invariants: the indexed state must match a full naive scan.

    @invariant()
    def registry_matches_model(self):
        assert set(self.server.registry) == self.model.members

    @invariant()
    def working_index_matches_scan(self):
        assert sorted(self.server.working_nodes) == self.model.working

    @invariant()
    def failed_set_matches_model(self):
        assert set(self.server.failed) == self.model.failed

    @invariant()
    def is_working_agrees_pointwise(self):
        for node_id in self.model.members:
            assert self.server.is_working(node_id) == (
                self.model.status[node_id] == "working"
            )
        # And a few ids that must NOT be present any more.
        for node_id in range(max(0, self.model.next_id - 3), self.model.next_id):
            if node_id not in self.model.members:
                assert not self.server.is_working(node_id)


class UniformMembershipModelMachine(MembershipModelMachine):
    """Same model, uniform insertion (the indexed candidate sampler)."""

    insert_mode = "uniform"


TestMembershipModel = MembershipModelMachine.TestCase
TestMembershipModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)

TestUniformMembershipModel = UniformMembershipModelMachine.TestCase
TestUniformMembershipModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
