"""Unit tests for §5 congestion handling."""

import pytest

from repro.core import CongestionController, CoordinationServer, congestion


@pytest.fixture
def server(rng):
    server = CoordinationServer(k=10, d=3, rng=rng)
    for _ in range(8):
        server.hello()
    return server


@pytest.fixture
def controller(server):
    return CongestionController(server, restore_after=3)


class TestDropPolicy:
    def test_no_drop_before_threshold(self, controller):
        assert controller.observe(0, congested=True) is None
        assert controller.server.matrix.row(0).degree == 3

    def test_drop_at_threshold(self, controller):
        controller.observe(0, congested=True)
        event = controller.observe(0, congested=True)
        assert event is not None and event.action == "drop"
        assert controller.server.matrix.row(0).degree == 2
        assert controller.shed_count(0) == 1

    def test_calm_resets_streak(self, controller):
        controller.observe(0, congested=True)
        controller.observe(0, congested=False)
        assert controller.observe(0, congested=True) is None

    def test_min_degree_floor(self, server, monkeypatch):
        monkeypatch.setattr(congestion, "DROP_AFTER", 1)
        monkeypatch.setattr(congestion, "MIN_DEGREE", 2)
        controller = CongestionController(server, restore_after=100)
        assert controller.observe(0, congested=True).action == "drop"
        assert controller.observe(0, congested=True) is None  # at the floor
        assert server.matrix.row(0).degree == 2

    def test_consecutive_drops(self, server, monkeypatch):
        monkeypatch.setattr(congestion, "DROP_AFTER", 1)
        controller = CongestionController(server, restore_after=100)
        controller.observe(0, congested=True)
        controller.observe(0, congested=True)
        assert server.matrix.row(0).degree == 1
        assert controller.shed_count(0) == 2


class TestRestorePolicy:
    def test_restore_after_calm(self, controller):
        controller.observe(0, congested=True)
        controller.observe(0, congested=True)  # drop
        for _ in range(2):
            assert controller.observe(0, congested=False) is None
        event = controller.observe(0, congested=False)
        assert event is not None and event.action == "restore"
        assert controller.server.matrix.row(0).degree == 3

    def test_no_restore_above_nominal(self, controller):
        for _ in range(5):
            assert controller.observe(0, congested=False) is None
        assert controller.server.matrix.row(0).degree == 3

    def test_events_recorded(self, controller):
        controller.observe(0, congested=True)
        controller.observe(0, congested=True)
        for _ in range(3):
            controller.observe(0, congested=False)
        actions = [e.action for e in controller.events]
        assert actions == ["drop", "restore"]

    def test_matrix_stays_consistent(self, controller):
        for round_ in range(20):
            congested = round_ % 3 == 0
            for node in (0, 1, 2):
                controller.observe(node, congested)
        controller.server.matrix.check_invariants()


class TestValidation:
    def test_unknown_node_raises(self, controller):
        with pytest.raises(KeyError):
            controller.observe(999, congested=True)

    def test_invalid_parameters(self, server):
        with pytest.raises(ValueError):
            CongestionController(server, restore_after=0)
