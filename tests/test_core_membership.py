"""Unit tests for the §4 membership processes."""

import pytest

from repro.core import OverlayNetwork, churn_epochs, sequential_arrivals


class TestSequentialArrivals:
    def test_count_and_records(self):
        net = OverlayNetwork(k=10, d=2, seed=1)
        records = sequential_arrivals(net, 50, p=0.0)
        assert len(records) == 50
        assert net.population == 50
        assert not any(r.failed_on_arrival for r in records)

    def test_all_fail_when_p_one(self):
        net = OverlayNetwork(k=10, d=2, seed=2)
        records = sequential_arrivals(net, 20, p=1.0)
        assert all(r.failed_on_arrival for r in records)
        assert len(net.failed) == 20

    def test_failure_rate_approximates_p(self):
        net = OverlayNetwork(k=20, d=2, seed=3)
        records = sequential_arrivals(net, 2000, p=0.1)
        rate = sum(r.failed_on_arrival for r in records) / len(records)
        assert 0.07 < rate < 0.13

    def test_no_repair_accumulates(self):
        net = OverlayNetwork(k=10, d=2, seed=5)
        sequential_arrivals(net, 100, p=0.3)
        assert len(net.failed) > 10

    def test_invalid_p_raises(self):
        net = OverlayNetwork(k=10, d=2, seed=7)
        with pytest.raises(ValueError):
            sequential_arrivals(net, 5, p=1.5)


class TestChurnEpochs:
    def test_population_evolves(self):
        net = OverlayNetwork(k=12, d=2, seed=8)
        net.grow(30)
        history = churn_epochs(
            net, epochs=10, join_rate=3, leave_probability=0.05,
            failure_probability=0.05,
        )
        assert len(history) == 10
        assert history[-1].population == net.population
        assert net.failed == frozenset()  # every epoch ends repaired
        net.matrix.check_invariants()

    def test_epoch_stats_consistent(self):
        net = OverlayNetwork(k=12, d=2, seed=9)
        net.grow(20)
        history = churn_epochs(
            net, epochs=5, join_rate=2, leave_probability=0.1,
            failure_probability=0.1,
        )
        for epoch in history:
            assert epoch.joins == 2
            assert epoch.repairs == epoch.failures

    def test_min_population_respected(self):
        net = OverlayNetwork(k=12, d=2, seed=10)
        net.grow(5)
        churn_epochs(
            net, epochs=20, join_rate=0, leave_probability=0.9,
            failure_probability=0.0, min_population=3,
        )
        assert net.population >= 3
