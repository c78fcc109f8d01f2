"""Unit tests for failure models."""

import numpy as np
import pytest

from repro.core import OverlayNetwork
from repro.failures import (
    CohortBatchFailures,
    IIDFailures,
    RandomBatchFailures,
    apply_failures,
)


@pytest.fixture
def net():
    net = OverlayNetwork(k=16, d=2, seed=13)
    net.grow(100)
    return net


class TestIIDFailures:
    def test_zero_p_nobody_fails(self, net, rng):
        assert IIDFailures(0.0).select(net, rng) == []

    def test_one_p_everyone_fails(self, net, rng):
        assert len(IIDFailures(1.0).select(net, rng)) == 100

    def test_rate_statistics(self, net, rng):
        counts = [len(IIDFailures(0.2).select(net, rng)) for _ in range(200)]
        assert 15 < np.mean(counts) < 25

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            IIDFailures(1.5)

    def test_selects_only_working(self, net, rng):
        net.fail(0)
        victims = IIDFailures(1.0).select(net, rng)
        assert 0 not in victims


class TestBatchModels:
    def test_random_batch_size(self, net, rng):
        victims = RandomBatchFailures(0.25).select(net, rng)
        assert len(victims) == 25
        assert len(set(victims)) == 25

    def test_random_batch_zero(self, net, rng):
        assert RandomBatchFailures(0.0).select(net, rng) == []

    def test_cohort_is_contiguous_in_join_order(self, net, rng):
        victims = CohortBatchFailures(0.2).select(net, rng)
        assert len(victims) == 20
        ordered = sorted(victims)
        assert ordered == list(range(ordered[0], ordered[0] + 20))

    def test_cohort_full_fraction(self, net, rng):
        victims = CohortBatchFailures(1.0).select(net, rng)
        assert len(victims) == 100

    def test_invalid_fractions(self):
        for model in (RandomBatchFailures, CohortBatchFailures):
            with pytest.raises(ValueError):
                model(1.2)


class TestApplyFailures:
    def test_apply_marks_network(self, net, rng):
        victims = apply_failures(net, RandomBatchFailures(0.1), rng)
        assert set(victims) == set(net.failed)
        assert len(net.working_nodes) == 90

    def test_apply_iid_then_repair(self, net, rng):
        apply_failures(net, IIDFailures(0.3), rng)
        net.repair_all()
        assert net.failed == frozenset()
        net.matrix.check_invariants()
