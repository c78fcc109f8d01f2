"""Unit tests for defect accounting (the Theorem 4 quantities)."""

import pytest

from repro.analysis import (
    TupleConnectivitySolver,
    exact_defect,
    sampled_defect,
    tuple_space_size,
)
from repro.analysis import defects
from repro.core import OverlayNetwork, ThreadMatrix


class TestTupleSpace:
    def test_counts(self):
        assert tuple_space_size(6, 2) == 15
        assert tuple_space_size(10, 3) == 120
        assert tuple_space_size(4, 4) == 1


class TestExactDefect:
    def test_healthy_network_no_defects(self, tiny_net):
        summary = exact_defect(tiny_net.matrix, 2)
        assert summary.mean_defect == 0.0
        assert summary.bad_fraction == 0.0
        assert summary.histogram[0] == 1.0
        assert summary.exact

    def test_histogram_sums_to_one(self, tiny_net):
        tiny_net.fail(tiny_net.matrix.node_ids[-1])
        summary = exact_defect(tiny_net.matrix, 2, tiny_net.failed)
        assert sum(summary.histogram) == pytest.approx(1.0)

    def test_mean_matches_histogram(self, tiny_net):
        tiny_net.fail(tiny_net.matrix.node_ids[-1])
        summary = exact_defect(tiny_net.matrix, 2, tiny_net.failed)
        expected = sum(j * h for j, h in enumerate(summary.histogram))
        assert summary.mean_defect == pytest.approx(expected)

    def test_single_failure_defect_formula(self, rng):
        """One bottom node failing with fresh rod threads around it."""
        m = ThreadMatrix(k=4)
        m.join(0, 2, rng, columns=[0, 1])
        # hanging: col0 -> node0 (dead if failed), col1 -> node0, col2/3 -> rod
        summary = exact_defect(m, 2, failed={0})
        # tuples: {0,1} defect 2; {0,2},{0,3},{1,2},{1,3} defect 1; {2,3} defect 0
        assert summary.mean_defect == pytest.approx((2 + 4 * 1) / 6)
        assert summary.bad_fraction == pytest.approx(5 / 6)

    def test_guard_on_huge_space(self, rng, monkeypatch):
        monkeypatch.setattr(defects, "MAX_EXACT_TUPLES", 1000)
        net = OverlayNetwork(k=40, d=5, seed=1)
        net.grow(5)
        with pytest.raises(ValueError):
            exact_defect(net.matrix, 5)

    def test_normalized_defect(self, rng):
        m = ThreadMatrix(k=4)
        m.join(0, 2, rng, columns=[0, 1])
        summary = exact_defect(m, 2, failed={0})
        assert summary.normalized_defect == pytest.approx(summary.mean_defect / 2)


class TestSampledDefect:
    def test_agrees_with_exact_on_small_net(self, tiny_net, rng):
        tiny_net.fail(tiny_net.matrix.node_ids[-1])
        tiny_net.fail(tiny_net.matrix.node_ids[-2])
        exact = exact_defect(tiny_net.matrix, 2, tiny_net.failed)
        sampled = sampled_defect(
            tiny_net.matrix, 2, rng, samples=4000, failed=tiny_net.failed
        )
        assert sampled.mean_defect == pytest.approx(exact.mean_defect, abs=0.05)
        assert sampled.bad_fraction == pytest.approx(exact.bad_fraction, abs=0.05)

    def test_zero_samples_rejected(self, tiny_net, rng):
        with pytest.raises(ValueError):
            sampled_defect(tiny_net.matrix, 2, rng, samples=0)

    def test_not_exact_flag(self, tiny_net, rng):
        summary = sampled_defect(tiny_net.matrix, 2, rng, samples=10)
        assert not summary.exact
        assert summary.samples == 10


class TestDefectOfColumns:
    def test_explicit_tuple(self, rng):
        m = ThreadMatrix(k=4)
        m.join(0, 2, rng, columns=[0, 1])
        assert TupleConnectivitySolver(m).defect((2, 3)) == 0
        assert TupleConnectivitySolver(m, {0}).defect((0, 1)) == 2

    def test_fresh_arrival_defect_is_its_connectivity_loss(self, small_net):
        """Lemma 3 sanity: the defect of the tuple a node picked equals
        d minus the connectivity it actually got."""
        victim = small_net.matrix.node_ids[5]
        small_net.fail(victim)
        grant = small_net.join()
        columns = tuple(a.column for a in grant.assignments)
        # measure as if the node had not yet joined: use pre-join structure
        # by removing it again
        connectivity = small_net.connectivity(grant.node_id)
        small_net.leave(grant.node_id)
        defect = TupleConnectivitySolver(
            small_net.matrix, small_net.failed).defect(columns)
        assert defect == small_net.d - connectivity
