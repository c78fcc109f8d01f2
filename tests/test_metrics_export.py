"""The shared summary-statistics module and the reports built on it."""

import warnings

import pytest

from repro.metrics import stats


class TestSharedStats:
    def test_empty_inputs_yield_defined_values_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-mean warns
            assert stats.mean([]) == 0.0
            assert stats.std([]) == 0.0
            assert stats.std([4.0]) == 0.0
            assert stats.minimum([]) == 0.0
            assert stats.maximum([]) == 0.0
            assert stats.percentile([], 95) == 0.0
            assert stats.summary([]) == {
                "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "n": 0.0,
            }

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError, match="percentile"):
            stats.percentile([1.0], 101)

    def test_summary_matches_hand_computation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        result = stats.summary(values)
        assert result["mean"] == pytest.approx(2.5)
        assert result["min"] == 1.0
        assert result["max"] == 4.0
        assert result["n"] == 4.0
        assert stats.percentile(values, 50) == pytest.approx(2.5)


class TestReportEdgeCases:
    def test_flooding_report_tolerates_zero_needed(self):
        from repro.sim.links import LinkStats
        from repro.sim.report import NodeReport, RunReport

        report = RunReport(
            slots=5,
            nodes=[NodeReport(node_id=1, rank=0, needed=0, completed_at=0,
                              received=0, innovative=0, decoded_ok=None)],
            link_stats=LinkStats(),
            server_packets=0,
        )
        assert report.mean_unique_fraction == 1.0

    def test_empty_run_percentiles_are_zero(self):
        from repro.sim.report import completion_percentile, mean_completion_slot

        assert mean_completion_slot([]) == 0.0
        assert completion_percentile([], 95) == 0.0
