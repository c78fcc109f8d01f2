"""Unit tests for workload generators, scenarios, and metrics."""

import numpy as np
import pytest

from repro.metrics import format_cell, render_table
from repro.sim import file_download, flash_crowd, live_streaming
from repro.workloads import flash_crowd_schedule, steady_schedule


class TestSchedules:
    def test_steady_statistics(self, rng):
        schedule = steady_schedule(500, 3.0, rng)
        assert len(schedule) == 500
        assert 2.5 < np.mean(schedule) < 3.5

    def test_steady_validation(self, rng):
        with pytest.raises(ValueError):
            steady_schedule(-1, 3.0, rng)

    def test_flash_crowd_peaks_at_peak(self, rng):
        schedule = flash_crowd_schedule(
            100, peak_rate=50.0, peak_at=40, width=5.0, rng=rng
        )
        peak_window = sum(schedule[35:46])
        off_window = sum(schedule[:10]) + sum(schedule[90:])
        assert peak_window > 5 * max(1, off_window)

    def test_flash_crowd_validation(self, rng):
        with pytest.raises(ValueError):
            flash_crowd_schedule(10, 5.0, 5, width=0.0, rng=rng)


class TestScenarios:
    def test_presets_have_sane_geometry(self):
        for preset in (live_streaming, file_download, flash_crowd):
            config = preset(seed=1)
            assert config.k >= config.d
            assert config.population > 0
            assert config.seed == 1

    def test_overrides_applied(self):
        config = live_streaming(seed=2, population=10, k=16)
        assert config.population == 10
        assert config.k == 16

    def test_scenarios_run_end_to_end(self):
        """Scaled-down versions of each preset must complete."""
        from repro.sim import run_session

        for preset in (live_streaming, file_download, flash_crowd):
            config = preset(
                seed=3, population=12, content_size=600, generation_size=6,
                payload_size=32, max_slots=900, join_rate=0,
                fail_probability=0.0, leave_probability=0.0, loss_rate=0.0,
            )
            result = run_session(config)
            assert result.report.completion_fraction == 1.0


class TestReportRendering:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(3) == "3"
        assert format_cell(0.25) == "0.25"
        assert format_cell(1e-9) == "1e-09"
        assert format_cell(123456.0) == "1.235e+05"

    def test_render_table_alignment(self):
        table = render_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])
