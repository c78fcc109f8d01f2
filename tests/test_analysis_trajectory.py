"""Unit tests for defect trajectories and sparkline rendering."""

import pytest

from repro.analysis import measure_defect_trajectory
from repro.metrics import sparkline
from repro.theory import theorem4_prediction


class TestTrajectory:
    def test_shape(self):
        trajectory = measure_defect_trajectory(
            k=16, d=2, p=0.02, arrivals=200, sample_every=25, seed=1,
        )
        assert len(trajectory.points) == 8
        assert trajectory.points[-1].arrivals == 200
        assert all(0.0 <= v <= 2.0 for v in trajectory.values)

    def test_zero_p_zero_defect(self):
        trajectory = measure_defect_trajectory(
            k=16, d=2, p=0.0, arrivals=150, sample_every=50, seed=2,
        )
        assert trajectory.peak() == 0.0
        assert trajectory.steady_state_mean() == 0.0

    def test_steady_state_tracks_attractor(self):
        """The long-run mean stays within a small multiple of a1."""
        k, d, p = 32, 2, 0.02
        trajectory = measure_defect_trajectory(
            k=k, d=d, p=p, arrivals=600, sample_every=30, seed=3,
        )
        attractor = theorem4_prediction(k, d, p).attractor
        assert trajectory.steady_state_mean() <= 3.0 * attractor

    def test_failed_rows_recorded(self):
        trajectory = measure_defect_trajectory(
            k=16, d=2, p=0.5, arrivals=100, sample_every=50, seed=4,
        )
        assert trajectory.points[-1].failed_rows > 20

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_defect_trajectory(k=16, d=2, p=0.1, arrivals=10,
                                      sample_every=0)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_explicit_scale(self):
        line = sparkline([0.5], low=0.0, high=1.0)
        assert line in "▄▅"  # middle of the scale

    def test_length_matches(self):
        assert len(sparkline(range(13))) == 13


class TestTrajectoryCli:
    def test_command_runs(self, capsys):
        from repro.cli import main

        code = main(["trajectory", "--k", "16", "--d", "2", "--p", "0.02",
                     "--arrivals", "100", "--sample-every", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "drift attractor" in out

    def test_out_of_regime_handled(self, capsys):
        from repro.cli import main

        code = main(["trajectory", "--k", "10", "--d", "2", "--p", "0.2",
                     "--arrivals", "60", "--sample-every", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "too large" in out
