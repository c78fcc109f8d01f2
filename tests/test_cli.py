"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "nonsense"])

    def test_defaults(self):
        args = build_parser().parse_args(["overlay"])
        assert args.k == 24 and args.d == 3 and args.peers == 200

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.peers == 8 and args.kill == -1 and args.deadline == 60.0

    def test_join_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join"])


class TestCommands:
    def test_overlay(self, capsys):
        code = main(["overlay", "--k", "10", "--d", "2", "--peers", "30",
                     "--defect-samples", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "connectivity histogram" in out
        assert "depth" in out

    def test_overlay_with_failures_and_uniform(self, capsys):
        code = main(["overlay", "--k", "10", "--d", "2", "--peers", "30",
                     "--fail", "3", "--insert-mode", "uniform",
                     "--defect-samples", "30"])
        assert code == 0
        assert "failed=3" in capsys.readouterr().out

    def test_collapse(self, capsys):
        code = main(["collapse", "--k", "10", "--d", "2", "--p", "0.05",
                     "--runs", "2", "--max-steps", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean collapse steps" in out

    def test_demo_small(self, capsys):
        code = main(["demo", "--peers", "3", "--k", "3", "--d", "2",
                     "--g", "6", "--payload", "32", "--generations", "1",
                     "--seed", "2", "--deadline", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: True" in out
        assert "corrupt decodes: 0" in out

    def test_demo_kill_reports_repair(self, capsys):
        code = main(["demo", "--peers", "4", "--k", "4", "--d", "2",
                     "--g", "8", "--payload", "32", "--generations", "2",
                     "--seed", "5", "--deadline", "30", "--kill", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: True" in out
        assert "corrupt decodes: 0" in out
        repairs = int(re.search(r"repairs: (\d+)", out).group(1))
        assert repairs >= 1

    def test_demo_rejects_out_of_range_kill(self, capsys):
        assert main(["demo", "--peers", "3", "--kill", "3"]) == 2
        assert "--kill" in capsys.readouterr().err

    def test_scenario_small(self, capsys):
        code = main(["scenario", "file_download", "--seed", "1",
                     "--population", "10", "--max-slots", "600"])
        out = capsys.readouterr().out
        assert code == 0
        assert "completion" in out
        assert "corrupt decodes: 0" in out

    def test_soak_smoke(self, capsys, tmp_path):
        trace_path = tmp_path / "soak_trace.json"
        code = main(["soak", "--peers", "48", "--hours", "0.05",
                     "--epoch", "30", "--trace", "steady", "--seed", "0",
                     "--trace-out", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "soak steady n=48" in out
        assert "epochs=6/6" in out
        assert trace_path.exists()

    def test_soak_smoke_preset_shrinks_horizon(self):
        args = build_parser().parse_args(["soak", "--smoke"])
        assert args.smoke and args.peers == 1000 and args.hours == 2.0
