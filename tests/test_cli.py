"""Unit tests for the command-line interface."""

import os
import re
import socket
import subprocess
import sys
from pathlib import Path

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


class TestJoinGivesUp:
    """``repro join`` is bounded by ``--deadline`` from the first dial:
    a server that never grants, or nothing listening at all, is one
    line on stderr and exit status 1."""

    @staticmethod
    def _join(port: int) -> "subprocess.CompletedProcess":
        src = Path(__file__).parent.parent / "src"
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "join", "--port", str(port),
             "--deadline", "1"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(src), os.environ.get("PYTHONPATH", "")])},
        )

    def test_silent_server_times_out(self):
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen()
            port = silent.getsockname()[1]
            result = self._join(port)
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [
            f"join: not admitted by 127.0.0.1:{port}: no grant within 1s"]

    def test_refused_port_is_one_line(self):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        result = self._join(port)
        assert result.returncode == 1
        (line,) = result.stderr.strip().splitlines()
        assert line.startswith(f"join: not admitted by 127.0.0.1:{port}: ")
        assert "Traceback" not in result.stderr
