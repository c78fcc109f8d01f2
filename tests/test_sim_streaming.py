"""Unit tests for the streaming playback monitor."""

import numpy as np
import pytest

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import LossModel, rlnc
from repro.sim.streaming import PlaybackMonitor


def make_monitor(window=6, startup_delay=8, loss=0.0, seed=5, population=20):
    net = OverlayNetwork(k=12, d=3, seed=seed)
    net.grow(population)
    rng = np.random.default_rng(seed + 1)
    content = bytes(rng.integers(0, 256, size=4800, dtype=np.uint8))
    sim = rlnc(
        net, content, GenerationParams(8, 100), seed=seed + 2,
        loss=LossModel(loss),
    )
    return PlaybackMonitor(sim=sim, window=window, startup_delay=startup_delay), net


class TestPlayback:
    def test_generous_deadlines_no_stalls(self):
        monitor, _ = make_monitor(window=20, startup_delay=20)
        monitor.run(220)
        continuity = monitor.continuity_summary()
        assert continuity
        assert all(value == 1.0 for value in continuity.values())

    def test_impossible_deadlines_stall(self):
        monitor, _ = make_monitor(window=1, startup_delay=0)
        monitor.run(120)
        continuity = monitor.continuity_summary()
        assert any(value < 1.0 for value in continuity.values())

    def test_report_fields(self):
        monitor, net = make_monitor(window=10, startup_delay=10)
        monitor.run(180)
        node = net.matrix.node_ids[0]
        report = monitor.report(node)
        assert report is not None
        assert report.windows == monitor.sim.behavior.generation_count
        assert 0 <= report.stalls <= report.windows
        assert report.continuity == pytest.approx(
            1.0 - report.stalls / report.windows
        )

    def test_unheard_node_reports_none(self):
        monitor, net = make_monitor()
        # no slots run yet: nobody has heard anything
        assert monitor.report(net.matrix.node_ids[0]) is None

    def test_startup_delay_trades_stalls(self):
        """More client buffering strictly reduces stalls."""
        short, _ = make_monitor(window=4, startup_delay=0, seed=9)
        long, _ = make_monitor(window=4, startup_delay=30, seed=9)
        short.run(200)
        long.run(200)
        short_stalls = sum(
            short.report(n).stalls for n in short.continuity_summary()
        )
        long_stalls = sum(
            long.report(n).stalls for n in long.continuity_summary()
        )
        assert long_stalls <= short_stalls

    def test_loss_hurts_continuity(self):
        clean, _ = make_monitor(window=4, startup_delay=6, seed=11)
        lossy, _ = make_monitor(window=4, startup_delay=6, loss=0.2, seed=11)
        clean.run(200)
        lossy.run(200)
        clean_mean = np.mean(list(clean.continuity_summary().values()))
        lossy_mean = np.mean(list(lossy.continuity_summary().values()))
        assert lossy_mean <= clean_mean

    def test_validation(self):
        with pytest.raises(ValueError):
            make_monitor(window=0)
        with pytest.raises(ValueError):
            make_monitor(startup_delay=-1)
