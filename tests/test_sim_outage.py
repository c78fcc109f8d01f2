"""Unit tests for the §2 ergodic outage model."""

import numpy as np
import pytest

from repro.coding import GenerationParams
from repro.core import OverlayNetwork
from repro.sim import OutageModel, rlnc


class TestOutageModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutageModel(onset=1.0)
        with pytest.raises(ValueError):
            OutageModel(onset=0.1, recovery=0.0)

    def test_stationary_fraction(self):
        model = OutageModel(onset=0.1, recovery=0.4)
        assert model.stationary_outage_fraction == pytest.approx(0.2)
        assert OutageModel(onset=0.0).stationary_outage_fraction == 0.0

    def test_advance_statistics(self, rng):
        model = OutageModel(onset=0.05, recovery=0.2)
        population = list(range(200))
        outaged: set[int] = set()
        samples = []
        for _ in range(400):
            model.advance(outaged, population, rng)
            samples.append(len(outaged))
        mean_fraction = np.mean(samples[100:]) / 200
        assert mean_fraction == pytest.approx(
            model.stationary_outage_fraction, abs=0.06
        )

    def test_zero_onset_noop(self, rng):
        model = OutageModel(onset=0.0)
        outaged: set[int] = set()
        model.advance(outaged, range(10), rng)
        assert outaged == set()


class TestOutagesInBroadcast:
    def _run(self, outage=None, seed=7):
        net = OverlayNetwork(k=12, d=3, seed=seed)
        net.grow(25)
        rng = np.random.default_rng(seed + 1)
        content = bytes(rng.integers(0, 256, size=1500, dtype=np.uint8))
        sim = rlnc(
            net, content, GenerationParams(8, 75), seed=seed + 2, outage=outage
        )
        return sim

    def test_outages_slow_but_do_not_corrupt(self):
        clean = self._run()
        flaky = self._run(outage=OutageModel(onset=0.05, recovery=0.3))
        clean_report = clean.run_until_complete(max_slots=1500)
        flaky_report = flaky.run_until_complete(max_slots=1500)
        assert flaky_report.completion_fraction == 1.0
        assert all(n.decoded_ok for n in flaky_report.nodes)
        assert max(flaky_report.completion_slots()) >= max(
            clean_report.completion_slots()
        )

    def test_outaged_nodes_do_not_receive(self):
        sim = self._run(outage=OutageModel(onset=0.9, recovery=0.01))
        sim.run(5)
        # with near-total outage, almost nothing gets delivered
        delivered = sim.link_stats.delivered
        clean = self._run()
        clean.run(5)
        assert delivered < clean.link_stats.delivered

    def test_no_repairs_triggered_by_outages(self):
        """Ergodic failures never touch the matrix: no rows removed."""
        sim = self._run(outage=OutageModel(onset=0.1, recovery=0.2))
        net = sim.topology.net
        before = net.population
        sim.run(40)
        assert net.population == before
        assert net.failed == frozenset()

    def test_outage_state_recovers(self):
        sim = self._run(outage=OutageModel(onset=0.2, recovery=0.9))
        sim.run(60)
        # high recovery: the outaged set stays small
        assert len(sim.outaged) <= 10


class TestProtocolInsertMode:
    def test_uniform_mode_deployment(self, deploy):
        async def script(h):
            assert h.server.core.insert_mode == "uniform"
            assert h.check_structure(), h.violations

        deploy(script, peers=25, k=10, seed=4, insert_mode="uniform")
