"""Theorem-level validations: each test checks one claim of the paper
directly against the implementation (small-scale versions of the E1–E12
benchmark experiments).
"""


import numpy as np
import pytest

from repro.analysis import exact_defect, ks_same_distribution, sampled_defect
from repro.coding import GenerationParams
from repro.core import OverlayNetwork, RandomGraphOverlay, sequential_arrivals
from repro.failures import CohortBatchFailures, RandomBatchFailures, apply_failures
from repro.sim import rlnc
from repro.theory import lemma6_max_jump_fraction, theorem4_prediction


class TestLemma1LeaveInvariance:
    """Graceful leaves preserve the distribution of M."""

    @staticmethod
    def _column_load_histogram(samples, k, d, churned):
        """Distribution of per-column occupancy counts over many runs."""
        loads = []
        for seed in range(samples):
            net = OverlayNetwork(k=k, d=d, seed=seed)
            if churned:
                net.grow(30)
                # leave 10 random nodes gracefully
                for _ in range(10):
                    net.leave(net.random_working_node())
            else:
                net.grow(20)
            loads.extend(len(net.matrix.column_chain(c)) for c in range(k))
        return loads

    def test_column_loads_match(self):
        """20 direct joins vs 30 joins + 10 graceful leaves: same law."""
        direct = self._column_load_histogram(60, k=8, d=2, churned=False)
        churned = self._column_load_histogram(60, k=8, d=2, churned=True)
        _, p_value = ks_same_distribution(direct, churned)
        assert p_value > 0.01

    def test_connectivity_unharmed_by_leaves(self):
        net = OverlayNetwork(k=10, d=2, seed=3)
        net.grow(60)
        for _ in range(25):
            net.leave(net.random_working_node())
        assert all(c == 2 for c in net.connectivities().values())


class TestTheorem4DefectBound:
    """Steady-state defect stays ≲ (1+ε)pd; failures are locally contained."""

    def test_defect_tracks_pd(self):
        k, d, p = 20, 2, 0.02
        net = OverlayNetwork(k=k, d=d, seed=5)
        rng = np.random.default_rng(6)
        sequential_arrivals(net, 400, p=p, rng=rng, repair_interval=None)
        summary = sampled_defect(net.matrix, d, rng, samples=600, failed=net.failed)
        prediction = theorem4_prediction(k, d, p)
        # measured mean defect must not exceed the drift attractor by much
        assert summary.mean_defect <= 2.0 * max(prediction.attractor, p * d)

    def test_defect_flat_in_population(self):
        """The loss probability must NOT grow with N (the headline claim)."""
        k, d, p = 20, 2, 0.02
        rng = np.random.default_rng(7)
        levels = []
        for count in (200, 400, 800):
            net = OverlayNetwork(k=k, d=d, seed=8)
            sequential_arrivals(net, count, p=p, rng=np.random.default_rng(9),
                                repair_interval=None)
            summary = sampled_defect(net.matrix, d, rng, samples=500,
                                     failed=net.failed)
            levels.append(summary.mean_defect)
        assert max(levels) <= 0.12  # all small
        # no growth trend: the largest network is not much worse than the smallest
        assert levels[-1] <= levels[0] + 0.08

    def test_failure_impact_is_local(self):
        """Only children of a failed node lose connectivity — grandchildren
        and unrelated nodes keep full d (with overwhelming probability in a
        healthy net)."""
        net = OverlayNetwork(k=24, d=3, seed=10)
        net.grow(150)
        victim = net.matrix.node_ids[40]
        children = {
            c for c in net.matrix.children_of(victim).values() if c is not None
        }
        net.fail(victim)
        connectivities = net.connectivities()
        harmed = {n for n, c in connectivities.items() if 0 < c < 3}
        assert harmed <= children
        assert all(c == 3 for n, c in connectivities.items()
                   if n not in children and n != victim)


class TestLemma6JumpBound:
    """One arrival changes B by at most (d²/k)·A — verified exactly."""

    def test_exact_jump_bound_over_arrival_sequence(self):
        k, d = 8, 2
        net = OverlayNetwork(k=k, d=d, seed=11)
        rng = np.random.default_rng(12)
        bound = lemma6_max_jump_fraction(k, d)
        previous = exact_defect(net.matrix, d).mean_defect / d  # == 0
        for step in range(40):
            grant = net.join()
            if rng.random() < 0.3:
                net.fail(grant.node_id)
            summary = exact_defect(net.matrix, d, net.failed)
            current = summary.mean_defect  # == B/A
            assert abs(current - previous) <= bound + 1e-9
            previous = current

    def test_bound_attained_by_first_failure(self):
        """The paper notes the bound is attained by an initial failed node."""
        k, d = 8, 2
        net = OverlayNetwork(k=k, d=d, seed=13)
        grant = net.join()
        net.fail(grant.node_id)
        summary = exact_defect(net.matrix, d, net.failed)
        jump = summary.mean_defect
        assert jump == pytest.approx(lemma6_max_jump_fraction(k, d), rel=1e-9)


class TestSection5Adversaries:
    """Random-subset batch failures ≈ iid; arrival-coordinated cohorts are
    defused by uniform row insertion."""

    @staticmethod
    def _connectivity_losses(insert_mode, model, seed):
        net = OverlayNetwork(k=16, d=2, seed=seed, insert_mode=insert_mode)
        net.grow(200)
        apply_failures(net, model, np.random.default_rng(seed + 1))
        survivors = net.working_nodes
        connectivities = net.connectivities(survivors)
        return [2 - connectivities[n] for n in survivors]

    def test_random_batch_equals_cohort_under_uniform_insertion(self):
        """With §5 random insertion, a coordinated cohort looks random."""
        cohort_losses, random_losses = [], []
        for seed in range(8):
            cohort_losses.extend(
                self._connectivity_losses("uniform", CohortBatchFailures(0.15), seed)
            )
            random_losses.extend(
                self._connectivity_losses("uniform", RandomBatchFailures(0.15),
                                          seed + 100)
            )
        assert np.mean(cohort_losses) <= np.mean(random_losses) + 0.05

    def test_mean_loss_close_to_pd_per_thread(self):
        """Batch failing fraction p: survivors lose ≈ p per thread."""
        losses = []
        for seed in range(6):
            losses.extend(
                self._connectivity_losses("append", RandomBatchFailures(0.1), seed)
            )
        mean_loss_fraction = np.mean(losses) / 2  # per-thread loss
        assert 0.05 <= mean_loss_fraction <= 0.2  # ≈ p = 0.1


class TestSection6Delay:
    """Curtain delay is linear in N; random-graph delay is logarithmic."""

    def test_curtain_depth_linear(self):
        depths = {}
        for count in (150, 300, 600):
            net = OverlayNetwork(k=12, d=3, seed=15)
            net.grow(count)
            depths[count] = max(net.graph().depths_from_server().values())
        # doubling N roughly doubles the max depth
        assert depths[300] >= 1.5 * depths[150]
        assert depths[600] >= 1.5 * depths[300]

    def test_random_graph_depth_logarithmic(self):
        depths = {}
        for count in (150, 300, 600):
            overlay = RandomGraphOverlay(k=12, d=3, seed=16)
            overlay.grow(count)
            depths[count] = max(overlay.depths_from_server().values())
        # doubling N adds only a constant-ish number of hops
        assert depths[600] - depths[300] <= 6
        assert depths[600] < 0.2 * 600

    def test_curtain_remains_acyclic_random_graph_does_not(self):
        net = OverlayNetwork(k=12, d=3, seed=17)
        net.grow(200)
        assert net.graph().is_acyclic()
        overlay = RandomGraphOverlay(k=12, d=3, seed=18)
        overlay.grow(200)
        assert not overlay.is_acyclic()


class TestNetworkCodingAchievesConnectivity:
    """Ahlswede et al. applied: RLNC goodput ≈ min-cut connectivity."""

    def test_full_rate_without_failures(self):
        net = OverlayNetwork(k=10, d=2, seed=19)
        net.grow(20)
        rng = np.random.default_rng(20)
        generation_size = 10
        content = bytes(rng.integers(0, 256, size=generation_size * 64,
                                     dtype=np.uint8))
        sim = rlnc(
            net, content,
            GenerationParams(generation_size=generation_size, payload_size=64),
            seed=21,
        )
        report = sim.run_until_complete(max_slots=600)
        depths = net.graph().depths_from_server()
        for node in report.nodes:
            # a node with connectivity d=2 should need about g/d slots of
            # useful traffic after its pipeline fills: completion by
            # depth + g/d + small slack
            budget = depths[node.node_id] + generation_size / 2 + 6
            assert node.completed_at is not None
            assert node.completed_at <= budget

    def test_rate_halves_when_connectivity_halves(self):
        """A node with one failed parent (connectivity 1) accumulates rank
        at roughly half speed."""
        net = OverlayNetwork(k=10, d=2, seed=22)
        net.grow(12)
        # pick a bottom node, fail the parent carrying one of its threads
        victim_child = net.matrix.node_ids[-1]
        parents = [
            p for p in net.matrix.parents_of(victim_child).values() if p != -1
        ]
        if not parents:
            pytest.skip("bottom node hangs straight off the rod")
        net.fail(parents[0])
        remaining = net.connectivity(victim_child)
        rng = np.random.default_rng(23)
        content = bytes(rng.integers(0, 256, size=16 * 32, dtype=np.uint8))
        sim = rlnc(
            net, content, GenerationParams(generation_size=16, payload_size=32),
            seed=24,
        )
        sim.run(12)
        rank = sim.behavior.recoder_of(victim_child).decoder.total_rank
        # rank growth per slot ≈ connectivity (after pipeline fill)
        assert rank <= remaining * 12 + 1
        if remaining > 0:
            assert rank >= remaining * 4  # clearly nonzero rate


class TestSection7DSweep:
    """Expected *fraction* of bandwidth lost ≈ p for every d."""

    def test_fraction_lost_independent_of_d(self):
        p = 0.08
        fractions = {}
        for d in (2, 4):
            net = OverlayNetwork(k=8 * d, d=d, seed=25)
            net.grow(150)
            apply_failures(net, RandomBatchFailures(p), np.random.default_rng(26))
            survivors = net.working_nodes
            connectivities = net.connectivities(survivors)
            fractions[d] = float(
                np.mean([(d - connectivities[n]) / d for n in survivors])
            )
        for d, fraction in fractions.items():
            assert fraction == pytest.approx(p, abs=0.06)
        assert abs(fractions[2] - fractions[4]) < 0.05
