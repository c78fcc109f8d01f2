"""Unit tests for session orchestration."""

import pytest

from repro.sim import NodeRole, SessionConfig, run_session


def small_config(**overrides):
    base = dict(
        k=12, d=2, population=25, content_size=600,
        generation_size=6, payload_size=32, seed=21, max_slots=800,
    )
    base.update(overrides)
    return SessionConfig(**base)


class TestBasicSession:
    def test_static_session_completes(self):
        result = run_session(small_config())
        assert result.report.completion_fraction == 1.0
        assert result.failures_injected == 0
        assert result.joins == 0

    def test_deterministic_given_seed(self):
        a = run_session(small_config())
        b = run_session(small_config())
        assert a.report.slots == b.report.slots
        assert a.report.completion_slots() == b.report.completion_slots()

    def test_different_seed_differs(self):
        a = run_session(small_config(seed=21))
        b = run_session(small_config(seed=22))
        assert (
            a.report.completion_slots() != b.report.completion_slots()
            or a.report.slots != b.report.slots
        )


class TestDynamics:
    def test_failures_and_repairs_accounted(self):
        result = run_session(
            small_config(fail_probability=0.02, repair_interval=10,
                         max_slots=1200)
        )
        assert result.failures_injected >= 0
        # every failure is either repaired by a sweep or still outstanding
        # when the session ends mid-interval
        outstanding = len(result.net.server.failed)
        assert result.repairs_performed + outstanding == result.failures_injected

    def test_churn_grows_population(self):
        result = run_session(
            small_config(join_rate=2, repair_interval=10, max_slots=400,
                         content_size=2000)
        )
        assert result.joins > 0
        assert result.net.population > 25

    def test_graceful_leaves_shrink_population(self):
        result = run_session(
            small_config(leave_probability=0.05, repair_interval=5,
                         max_slots=600)
        )
        assert result.graceful_leaves > 0

    def test_uniform_insert_mode(self):
        result = run_session(small_config(insert_mode="uniform"))
        assert result.report.completion_fraction == 1.0


class TestAttackConfiguration:
    def test_roles_assigned_by_fraction(self):
        result = run_session(
            small_config(entropy_attacker_fraction=0.2, max_slots=150)
        )
        roles = result.simulation.behavior.roles
        entropy = [r for r in roles.values() if r is NodeRole.ENTROPY_ATTACKER]
        assert len(entropy) == 5  # 20% of 25

    def test_jammers_poison(self):
        result = run_session(
            small_config(jammer_fraction=0.1, max_slots=600)
        )
        assert result.report.poisoned_fraction > 0.0

    def test_excessive_fractions_rejected(self):
        with pytest.raises(ValueError):
            run_session(small_config(entropy_attacker_fraction=0.7,
                                     jammer_fraction=0.7))


class TestDownloadDurations:
    def test_initial_population_measured_from_zero(self):
        result = run_session(small_config())
        durations = result.download_durations()
        assert set(durations) == {n.node_id for n in result.report.nodes
                                  if n.completed_at is not None}
        for node in result.report.nodes:
            if node.completed_at is not None:
                assert durations[node.node_id] == node.completed_at

    def test_late_joiners_measured_on_own_clock(self):
        result = run_session(
            small_config(join_rate=2, repair_interval=10, max_slots=900,
                         content_size=1500)
        )
        late = [n for n, t in result.joined_at.items() if t > 0]
        assert late, "the churn must have admitted someone mid-run"
        durations = result.download_durations()
        for node_id in late:
            if node_id in durations:
                assert durations[node_id] >= 0
                # on its own clock, a late joiner's duration is shorter
                # than its absolute completion slot
                completed = next(
                    n.completed_at for n in result.report.nodes
                    if n.node_id == node_id
                )
                assert durations[node_id] < completed

    def test_incomplete_nodes_absent(self):
        result = run_session(small_config(max_slots=3))
        assert result.download_durations() == {}
