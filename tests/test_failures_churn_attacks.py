"""Unit tests for the §7 attack helpers."""

import numpy as np
import pytest

from repro.core import OverlayNetwork
from repro.failures import assign_attack_roles, detect_low_innovation
from repro.sim import NodeRole


class TestAttackHelpers:
    def test_assign_roles_fraction(self, rng):
        roles = assign_attack_roles(list(range(40)), 0.25, NodeRole.JAMMER, rng)
        assert len(roles) == 10
        assert all(r is NodeRole.JAMMER for r in roles.values())

    def test_assign_zero(self, rng):
        assert assign_attack_roles(list(range(10)), 0.0, NodeRole.JAMMER, rng) == {}

    def test_assign_honest_rejected(self, rng):
        with pytest.raises(ValueError):
            assign_attack_roles([1, 2], 0.5, NodeRole.HONEST, rng)

    def test_assign_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            assign_attack_roles([1, 2], 1.5, NodeRole.JAMMER, rng)

    def test_detector_flags_starved_children(self):
        """Children fed only trivial combinations have low innovation
        efficiency and should be flagged."""
        from repro.coding import GenerationParams
        from repro.sim import rlnc

        net = OverlayNetwork(k=8, d=2, seed=31)
        net.grow(20)
        attacker = net.matrix.node_ids[1]
        roles = {attacker: NodeRole.ENTROPY_ATTACKER}
        rng = np.random.default_rng(1)
        content = bytes(rng.integers(0, 256, size=800, dtype=np.uint8))
        sim = rlnc(
            net, content, GenerationParams(generation_size=8, payload_size=32),
            seed=32, roles=roles,
        )
        report = sim.run(120)
        children = {
            c for c in net.matrix.children_of(attacker).values() if c is not None
        }
        outcome = detect_low_innovation(report, roles, children, threshold=0.9)
        assert outcome.flagged  # somebody looks starved
        assert outcome.threshold == 0.9
