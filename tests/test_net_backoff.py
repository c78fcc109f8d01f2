"""Unit tests for the peer's reconnect backoff schedule."""

import pytest

from repro.protocol.backoff import ReconnectBackoff


class TestReconnectBackoff:
    def test_doubles_until_capped(self):
        backoff = ReconnectBackoff(0.05, 0.8)
        taken = [backoff.next() for _ in range(7)]
        assert taken == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8, 0.8, 0.8])

    def test_schedule_matches_next_sequence(self):
        backoff = ReconnectBackoff(0.05, 0.8)
        planned = backoff.schedule(7)
        taken = [backoff.next() for _ in range(7)]
        assert planned == taken

    def test_schedule_does_not_mutate_state(self):
        backoff = ReconnectBackoff(0.1, 2.0)
        backoff.schedule(10)
        assert backoff.current == 0.1

    def test_reset_restores_base(self):
        backoff = ReconnectBackoff(0.1, 2.0)
        for _ in range(5):
            backoff.next()
        assert backoff.current == 2.0
        backoff.reset()
        assert backoff.current == 0.1
        assert backoff.next() == 0.1

    def test_current_peeks_without_consuming(self):
        backoff = ReconnectBackoff(0.25, 4.0)
        assert backoff.current == 0.25
        assert backoff.current == 0.25
        assert backoff.next() == 0.25
        assert backoff.current == 0.5

    def test_base_equal_to_maximum_is_flat(self):
        backoff = ReconnectBackoff(1.0, 1.0)
        assert backoff.schedule(3) == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("base", [0.0, -0.5])
    def test_nonpositive_base_rejected(self, base):
        with pytest.raises(ValueError, match="base"):
            ReconnectBackoff(base, 1.0)

    def test_maximum_below_base_rejected(self):
        with pytest.raises(ValueError, match="maximum"):
            ReconnectBackoff(0.5, 0.1)

    def test_cap_is_exact_not_overshot(self):
        """Doubling clamps to the cap even when 2x would overshoot it."""
        backoff = ReconnectBackoff(0.3, 1.0)
        assert backoff.schedule(4) == pytest.approx([0.3, 0.6, 1.0, 1.0])
