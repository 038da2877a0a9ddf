"""Unit tests for the simulated clock."""

import pytest

from repro.sim import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(start=10.0)
        clock.advance_to(3.0)
        assert clock.now == 10.0

    def test_repr_mentions_time(self):
        assert "SimClock" in repr(SimClock())
