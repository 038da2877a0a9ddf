"""Simulated time source.

The performance models in this library never read wall-clock time; they
advance a :class:`SimClock`, the monotonic simulated time every system,
service and stream moves by the seconds the models compute. This keeps
every benchmark deterministic and lets a "12.8 GB/s" accelerator be
modelled faithfully on any host.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotonic simulated clock measured in seconds.

    The clock can only move forward. Components call :meth:`advance` with
    the duration of the work they modelled, or :meth:`advance_to` to join a
    later point in time (e.g. when waiting on a slower producer).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("simulated time cannot start negative")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative {seconds!r}")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` if it is in the future.

        Advancing to a past timestamp is a no-op rather than an error: it is
        the natural semantics for "this work completes no earlier than t".
        """
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.9f})"
