"""Simulation substrate.

:class:`repro.sim.clock.SimClock` is the monotonic simulated time every
system, service and stream advances by the seconds the performance
models compute.
"""

from repro.sim.clock import SimClock

__all__ = ["SimClock"]
