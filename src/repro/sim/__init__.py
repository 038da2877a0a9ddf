"""Simulation substrate.

Provides the cycle/time accounting used by the storage and accelerator
performance models:

- :class:`repro.sim.clock.SimClock` — monotonic simulated time.
- :class:`repro.sim.bandwidth.BandwidthMeter` — throughput accounting.
- :class:`repro.sim.bandwidth.LinkModel` — shared-link transfer-time model.
"""

from repro.sim.bandwidth import BandwidthMeter, LinkModel
from repro.sim.clock import SimClock

__all__ = ["BandwidthMeter", "LinkModel", "SimClock"]
