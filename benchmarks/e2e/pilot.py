"""Machine-speed pilot: how fast is this box right now?

The benchmark runs on shared cores whose effective speed wanders by
10-30 % for seconds to minutes at a time (measured: a fixed
pure-Python loop, timed back to back for ten minutes, shows an
interquartile spread of 3-8 % between 10-second windows however long
the windows are made, so running longer does not average it out; CPU
time moves with wall time, so it is not descheduling). The slowdown is
common to everything the process does, which makes it measurable: the
timed region interleaves a short fixed *pilot* loop between ops, about
4 % of the run, and every wall-clock figure of the run is divided by

    speed_factor = mean pilot time in this run / PILOT_REFERENCE_S

i.e. reported at the speed of the reference box in its undisturbed
state. On identical work this cut the run-to-run interquartile spread
of a 10-second sum from 8.0 % to 2.8 % (``index_warm`` ops), 3.7 % to
2.1 % (``scan_cold`` ops) and 2.1 % to 1.5 % (ingest). Every record
carries the factor, so raw host time is ``reported x speed_factor``.

The pilot lives here, outside ``src/``: no change to the program can
move it, only the interpreter and the machine.
"""

from __future__ import annotations

import statistics
import time

#: Loop length; about 4.5 ms on the reference box.
PILOT_ITERATIONS = 100_000

#: The pilot's time on the 2-core reference box, undisturbed (5th-10th
#: percentile of 6000 back-to-back runs). Pins the unit of every
#: wall-clock metric: changing it changes the benchmark.
PILOT_REFERENCE_S = 0.0045

#: Minimum host time between two pilots inside the timed region.
PILOT_EVERY_S = 0.1


def pilot() -> float:
    """Run the fixed loop once; returns the host seconds it took."""
    started = time.perf_counter()
    total = 0
    for i in range(PILOT_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


def burst(count: int = 5) -> list[float]:
    return [pilot() for _ in range(count)]


def speed_factor(samples: list[float]) -> float:
    """>1 when the box ran slower than the reference while sampled."""
    return statistics.fmean(samples) / PILOT_REFERENCE_S
