"""Span tracing on the simulation clock, exported as Chrome trace JSON.

Every performance number in this reproduction is *simulated* time
(:class:`repro.sim.clock.SimClock`), so spans carry two timelines:

- ``start_s`` / ``duration_s`` — **simulated seconds**, the paper's
  hardware arithmetic. These become the Chrome trace ``ts``/``dur``
  fields, so opening the export in Perfetto (or ``chrome://tracing``)
  shows a query's index-lookup → flash-read → decompress → filter →
  host-transfer phases laid out exactly as the pipeline model computed
  them, overlapping where the stages overlap.
- ``wall_start_s`` / ``wall_duration_s`` — host wall time, recorded as
  span args, for the rare case where real elapsed time matters (CI
  smoke runs, profiling the simulator itself).

Two recording styles:

- :meth:`SpanTracer.record` — explicit simulated interval. The system
  layers use this: phase durations fall out of the pipeline arithmetic,
  not out of measuring the simulator.
- :meth:`SpanTracer.span` — a context manager that times the enclosed
  block. Against a :class:`SimClock` it brackets ``clock.now``;
  without one it falls back to wall time on the simulated timeline's
  origin (still valid trace JSON, just a different meaning).

Tracks (Chrome ``tid``) separate overlapping pipeline stages; each track
gets a ``thread_name`` metadata record so Perfetto labels the rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.obs.artifacts import read_json, write_json
from repro.sim.clock import SimClock

__all__ = [
    "Span",
    "SpanTracer",
    "TraceError",
    "validate_chrome_trace",
]


class TraceError(ValueError):
    """A malformed trace (bad span interval, invalid export)."""


@dataclass(frozen=True)
class Span:
    """One completed span on the simulated timeline."""

    name: str
    start_s: float  #: simulated start time (seconds)
    duration_s: float  #: simulated duration (seconds)
    category: str = ""
    track: str = "main"
    args: dict[str, Any] = field(default_factory=dict)
    wall_start_s: float = 0.0
    wall_duration_s: float = 0.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class SpanTracer:
    """Collects spans and exports them as Chrome trace-event JSON."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock
        self.spans: list[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        category: str = "",
        track: Optional[str] = None,
        **args: Any,
    ) -> Span:
        """Record one explicit simulated interval."""
        if duration_s < 0:
            raise TraceError(f"span {name!r} has negative duration {duration_s}")
        if start_s < 0:
            raise TraceError(f"span {name!r} starts before t=0 ({start_s})")
        span = Span(
            name=name,
            start_s=start_s,
            duration_s=duration_s,
            category=category,
            track=track if track is not None else name,
            args=args,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        track: Optional[str] = None,
        clock: Optional[SimClock] = None,
        **args: Any,
    ) -> Iterator[dict[str, Any]]:
        """Time the enclosed block as one span.

        With a clock (argument or the tracer's own) the span brackets
        simulated time; otherwise it falls back to wall time. The yielded
        dict lets the block attach result args::

            with tracer.span("recover", clock=clock) as info:
                info["batches"] = len(batches)
        """
        active = clock if clock is not None else self.clock
        wall_start = time.perf_counter()
        sim_start = active.now if active is not None else 0.0
        mutable_args: dict[str, Any] = dict(args)
        try:
            yield mutable_args
        finally:
            wall_dur = time.perf_counter() - wall_start
            sim_dur = (active.now - sim_start) if active is not None else wall_dur
            self.spans.append(
                Span(
                    name=name,
                    start_s=sim_start,
                    duration_s=sim_dur,
                    category=category,
                    track=track if track is not None else name,
                    args=mutable_args,
                    wall_start_s=wall_start,
                    wall_duration_s=wall_dur,
                )
            )

    def names(self) -> set[str]:
        """Distinct span names recorded so far."""
        return {s.name for s in self.spans}

    def clear(self) -> None:
        self.spans.clear()

    # -- export ----------------------------------------------------------

    def to_chrome_trace(self, utilization: bool = False) -> dict[str, Any]:
        """The spans as a Chrome trace-event JSON object.

        Simulated seconds map to trace microseconds (the unit Perfetto
        expects); wall-clock measurements ride along in each event's
        ``args``. With ``utilization=True`` the export also carries
        per-resource occupancy **counter tracks** (``util:flash``,
        ``util:decompress``, ...) derived from the spans by
        :mod:`repro.obs.timeline`, so Perfetto draws a busy/idle lane
        under each resource's span row.
        """
        tracks = sorted({s.track for s in self.spans})
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        events: list[dict[str, Any]] = [
            {
                "ph": "M",
                "pid": 0,
                "tid": tids[track],
                "name": "thread_name",
                "args": {"name": track},
            }
            for track in tracks
        ]
        for s in self.spans:
            args = dict(s.args)
            if s.wall_duration_s:
                args["wall_duration_s"] = s.wall_duration_s
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[s.track],
                    "name": s.name,
                    "cat": s.category or "sim",
                    "ts": s.start_s * 1e6,
                    "dur": s.duration_s * 1e6,
                    "args": args,
                }
            )
        if utilization:
            from repro.obs.timeline import chrome_counter_events

            events.extend(chrome_counter_events(self.spans))
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_chrome_trace(
        self, path: Union[str, Path], utilization: bool = False
    ) -> Path:
        """Serialise the Chrome trace to ``path``; returns the path."""
        return write_json(
            path, self.to_chrome_trace(utilization=utilization), newline=False
        )


def validate_chrome_trace(trace: Union[dict, str, Path]) -> int:
    """Check a Chrome trace object (or file) is well-formed and non-empty.

    Returns the number of duration (``"X"``) events. Raises
    :class:`TraceError` on an empty or structurally invalid trace — the
    CI smoke job fails on exactly this.
    """
    if isinstance(trace, (str, Path)):
        trace = read_json(trace, TraceError, "trace file")
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise TraceError("trace must be an object with a traceEvents list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise TraceError("traceEvents must be a list")
    duration_events = 0
    counter_ts: dict[tuple, float] = {}
    for event in events:
        if not isinstance(event, dict) or "ph" not in event or "name" not in event:
            raise TraceError(f"malformed trace event: {event!r}")
        if event["ph"] == "X":
            if "ts" not in event or "dur" not in event:
                raise TraceError(f"duration event missing ts/dur: {event!r}")
            if event["dur"] < 0:
                raise TraceError(f"negative duration in event: {event!r}")
            duration_events += 1
        elif event["ph"] == "C":
            # counter tracks (utilization lanes): samples on one track
            # must advance strictly — two samples at one instant render
            # nondeterministically and always mean a bad merge upstream
            if "ts" not in event:
                raise TraceError(f"counter event missing ts: {event!r}")
            track = (event.get("pid"), event["name"])
            previous = counter_ts.get(track)
            if previous is not None and event["ts"] <= previous:
                raise TraceError(
                    f"overlapping counter samples on track {event['name']!r} "
                    f"at ts={event['ts']}"
                )
            counter_ts[track] = event["ts"]
    if duration_events == 0:
        raise TraceError("trace contains no duration events")
    return duration_events
