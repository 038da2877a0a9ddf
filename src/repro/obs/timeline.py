"""Hardware-utilization timelines derived from span data.

The tracer records *what ran when* on the simulated clock; this module
answers *how busy each simulated resource was* — the flash array's
internal bandwidth, the decompressor, the filter pipelines, the host
link — the per-resource view the paper's Figure 14 argument is about
(the bottleneck stage runs at 100% occupancy, everything else stalls
behind it).

Three consumers:

- :func:`occupancy_series` / :func:`busy_fraction` — step series and
  scalar busy fractions per resource track, computed from the spans'
  merged busy intervals.
- :func:`chrome_counter_events` — the same series as Chrome trace
  **counter tracks** (``"ph": "C"`` events named ``util:<resource>``),
  appended to the span export so Perfetto draws an occupancy lane under
  the spans. Samples on one track are strictly increasing in timestamp
  by construction; :func:`repro.obs.tracing.validate_chrome_trace`
  rejects traces that violate this (overlapping samples render as
  garbage sawtooth in Perfetto and usually mean two tracers were merged
  by accident).
- :func:`utilization_summary` — per-resource busy fractions over the
  whole trace window, index and ingest spans included. It is not the
  ``mithrilog_util_busy_fraction`` gauge family: ``MithriLogSystem``
  sets that per query, each scan stage's time over that one query's
  scan window (``QueryStats.scan_time_s``).

Everything here is a pure function of the spans, hence exactly as
deterministic as the simulated timeline itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "RESOURCE_TRACKS",
    "busy_fraction",
    "busy_intervals",
    "chrome_counter_events",
    "occupancy_series",
    "trace_window",
    "utilization_summary",
]

#: Span tracks that model occupancy of one simulated resource. Tracks
#: like ``query`` or ``ingest`` are roll-ups, not resources, and are
#: excluded from utilization math.
RESOURCE_TRACKS = (
    "flash",
    "decompress",
    "filter",
    "host",
    "index",
    "compress",
)

#: Prefix for utilization counter-track names in Chrome trace exports.
COUNTER_TRACK_PREFIX = "util:"


def _track_spans(spans: Iterable[Any], track: str) -> list[Any]:
    return [s for s in spans if getattr(s, "track", None) == track]


def busy_intervals(
    spans: Iterable[Any], track: str
) -> list[tuple[float, float]]:
    """Merged ``(start_s, end_s)`` busy intervals for one resource track.

    Overlapping or adjacent spans (a batched query's per-query roots, a
    shard's back-to-back reads) merge into one interval; zero-duration
    spans contribute nothing.
    """
    intervals = sorted(
        (s.start_s, s.start_s + s.duration_s)
        for s in _track_spans(spans, track)
        if s.duration_s > 0
    )
    merged: list[tuple[float, float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def busy_fraction(
    spans: Sequence[Any],
    track: str,
    window: Optional[tuple[float, float]] = None,
) -> float:
    """Fraction of ``window`` the resource was busy.

    Without an explicit window, the full trace extent (min span start to
    max span end over *all* spans) is used, so fractions of different
    resources are comparable.
    """
    if window is None:
        window = trace_window(spans)
    if window is None:
        return 0.0
    t0, t1 = window
    if t1 <= t0:
        return 0.0
    busy = 0.0
    for start, end in busy_intervals(spans, track):
        busy += max(0.0, min(end, t1) - max(start, t0))
    return busy / (t1 - t0)


def trace_window(spans: Sequence[Any]) -> Optional[tuple[float, float]]:
    """The ``(earliest start, latest end)`` extent of a span list."""
    if not spans:
        return None
    t0 = min(s.start_s for s in spans)
    t1 = max(s.start_s + s.duration_s for s in spans)
    return (t0, t1)


def occupancy_series(
    spans: Iterable[Any], track: str
) -> list[tuple[float, int]]:
    """Step series of concurrent-span occupancy on one track.

    Returns ``(ts_s, value)`` samples with strictly increasing
    timestamps; the value holds from each sample until the next. For
    pipeline stage tracks the value is effectively 0/1 (busy), but
    overlapping same-track spans (batched per-query roots) count up.
    """
    deltas: dict[float, int] = {}
    for span in _track_spans(spans, track):
        if span.duration_s <= 0:
            continue
        end = span.start_s + span.duration_s
        deltas[span.start_s] = deltas.get(span.start_s, 0) + 1
        deltas[end] = deltas.get(end, 0) - 1
    series: list[tuple[float, int]] = []
    level = 0
    for ts in sorted(deltas):
        level += deltas[ts]
        if not series or series[-1][1] != level:
            series.append((ts, level))
    return series


def chrome_counter_events(
    spans: Sequence[Any],
    tracks: Optional[Sequence[str]] = None,
    pid: int = 0,
) -> list[dict[str, Any]]:
    """The utilization series as Chrome trace counter events.

    One counter track per resource, named ``util:<track>``. Chrome
    identifies counter tracks by ``(pid, name)``; each track's samples
    come out with strictly increasing ``ts`` (no overlapping samples),
    which the trace validator enforces on re-ingestion.
    """
    events: list[dict[str, Any]] = []
    if tracks is None:
        present = {getattr(s, "track", None) for s in spans}
        tracks = [t for t in RESOURCE_TRACKS if t in present]
    for track in tracks:
        for ts, value in occupancy_series(spans, track):
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "name": f"{COUNTER_TRACK_PREFIX}{track}",
                    "ts": ts * 1e6,
                    "args": {"busy": value},
                }
            )
    return events


def utilization_summary(
    spans: Sequence[Any], tracks: Optional[Sequence[str]] = None
) -> dict[str, float]:
    """Per-resource busy fraction over the whole trace window."""
    if tracks is None:
        present = {getattr(s, "track", None) for s in spans}
        tracks = [t for t in RESOURCE_TRACKS if t in present]
    window = trace_window(spans)
    return {
        track: busy_fraction(spans, track, window=window) for track in tracks
    }
