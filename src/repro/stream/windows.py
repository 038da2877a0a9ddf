"""Tumbling and sliding time-windowed aggregates for standing queries.

A standing query does not return a result set — it maintains *window
state*: how many matches landed in the current window, at what rate,
from how many distinct log templates. This module is that state,
evaluated purely on the simulated clock:

- :class:`WindowSpec` — tumbling (aligned, non-overlapping buckets of
  ``width_s``) or sliding (the trailing ``width_s`` at every
  evaluation);
- :class:`WindowAggregator` — absorbs one observation per incremental
  evaluation (match count + matched-line template fingerprints) and
  answers the three supported aggregates; it keeps the last
  :data:`SERIES_POINTS` per-evaluation window values in a ring, so they
  export straight into status artifacts and metrics.

Window membership rules (the hypothesis incremental-vs-recompute suite
pins these exactly):

- sliding: an observation at time ``t`` is in the window at ``now``
  iff ``now - width_s < t <= now``;
- tumbling: observations belong to bucket ``floor(t / width_s)``; the
  reported value covers the bucket containing ``now`` (a boundary
  observation at ``t == k * width_s`` opens bucket ``k``).

``rate`` is always ``count / width_s`` — the nominal window width, not
the elapsed fraction of a tumbling bucket — so a half-full bucket reads
as a lower rate rather than extrapolating from thin data.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import QueryError

#: the aggregates a standing query may maintain
WINDOW_AGGREGATES = ("count", "rate", "distinct_templates")

#: per-evaluation window values an aggregator keeps; the oldest goes first
SERIES_POINTS = 512

WINDOW_KINDS = ("tumbling", "sliding")


@dataclass(frozen=True)
class WindowSpec:
    """One standing query's window shape."""

    kind: str = "tumbling"  #: "tumbling" | "sliding"
    width_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise QueryError(
                f"window kind must be one of {WINDOW_KINDS}, got {self.kind!r}"
            )
        if self.width_s <= 0:
            raise QueryError("window width_s must be positive")

    def start_at(self, now_s: float) -> float:
        """The live window's start for an evaluation at ``now_s``."""
        if self.kind == "sliding":
            return now_s - self.width_s
        return math.floor(now_s / self.width_s) * self.width_s

    def to_dict(self) -> dict:
        return {"kind": self.kind, "width_s": self.width_s}

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowSpec":
        if not isinstance(payload, dict):
            raise QueryError("window must be an object")
        unknown = set(payload) - {"kind", "width_s"}
        if unknown:
            raise QueryError(f"window: unknown keys {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class _Observation:
    t_s: float
    matches: int
    fingerprints: frozenset


class WindowAggregator:
    """Window state for one standing query, fed incrementally.

    Each :meth:`observe` records the matches one incremental evaluation
    produced (matches over *newly sealed pages only* — the caller owns
    that delta). Values are recomputed from the retained observations
    on demand, so an aggregate read at any ``now`` equals the batch
    recompute over the same events — the property the hypothesis suite
    checks.

    The values each evaluation returns also go into a per-aggregate
    ring of ``(t_s, value)`` points for export: time never goes
    backwards, a second evaluation at the same instant overwrites the
    first, and past :data:`SERIES_POINTS` the oldest point is evicted.
    """

    def __init__(self, name: str, spec: WindowSpec) -> None:
        self.name = name
        self.spec = spec
        #: trailing observations; pruned once two widths stale
        self._events: deque[_Observation] = deque()
        self.matches_total = 0
        self.evaluations = 0
        #: per-aggregate window-value rings (status/metrics export)
        self._series: dict[str, deque[tuple[float, float]]] = {
            agg: deque(maxlen=SERIES_POINTS) for agg in WINDOW_AGGREGATES
        }

    def observe(
        self,
        now_s: float,
        matches: int,
        fingerprints: Iterable[str] = (),
    ) -> dict[str, float]:
        """Absorb one incremental evaluation; returns the live values."""
        if self._events and now_s < self._events[-1].t_s:
            raise QueryError(
                f"standing query {self.name!r}: time went backwards"
            )
        if matches < 0:
            raise QueryError("window observation cannot be negative")
        self._events.append(
            _Observation(now_s, int(matches), frozenset(fingerprints))
        )
        self.matches_total += int(matches)
        self.evaluations += 1
        self._prune(now_s)
        values = self.values(now_s)
        for agg, value in values.items():
            ring = self._series[agg]
            if ring and ring[-1][0] == now_s:
                ring.pop()
            ring.append((now_s, value))
        return values

    def _prune(self, now_s: float) -> None:
        # keep two widths: enough for any live window (a tumbling bucket
        # reaches back at most one width) plus boundary slack
        horizon = now_s - 2.0 * self.spec.width_s
        while self._events and self._events[0].t_s < horizon:
            self._events.popleft()

    def _in_window(self, now_s: float) -> list[_Observation]:
        start = self.spec.start_at(now_s)
        if self.spec.kind == "sliding":
            return [e for e in self._events if start < e.t_s <= now_s]
        return [e for e in self._events if start <= e.t_s <= now_s]

    def value(self, aggregate: str, now_s: float) -> float:
        """The named aggregate over the live window at ``now_s``."""
        if aggregate not in WINDOW_AGGREGATES:
            raise QueryError(
                f"unknown aggregate {aggregate!r}; "
                f"choose from {WINDOW_AGGREGATES}"
            )
        events = self._in_window(now_s)
        if aggregate == "count":
            return float(sum(e.matches for e in events))
        if aggregate == "rate":
            return sum(e.matches for e in events) / self.spec.width_s
        distinct: set = set()
        for event in events:
            distinct.update(event.fingerprints)
        return float(len(distinct))

    def values(self, now_s: float) -> dict[str, float]:
        """All aggregates at once (one window scan would be overkill)."""
        return {
            agg: self.value(agg, now_s) for agg in WINDOW_AGGREGATES
        }

    def latest(self, aggregate: str) -> Optional[float]:
        """The last exported value of an aggregate, if any."""
        ring = self._series[aggregate]
        return ring[-1][1] if ring else None

    def to_dict(self) -> dict:
        """JSON-ready window state (feeds the stream status artifact)."""
        return {
            "spec": self.spec.to_dict(),
            "evaluations": self.evaluations,
            "matches_total": self.matches_total,
            "series": {
                agg: {
                    "name": f"stream_window_{agg}",
                    "labels": {"query": self.name},
                    "kind": "gauge",
                    "points": [list(point) for point in ring],
                }
                for agg, ring in self._series.items()
            },
        }
