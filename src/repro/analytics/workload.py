"""Workload mining: slices, hot templates and drift over query journals.

*Query Log Compression for Workload Analytics* (PAPERS.md) argues the
query log is itself a dataset worth analysing; this module is the
analysis. It consumes :class:`repro.obs.journal.QueryJournal` records
(or their exported payloads) and produces the fleet-level view PR 2's
per-query telemetry cannot: which tenants, templates, bottleneck stages
and outcomes dominate over thousands of requests, with enough latency
structure per slice that an aggregate win cannot hide a per-slice loss.

Everything is deterministic: slices are dict-ordered by key, percentile
math is nearest-rank, and no wall clock or RNG is consulted — mining
the same journal twice yields byte-identical profiles (a property the
test suite pins with hypothesis).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.errors import QueryError
from repro.obs.journal import (
    JournalRecord,
    QueryJournal,
    nearest_rank,
    template_fingerprint,
)

__all__ = [
    "DIMENSIONS",
    "DriftReport",
    "SliceStats",
    "WorkloadProfile",
    "drift",
    "hot_templates",
    "line_template_fingerprint",
    "mine",
]

#: The slicing dimensions a profile always materialises.
DIMENSIONS = ("tenant", "template", "stage", "outcome", "mode")

_HEX_RUN = re.compile(r"\b0x[0-9a-fA-F]+\b|\b[0-9a-fA-F]{8,}\b")
_DIGIT_RUN = re.compile(r"\d+")


def line_template_fingerprint(line: bytes) -> str:
    """Fingerprint of a raw log line's *template* (variables masked).

    The standing-query registry keys its ``distinct_templates`` window
    aggregate on this: hex runs and digit runs are masked before
    hashing, so two lines that differ only in request ids, addresses or
    counters collapse to the same fingerprint. Shares the sha1-prefix
    scheme of :func:`repro.obs.journal.template_fingerprint`.
    """
    text = line.decode("utf-8", errors="replace")
    text = _HEX_RUN.sub("#", text)
    text = _DIGIT_RUN.sub("#", text)
    return template_fingerprint(text)


@dataclass
class SliceStats:
    """One slice of the workload: counts, losses and latency shape.

    ``value`` is the slice key within its dimension (a tenant name, a
    template fingerprint, a bottleneck stage, an outcome, or an
    execution mode). Latency percentiles cover answered responses only
    (OK and approximated) — refusals are instantaneous and would drag
    every percentile toward zero; their story is told by the outcome
    tallies and ``reasons`` instead.
    """

    dimension: str
    value: str
    count: int = 0
    ok: int = 0
    approximated: int = 0
    rejected: int = 0
    shed: int = 0
    timed_out: int = 0
    matches: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    _latencies_ms: list[float] = field(default_factory=list, repr=False)
    _service_ms: list[float] = field(default_factory=list, repr=False)
    _queue_ms: list[float] = field(default_factory=list, repr=False)

    def absorb(self, record: JournalRecord) -> None:
        self.count += 1
        setattr(self, record.outcome, getattr(self, record.outcome) + 1)
        if record.reason:
            self.reasons[record.reason] = self.reasons.get(record.reason, 0) + 1
        if record.outcome in ("ok", "approximated"):
            self.matches += record.matches
            self._latencies_ms.append(record.latency_s * 1e3)
            self._service_ms.append(record.service_s * 1e3)
            self._queue_ms.append(record.queue_s * 1e3)

    def seal(self) -> None:
        """Sort the latency pools once; percentile reads become O(1)."""
        self._latencies_ms.sort()
        self._service_ms.sort()
        self._queue_ms.sort()

    # -- derived numbers --------------------------------------------------

    @property
    def answered(self) -> int:
        """Responses that carried an answer: exact or estimated."""
        return self.ok + self.approximated

    @property
    def lost(self) -> int:
        return self.rejected + self.shed + self.timed_out

    @property
    def loss_rate(self) -> float:
        return self.lost / self.count if self.count else 0.0

    @property
    def p50_ms(self) -> float:
        return nearest_rank(self._latencies_ms, 50)

    @property
    def p95_ms(self) -> float:
        return nearest_rank(self._latencies_ms, 95)

    @property
    def p99_ms(self) -> float:
        return nearest_rank(self._latencies_ms, 99)

    @property
    def mean_ms(self) -> float:
        if not self._latencies_ms:
            return 0.0
        return sum(self._latencies_ms) / len(self._latencies_ms)

    @property
    def p99_service_ms(self) -> float:
        return nearest_rank(self._service_ms, 99)

    @property
    def min_service_ms(self) -> float:
        """Cheapest pass this slice ever rode.

        A shared pass is paced by its most expensive rider, so every
        pass costs at least each member's intrinsic cost — the minimum
        over passes lower-bounds a template's own cost without the
        co-rider smearing that inflates means and percentiles. This is
        the number admission hints trust.
        """
        return self._service_ms[0] if self._service_ms else 0.0

    @property
    def mean_service_ms(self) -> float:
        if not self._service_ms:
            return 0.0
        return sum(self._service_ms) / len(self._service_ms)

    @property
    def mean_queue_ms(self) -> float:
        if not self._queue_ms:
            return 0.0
        return sum(self._queue_ms) / len(self._queue_ms)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "value": self.value,
            "count": self.count,
            "ok": self.ok,
            "approximated": self.approximated,
            "rejected": self.rejected,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "loss_rate": round(self.loss_rate, 6),
            "matches": self.matches,
            "reasons": dict(sorted(self.reasons.items())),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "mean_ms": round(self.mean_ms, 4),
            "p99_service_ms": round(self.p99_service_ms, 4),
            "min_service_ms": round(self.min_service_ms, 4),
            "mean_service_ms": round(self.mean_service_ms, 4),
            "mean_queue_ms": round(self.mean_queue_ms, 4),
        }


@dataclass
class WorkloadProfile:
    """The mined view of one journal window (or a whole journal)."""

    window: Optional[str]  #: the window mined, or ``None`` for all records
    records: int
    duration_s: float  #: simulated span the records cover
    templates: dict[str, str]  #: fingerprint -> query text (the header map)
    _slices: dict[str, dict[str, SliceStats]] = field(default_factory=dict)

    def slices(self, dimension: str) -> dict[str, SliceStats]:
        if dimension not in DIMENSIONS:
            raise QueryError(
                f"unknown slicing dimension {dimension!r} "
                f"(expected one of {DIMENSIONS})"
            )
        return self._slices.get(dimension, {})

    # -- aggregates -------------------------------------------------------

    @property
    def total(self) -> SliceStats:
        """The all-records slice (dimension ``outcome`` rolled up)."""
        rollup = SliceStats(dimension="total", value="all")
        for stats in self._slices.get("tenant", {}).values():
            rollup.count += stats.count
            rollup.ok += stats.ok
            rollup.approximated += stats.approximated
            rollup.rejected += stats.rejected
            rollup.shed += stats.shed
            rollup.timed_out += stats.timed_out
            rollup.matches += stats.matches
            for reason, count in stats.reasons.items():
                rollup.reasons[reason] = rollup.reasons.get(reason, 0) + count
            rollup._latencies_ms.extend(stats._latencies_ms)
            rollup._service_ms.extend(stats._service_ms)
            rollup._queue_ms.extend(stats._queue_ms)
        rollup.seal()
        return rollup

    @property
    def goodput_qps(self) -> float:
        """Answered completions per simulated second across the window."""
        if self.duration_s <= 0:
            return 0.0
        return self.total.answered / self.duration_s

    def slice_goodput_qps(self, stats: SliceStats) -> float:
        """One slice's answered completions per simulated second."""
        if self.duration_s <= 0:
            return 0.0
        return stats.answered / self.duration_s

    def hot_templates(self, top: int = 8) -> list[dict]:
        """The templates that dominate the workload, hottest first."""
        ranked = sorted(
            self.slices("template").values(),
            key=lambda s: (-s.count, s.value),
        )[:top]
        total = max(1, self.records)
        return [
            {
                "template": s.value,
                "query": self.templates.get(s.value, ""),
                "count": s.count,
                "share": round(s.count / total, 6),
                "p50_ms": round(s.p50_ms, 4),
                "p99_ms": round(s.p99_ms, 4),
                "p99_service_ms": round(s.p99_service_ms, 4),
                "loss_rate": round(s.loss_rate, 6),
            }
            for s in ranked
        ]

    def to_dict(self, top_templates: int = 8) -> dict:
        return {
            "kind": "mithrilog_workload_profile",
            "window": self.window,
            "records": self.records,
            "duration_s": round(self.duration_s, 9),
            "goodput_qps": round(self.goodput_qps, 4),
            "total": self.total.to_dict(),
            "hot_templates": self.hot_templates(top_templates),
            "slices": {
                dimension: {
                    value: stats.to_dict()
                    for value, stats in sorted(
                        self._slices.get(dimension, {}).items()
                    )
                }
                for dimension in DIMENSIONS
            },
        }


def _records_of(
    journal: Union[QueryJournal, dict, Iterable[JournalRecord]],
    window: Optional[str],
) -> tuple[list[JournalRecord], dict[str, str]]:
    if isinstance(journal, dict):
        journal = QueryJournal.from_payload(journal)
    if isinstance(journal, QueryJournal):
        return journal.in_window(window), dict(journal.templates)
    records = list(journal)
    if window is not None:
        records = [r for r in records if r.window == window]
    return records, {}


def mine(
    journal: Union[QueryJournal, dict, Iterable[JournalRecord]],
    window: Optional[str] = None,
    templates: Optional[dict[str, str]] = None,
) -> WorkloadProfile:
    """Mine one journal window into a :class:`WorkloadProfile`.

    ``journal`` may be a live :class:`QueryJournal`, an exported payload
    dict, or a bare record iterable (pass ``templates`` alongside to
    keep the fingerprint → text map). ``window=None`` mines everything.
    """
    records, template_map = _records_of(journal, window)
    if templates:
        template_map.update(templates)
    profile = WorkloadProfile(
        window=window,
        records=len(records),
        duration_s=0.0,
        templates=template_map,
    )
    if not records:
        return profile
    start = min(r.arrival_s for r in records)
    end = max(r.completed_at_s for r in records)
    # completed_at is absolute while arrival is run-relative; a run that
    # rebased onto an already-advanced clock still yields a sane span
    profile.duration_s = max(end - start, 0.0)
    for record in records:
        keys = {
            "tenant": record.tenant,
            "template": record.template,
            "stage": record.stage or "(none)",
            "outcome": record.outcome,
            "mode": record.mode,
        }
        for dimension, value in keys.items():
            bucket = profile._slices.setdefault(dimension, {})
            stats = bucket.get(value)
            if stats is None:
                stats = bucket[value] = SliceStats(
                    dimension=dimension, value=value
                )
            stats.absorb(record)
    for bucket in profile._slices.values():
        for stats in bucket.values():
            stats.seal()
    return profile


def hot_templates(
    journal: Union[QueryJournal, dict, Iterable[JournalRecord]],
    top: int = 8,
    window: Optional[str] = None,
) -> list[dict]:
    """Convenience: mine and return the hot-template ranking directly."""
    return mine(journal, window=window).hot_templates(top)


@dataclass
class DriftReport:
    """How the workload changed between two journal windows.

    ``l1_share_distance`` is the total-variation-style distance between
    the two template share distributions (0 = identical mix, 2 = fully
    disjoint); ``emerged``/``vanished`` name templates present in only
    one window; ``share_deltas`` lists the largest per-template share
    moves; ``latency_shifts`` the largest p99 moves among templates
    common to both windows.
    """

    window_a: Optional[str]
    window_b: Optional[str]
    records_a: int
    records_b: int
    l1_share_distance: float
    emerged: list[str]
    vanished: list[str]
    share_deltas: list[dict]
    latency_shifts: list[dict]

    @property
    def drifted(self) -> bool:
        """A coarse alarm: the template mix moved by more than 10%."""
        return self.l1_share_distance > 0.1

    def to_dict(self) -> dict:
        return {
            "kind": "mithrilog_workload_drift",
            "window_a": self.window_a,
            "window_b": self.window_b,
            "records_a": self.records_a,
            "records_b": self.records_b,
            "l1_share_distance": round(self.l1_share_distance, 6),
            "drifted": self.drifted,
            "emerged": self.emerged,
            "vanished": self.vanished,
            "share_deltas": self.share_deltas,
            "latency_shifts": self.latency_shifts,
        }


def drift(
    profile_a: WorkloadProfile,
    profile_b: WorkloadProfile,
    top: int = 8,
) -> DriftReport:
    """Detect workload drift between two mined windows."""
    slices_a = profile_a.slices("template")
    slices_b = profile_b.slices("template")
    total_a = max(1, profile_a.records)
    total_b = max(1, profile_b.records)
    shares_a = {k: s.count / total_a for k, s in slices_a.items()}
    shares_b = {k: s.count / total_b for k, s in slices_b.items()}
    every = sorted(set(shares_a) | set(shares_b))
    l1 = sum(
        abs(shares_a.get(k, 0.0) - shares_b.get(k, 0.0)) for k in every
    )
    deltas = sorted(
        (
            {
                "template": k,
                "share_a": round(shares_a.get(k, 0.0), 6),
                "share_b": round(shares_b.get(k, 0.0), 6),
                "delta": round(shares_b.get(k, 0.0) - shares_a.get(k, 0.0), 6),
            }
            for k in every
        ),
        key=lambda d: (-abs(d["delta"]), d["template"]),
    )[:top]
    shifts = sorted(
        (
            {
                "template": k,
                "p99_ms_a": round(slices_a[k].p99_ms, 4),
                "p99_ms_b": round(slices_b[k].p99_ms, 4),
                "delta_ms": round(slices_b[k].p99_ms - slices_a[k].p99_ms, 4),
            }
            for k in every
            if k in slices_a and k in slices_b
        ),
        key=lambda d: (-abs(d["delta_ms"]), d["template"]),
    )[:top]
    return DriftReport(
        window_a=profile_a.window,
        window_b=profile_b.window,
        records_a=profile_a.records,
        records_b=profile_b.records,
        l1_share_distance=l1,
        emerged=sorted(set(shares_b) - set(shares_a)),
        vanished=sorted(set(shares_a) - set(shares_b)),
        share_deltas=deltas,
        latency_shifts=shifts,
    )
