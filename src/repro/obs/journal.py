"""The query journal: every request's life, recorded as structured data.

*Query Log Compression for Workload Analytics* (PAPERS.md) treats the
query stream itself as a first-class dataset — who asked, what shape of
query, what it cost, what the platform did with it. This module is that
dataset's writer: an append-only, replayable journal that the service
layer (:class:`repro.service.service.QueryService`) and direct
:meth:`repro.system.mithrilog.MithriLogSystem.query` calls both feed.

One :class:`JournalRecord` per resolved request, carrying

- **who** — the tenant and the request's priority;
- **what** — a stable template *fingerprint* (queries generated from the
  same FT-tree template share one), with the fingerprint → query-text
  map kept once in the journal header instead of per record;
- **outcome** — the service's five-valued verdict plus the machine-
  readable refusal reason, and the execution *mode* (``exact``,
  ``sampled`` for approximate scans, ``standing`` for incremental
  standing-query evaluations);
- **cost** — queue, service and end-to-end latency on the simulated
  clock, matched lines, batch size, and the *bottleneck stage* of the
  accelerator pass the request rode (pulled from the existing
  explain/profile machinery via :attr:`QueryStats.bottleneck`);
- **window** — an optional label (``load-x2``, ``baseline``...) so one
  journal can hold several workload phases and the mining layer
  (:mod:`repro.obs.workload`) can diff them.

The journal also counts *intake* independently of outcomes
(:meth:`QueryJournal.note_submitted`), so the exported artifact carries
the same conservation cross-check the service report does:
``ok + rejected + shed + timed_out + approximated == submitted`` per
tenant, verified by :func:`validate_journal_payload` and CI's
``repro.obs.check``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from repro.obs.artifacts import (
    capped,
    envelope_problems,
    read_json,
    write_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.request import Request, Response

__all__ = [
    "JOURNAL_KIND",
    "JOURNAL_VERSION",
    "MODES",
    "OUTCOMES",
    "JournalError",
    "JournalRecord",
    "QueryJournal",
    "load_journal",
    "nearest_rank",
    "replay_requests",
    "template_fingerprint",
    "validate_journal_payload",
]

JOURNAL_KIND = "mithrilog_query_journal"
JOURNAL_VERSION = 1

#: The five outcomes a record may carry (mirrors ``repro.service.request
#: .Outcome`` without importing the service layer at module load).
OUTCOMES = ("ok", "rejected", "shed", "timed_out", "approximated")

#: Execution modes a record may carry: a full scan, a seeded sampled
#: scan (the approximate admission class), or an incremental
#: standing-query evaluation over newly sealed pages.
MODES = ("exact", "sampled", "standing")

#: Bottleneck stages :attr:`QueryStats.bottleneck` can name, plus ""
#: for requests that never reached an accelerator pass.
STAGES = ("", "flash", "decompress", "filter", "host", "index")


class JournalError(ValueError):
    """A journal artifact that cannot be trusted (schema or math)."""


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0-100) of an ascending sequence.

    The one ranking rule for request latencies: service reports, mined
    workload profiles and incident bundles all call it, so one journal
    ranks the same everywhere. 0.0 when empty.
    """
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))  # integer ceil
    return sorted_values[int(rank) - 1]


def template_fingerprint(query_text: str) -> str:
    """Stable 12-hex-digit fingerprint of a query's canonical text.

    Queries built from the same template string collapse onto one
    fingerprint, which is what makes per-template slicing possible
    without shipping the full text on every record. sha1 rather than
    ``hash()``: stable across processes and ``PYTHONHASHSEED``.
    """
    return hashlib.sha1(query_text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class JournalRecord:
    """One resolved request, compact enough to keep millions of."""

    seq: int  #: append order within the journal (0-based)
    window: str  #: workload phase label ("" outside any window)
    tenant: str
    template: str  #: :func:`template_fingerprint` of the query text
    outcome: str  #: "ok" | "rejected" | "shed" | "timed_out" | "approximated"
    reason: str  #: refusal cause ("" for OK)
    priority: int
    arrival_s: float  #: request's arrival offset within its run
    queue_s: float  #: arrival -> service start (simulated)
    service_s: float  #: the shared accelerator pass (simulated)
    latency_s: float  #: queue_s + service_s
    completed_at_s: float  #: absolute simulated completion time
    matches: int  #: matched lines (OK only)
    batch_size: int  #: queries sharing the pass (0 = never scheduled)
    stage: str  #: bottleneck stage of the pass ("" when no pass ran)
    deadline_s: Optional[float] = None  #: the request's deadline knob
    degraded: bool = False  #: answered with at least one shard down
    mode: str = "exact"  #: "exact" | "sampled" | "standing"
    sample_fraction: Optional[float] = None  #: page fraction when sampled

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "JournalRecord":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise JournalError(f"malformed journal record: {exc}") from exc


@dataclass
class _TenantTally:
    """Intake vs outcome accounting for one tenant (conservation)."""

    submitted: int = 0
    ok: int = 0
    rejected: int = 0
    shed: int = 0
    timed_out: int = 0
    approximated: int = 0

    def conserved(self) -> bool:
        return sum(getattr(self, o) for o in OUTCOMES) == self.submitted


class QueryJournal:
    """Append-only journal of resolved requests, with JSON export.

    The journal never mutates or reorders what it holds — ``records``
    only grows, and :meth:`write` serialises exactly what was appended.
    Attach one to a :class:`~repro.service.service.QueryService` (the
    ``journal=`` constructor knob) or a :class:`~repro.system.mithrilog
    .MithriLogSystem` and every request that resolves lands here.

    ``max_entries`` bounds memory for long-running services: when set,
    the journal keeps only the newest ``max_entries`` records as a ring
    and counts the rest in :attr:`evicted`. Aggregate per-tenant
    tallies are kept separately from the records, so conservation
    accounting stays exact no matter how many records were evicted;
    sequence numbers keep counting total appends.
    """

    def __init__(
        self,
        meta: Optional[dict] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise JournalError("max_entries must be positive when set")
        self.records: list[JournalRecord] = []
        self.templates: dict[str, str] = {}  #: fingerprint -> query text
        self.meta: dict = dict(meta or {})
        self.window: str = ""
        self.max_entries = max_entries
        self.evicted = 0  #: records dropped by ring retention
        self._appended = 0  #: total appends ever (sequence source)
        self._tallies: dict[str, _TenantTally] = {}

    # -- writing ----------------------------------------------------------

    def begin_window(self, label: str) -> None:
        """Stamp subsequent records with ``label`` (a workload phase)."""
        self.window = label

    def note_submitted(self, tenant: str) -> None:
        """Count intake *before* any outcome exists (conservation)."""
        self._tallies.setdefault(tenant, _TenantTally()).submitted += 1

    def register_template(self, query_text: str) -> str:
        """Intern a query's text; returns its fingerprint."""
        fingerprint = template_fingerprint(query_text)
        if fingerprint not in self.templates:
            self.templates[fingerprint] = query_text
        return fingerprint

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record should carry."""
        return self._appended

    def append(self, record: JournalRecord) -> None:
        """Append one pre-built record (the low-level writer)."""
        if record.outcome not in OUTCOMES:
            raise JournalError(f"unknown outcome {record.outcome!r}")
        self.records.append(record)
        self._appended += 1
        if (
            self.max_entries is not None
            and len(self.records) > self.max_entries
        ):
            overflow = len(self.records) - self.max_entries
            del self.records[:overflow]
            self.evicted += overflow
        tally = self._tallies.setdefault(record.tenant, _TenantTally())
        setattr(tally, record.outcome, getattr(tally, record.outcome) + 1)

    def observe(self, response: "Response") -> JournalRecord:
        """Append a record for a resolved service response."""
        request = response.request
        fingerprint = self.register_template(str(request.query))
        record = JournalRecord(
            seq=self.next_seq,
            window=self.window,
            tenant=request.tenant,
            template=fingerprint,
            outcome=response.outcome.value,
            reason=response.reason,
            priority=request.priority,
            arrival_s=request.arrival_s,
            queue_s=response.queue_time_s,
            service_s=response.service_time_s,
            latency_s=response.latency_s,
            completed_at_s=response.completed_at_s,
            matches=response.matches,
            batch_size=response.batch_size,
            stage=response.bottleneck,
            deadline_s=request.deadline_s,
            degraded=response.degraded,
            mode="sampled" if response.outcome.value == "approximated"
            else "exact",
            # the opt-in is recorded even when the request settled
            # exactly, so replay re-offers the same eligibility
            sample_fraction=request.sample_fraction,
        )
        self.append(record)
        return record

    def observe_direct(
        self,
        query_text: str,
        *,
        latency_s: float,
        matches: int,
        stage: str,
        completed_at_s: float,
        batch_size: int = 1,
        tenant: str = "_direct",
        mode: str = "exact",
        sample_fraction: Optional[float] = None,
    ) -> JournalRecord:
        """Append a record for a query that bypassed the service layer.

        Direct :meth:`MithriLogSystem.query` calls have no admission
        story — they always execute — so the record is OK by
        construction, with the whole latency attributed to service time.
        ``mode`` distinguishes exact scans from seeded sampled scans
        and incremental standing-query evaluations.
        """
        if mode not in MODES:
            raise JournalError(f"unknown execution mode {mode!r}")
        self.note_submitted(tenant)
        fingerprint = self.register_template(query_text)
        record = JournalRecord(
            seq=self.next_seq,
            window=self.window,
            tenant=tenant,
            template=fingerprint,
            outcome="ok",
            reason="",
            priority=0,
            arrival_s=0.0,
            queue_s=0.0,
            service_s=latency_s,
            latency_s=latency_s,
            completed_at_s=completed_at_s,
            matches=matches,
            batch_size=batch_size,
            stage=stage,
            mode=mode,
            sample_fraction=sample_fraction,
        )
        self.append(record)
        return record

    # -- reading ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.records)

    def windows(self) -> list[str]:
        """Window labels in first-appearance order."""
        seen: list[str] = []
        for record in self.records:
            if record.window not in seen:
                seen.append(record.window)
        return seen

    def in_window(self, label: Optional[str]) -> list[JournalRecord]:
        """Records of one window (``None`` means all of them)."""
        if label is None:
            return list(self.records)
        return [r for r in self.records if r.window == label]

    def tenant_tallies(self) -> dict[str, dict[str, int]]:
        return {
            tenant: asdict(tally)
            for tenant, tally in sorted(self._tallies.items())
        }

    def conserved(self) -> bool:
        """Every noted submission has exactly one journalled outcome."""
        return all(t.conserved() for t in self._tallies.values())

    # -- serialisation ----------------------------------------------------

    def to_payload(self) -> dict:
        payload = {
            "kind": JOURNAL_KIND,
            "version": JOURNAL_VERSION,
            "meta": self.meta,
            "templates": dict(sorted(self.templates.items())),
            "tenants": self.tenant_tallies(),
            "records": [r.to_dict() for r in self.records],
        }
        if self.evicted:
            payload["evicted"] = self.evicted
        return payload

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=False)

    def write(self, path: Union[str, Path]) -> Path:
        return write_json(path, self.to_payload())

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryJournal":
        problems = validate_journal_payload(payload)
        if problems:
            raise JournalError("; ".join(problems))
        journal = cls(meta=payload.get("meta"))
        journal.templates = dict(payload["templates"])
        for entry in payload["records"]:
            journal.records.append(JournalRecord.from_dict(entry))
        journal.evicted = int(payload.get("evicted", 0))
        journal._appended = journal.evicted + len(journal.records)
        for tenant, tally in payload["tenants"].items():
            # journals that predate the approximated outcome omit its tally
            journal._tallies[tenant] = _TenantTally(
                **{k: tally[k] for k in ("submitted", *OUTCOMES) if k in tally}
            )
        return journal


def load_journal(path: Union[str, Path]) -> QueryJournal:
    """Read and validate a journal artifact from disk."""
    return QueryJournal.from_payload(read_json(path, JournalError, "journal"))


_NUMERIC_FIELDS = (
    "arrival_s",
    "queue_s",
    "service_s",
    "latency_s",
    "completed_at_s",
)


def validate_journal_payload(payload: object) -> list[str]:
    """Schema + conservation check; returns human-readable problems.

    An empty list means the artifact is trustworthy: every record is
    well-formed, every fingerprint resolves in the template map, the
    per-tenant tallies reproduce the records, and intake conservation
    holds for every tenant.
    """
    problems = envelope_problems(payload, JOURNAL_KIND, JOURNAL_VERSION)
    if problems:
        return problems
    assert isinstance(payload, dict)
    templates = payload.get("templates")
    records = payload.get("records")
    tenants = payload.get("tenants")
    if not isinstance(templates, dict):
        return ["templates map missing"]
    if not isinstance(records, list):
        return ["records list missing"]
    if not isinstance(tenants, dict):
        return ["tenant tallies missing"]

    recount: dict[str, _TenantTally] = {}
    for i, entry in enumerate(records):
        if not isinstance(entry, dict):
            problems.append(f"record {i}: not an object")
            continue
        outcome = entry.get("outcome")
        if outcome not in OUTCOMES:
            problems.append(f"record {i}: unknown outcome {outcome!r}")
            continue
        if entry.get("template") not in templates:
            problems.append(
                f"record {i}: fingerprint {entry.get('template')!r} "
                "missing from the template map"
            )
        if entry.get("stage") not in STAGES:
            problems.append(
                f"record {i}: unknown bottleneck stage {entry.get('stage')!r}"
            )
        if outcome in ("ok", "approximated") and entry.get("stage") == "":
            problems.append(
                f"record {i}: answered record without a bottleneck stage"
            )
        mode = entry.get("mode", "exact")
        if mode not in MODES:
            problems.append(f"record {i}: unknown execution mode {mode!r}")
        elif outcome == "approximated" and mode != "sampled":
            problems.append(
                f"record {i}: approximated outcome with mode {mode!r} "
                "(must be sampled)"
            )
        if mode == "sampled":
            fraction = entry.get("sample_fraction")
            if (
                not isinstance(fraction, (int, float))
                or not 0.0 < fraction < 1.0
            ):
                problems.append(
                    f"record {i}: sampled record needs sample_fraction "
                    "in (0, 1)"
                )
        for fieldname in _NUMERIC_FIELDS:
            value = entry.get(fieldname)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"record {i}: {fieldname} must be a non-negative number"
                )
        latency = entry.get("latency_s")
        queue = entry.get("queue_s")
        service = entry.get("service_s")
        if (
            isinstance(latency, (int, float))
            and isinstance(queue, (int, float))
            and isinstance(service, (int, float))
            and abs(latency - (queue + service)) > 1e-9
        ):
            problems.append(
                f"record {i}: latency_s != queue_s + service_s"
            )
        tally = recount.setdefault(str(entry.get("tenant")), _TenantTally())
        setattr(tally, outcome, getattr(tally, outcome) + 1)
        if capped(problems):
            break

    evicted = payload.get("evicted", 0)
    if not isinstance(evicted, int) or evicted < 0:
        problems.append("evicted must be a non-negative integer")
        evicted = 0
    shortfall = 0
    for tenant, declared in tenants.items():
        counted = recount.get(tenant, _TenantTally())
        for outcome in OUTCOMES:
            # older journals predate the approximated outcome; absent
            # means zero for it, never for the original four
            declared_n = declared.get(
                outcome, 0 if outcome == "approximated" else None
            )
            counted_n = getattr(counted, outcome)
            if not isinstance(declared_n, int):
                problems.append(
                    f"tenant {tenant}: declared {outcome} tally "
                    f"{declared_n!r} is not an integer"
                )
                continue
            if evicted == 0 and declared_n != counted_n:
                problems.append(
                    f"tenant {tenant}: declared {outcome} tally "
                    f"{declared_n} != {counted_n} counted from records"
                )
            elif declared_n < counted_n:
                problems.append(
                    f"tenant {tenant}: declared {outcome} tally "
                    f"{declared_n} < {counted_n} counted from retained "
                    "records"
                )
            else:
                shortfall += declared_n - counted_n
        total = sum(declared.get(o, 0) for o in OUTCOMES)
        if declared.get("submitted") != total:
            problems.append(
                f"tenant {tenant}: conservation violated — submitted "
                f"{declared.get('submitted')} != sum of outcomes {total}"
            )
    if evicted and shortfall != evicted:
        problems.append(
            f"evicted count {evicted} does not match the {shortfall} "
            "records missing from the declared tallies"
        )
    for tenant in recount:
        if tenant not in tenants:
            problems.append(f"tenant {tenant}: records exist but no tally")
    return problems


def replay_requests(
    journal: Union[QueryJournal, dict],
    windows: Optional[Iterable[str]] = None,
) -> "list[Request]":
    """Rebuild the submitted workload as fresh :class:`Request` objects.

    This is what makes the journal *replayable*: an A/B harness can
    re-offer the exact recorded traffic (tenant, template text,
    priority, deadline, arrival offset) to a differently-configured
    service. Outcomes are deliberately not replayed — they are what the
    B run exists to re-measure.
    """
    from repro.core.query import parse_query
    from repro.service.request import Request

    if isinstance(journal, dict):
        journal = QueryJournal.from_payload(journal)
    wanted = set(windows) if windows is not None else None
    compiled: dict[str, object] = {}
    requests: list[Request] = []
    for record in journal.records:
        if wanted is not None and record.window not in wanted:
            continue
        text = journal.templates[record.template]
        if text not in compiled:
            compiled[text] = parse_query(text)
        requests.append(
            Request(
                tenant=record.tenant,
                query=compiled[text],
                priority=record.priority,
                deadline_s=record.deadline_s,
                arrival_s=record.arrival_s,
                sample_fraction=record.sample_fraction,
            )
        )
    requests.sort(key=lambda r: r.arrival_s)
    return requests
