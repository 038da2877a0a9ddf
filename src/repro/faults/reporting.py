"""What happened: fault events and per-kind counters.

Every injector records each fault it fires into a :class:`FaultLog`.
How the stack absorbed a fault is recorded where it happens, not here:
a read the device retried to success is counted in
:attr:`repro.system.mithrilog.QueryStats.read_retries`, a torn or
corrupt WAL tail cut by repair in the
``mithrilog_wal_records_dropped_total`` and
``mithrilog_wal_bytes_truncated_total`` families, and a cluster query
answered without a failed shard in ``ClusterQueryOutcome.degraded`` and
``mithrilog_cluster_degraded_queries_total``. Tests assert against these
instead of scraping logs, and the e2e robustness suite uses them to
prove "no silent data loss": every injected fault is either retried to
success, repaired, or visible in a degraded result — never unaccounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import handle

#: Which component each fault kind strikes (the metrics label).
FAULT_COMPONENTS = {
    "read_error": "flash",
    "bit_flip": "flash",
    "bad_block": "flash",
    "torn_write": "wal",
    "shard_down": "cluster",
    "compile_reject": "service",
    "slow_pass": "service",
}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what kind, where, on which operation."""

    kind: str
    op_index: int
    address: Optional[int] = None
    detail: str = ""


@dataclass
class FaultLog:
    """Append-only record of injected faults.

    One log can be shared across many injectors (a cluster's worth), so
    a single object answers "what did this run inject?".
    """

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Fault events double as metrics: one counter labeled by kind and
        # component, bound from the registry active at construction.
        self._m_faults = handle("mithrilog_faults_injected_total")

    def record(
        self,
        kind: str,
        op_index: int,
        address: Optional[int] = None,
        detail: str = "",
        component: Optional[str] = None,
    ) -> None:
        """Append one fault event (and count it in the metrics registry).

        ``component`` defaults to the canonical owner of the fault kind
        (flash for read faults, wal for torn writes, cluster for shard
        loss); injectors at unusual hook points can override it.
        """
        self.events.append(
            FaultEvent(kind=kind, op_index=op_index, address=address, detail=detail)
        )
        self._m_faults.inc(
            kind=kind,
            component=component
            if component is not None
            else FAULT_COMPONENTS.get(kind, "unknown"),
        )

    def count(self, kind: Optional[str] = None) -> int:
        """Number of injected faults, optionally of one kind."""
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def by_kind(self) -> dict[str, int]:
        """Fault counts keyed by kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind().items())
        )
        return f"injected [{kinds or 'none'}]"
