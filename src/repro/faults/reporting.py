"""What happened: fault events, per-kind counters, recovery statistics.

Every injector records each fault it fires into a :class:`FaultLog`;
recovery code (the device retry loop, WAL repair, cluster degradation)
records how the fault was absorbed. Tests assert against these counters
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
class RecoveryStats:
    """How injected faults were absorbed by the stack."""

    retries: int = 0  #: re-issued page reads that eventually succeeded
    retry_failures: int = 0  #: reads abandoned after the retry budget
    wal_records_dropped: int = 0  #: torn/corrupt WAL tail records discarded
    wal_bytes_truncated: int = 0  #: bytes cut off the WAL by repair
    shards_degraded: int = 0  #: shard queries answered by degradation

    def merge(self, other: "RecoveryStats") -> "RecoveryStats":
        """Combine two recovery tallies (e.g. across cluster shards)."""
        return RecoveryStats(
            retries=self.retries + other.retries,
            retry_failures=self.retry_failures + other.retry_failures,
            wal_records_dropped=self.wal_records_dropped
            + other.wal_records_dropped,
            wal_bytes_truncated=self.wal_bytes_truncated
            + other.wal_bytes_truncated,
            shards_degraded=self.shards_degraded + other.shards_degraded,
        )


@dataclass
class FaultLog:
    """Append-only record of injected faults plus recovery tallies.

    One log can be shared across many injectors (a cluster's worth), so
    a single object answers "what did this run inject, and did the stack
    absorb all of it?".
    """

    events: list[FaultEvent] = field(default_factory=list)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

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
        rec = self.recovery
        return (
            f"injected [{kinds or 'none'}]; "
            f"retries={rec.retries} retry_failures={rec.retry_failures} "
            f"wal_dropped={rec.wal_records_dropped} "
            f"degraded_shards={rec.shards_degraded}"
        )
