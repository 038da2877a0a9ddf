"""Sharded multi-device deployment.

The paper frames MithriLog for "large-scale system management... in both
cloud and edge environments" (Sections 1 and 8): deployments hold many
accelerated SSDs, and log platforms (Splunk indexers, Elasticsearch
shards) scale by scattering queries across them. This module is that
layer: a :class:`MithriLogCluster` shards ingest across N independent
MithriLog devices and answers queries scatter-gather, with the parallel
makespan being the slowest shard's time.

Sharding is by contiguous batch slices, so each shard stays append-only
and chronologically ordered — the property the per-shard indexes and
snapshots rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.query import Query
from repro.errors import IngestError, QueryError, StorageError
from repro.obs.metrics import handle
from repro.obs.profile import TraceContext
from repro.params import SystemParams
from repro.system.mithrilog import IngestReport, MithriLogSystem, QueryOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injectors import ShardFaultInjector


@dataclass(frozen=True)
class ClusterIngestReport:
    """Aggregate of the per-shard ingest reports."""

    shards: tuple[IngestReport, ...]

    @property
    def lines(self) -> int:
        return sum(r.lines for r in self.shards)

    @property
    def original_bytes(self) -> int:
        return sum(r.original_bytes for r in self.shards)

    @property
    def compression_ratio(self) -> float:
        compressed = sum(r.compressed_bytes for r in self.shards)
        if compressed == 0:
            return 1.0
        return self.original_bytes / compressed

    @property
    def elapsed_s(self) -> float:
        """Shards ingest in parallel: the slowest paces the batch."""
        return max((r.elapsed_s for r in self.shards), default=0.0)


@dataclass(frozen=True)
class ShardError:
    """One shard's failure during a scatter-gather query."""

    shard: int
    error: str  #: exception class name, e.g. ``BadBlockError``
    message: str

    def __str__(self) -> str:
        """Compact ``shard 2: BadBlockError(...)`` rendering."""
        return f"shard {self.shard}: {self.error}({self.message})"


@dataclass
class ClusterQueryOutcome:
    """Scatter-gather query result.

    When every shard answered, ``complete`` is True and the result is
    exhaustive. When shards failed (after the device exhausted its
    retries, or the shard was down), the outcome is explicitly
    ``degraded``: the matches from healthy shards are returned and every
    failing shard is listed in ``shard_errors`` — partial data is never
    passed off as complete.
    """

    per_shard: list[QueryOutcome]
    matched_lines: list[bytes]
    per_query_counts: list[int]
    shard_errors: list[ShardError] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when at least one shard failed to answer."""
        return bool(self.shard_errors)

    @property
    def complete(self) -> bool:
        """True when every queried shard answered."""
        return not self.shard_errors

    @property
    def failed_shards(self) -> list[int]:
        """Indices of the shards that failed to answer."""
        return [e.shard for e in self.shard_errors]

    @property
    def elapsed_s(self) -> float:
        """Parallel execution: the slowest shard's time."""
        return max((o.stats.elapsed_s for o in self.per_shard), default=0.0)

    @property
    def serial_elapsed_s(self) -> float:
        """What one device holding everything serially would pay."""
        return sum(o.stats.elapsed_s for o in self.per_shard)

    def effective_throughput(self, original_bytes: int) -> float:
        if self.elapsed_s == 0:
            return 0.0
        return original_bytes / self.elapsed_s

    @property
    def profile(self) -> dict[str, dict[str, int]]:
        """Cluster-wide per-stage scan counts, summed over shards.

        Each shard's :attr:`QueryStats.profile
        <repro.system.mithrilog.QueryStats.profile>` carries the
        deterministic calls/units synthesis; the merge is a plain sum,
        so the cluster view is as worker-count-invariant as the shards'.
        """
        merged: dict[str, dict[str, int]] = {}
        for outcome in self.per_shard:
            for stage, entry in outcome.stats.profile.items():
                into = merged.setdefault(stage, {"calls": 0, "units": 0})
                into["calls"] += entry.get("calls", 0)
                into["units"] += entry.get("units", 0)
        return merged


class MithriLogCluster:
    """N accelerated storage devices behind one ingest/query interface."""

    def __init__(
        self,
        num_shards: int = 4,
        params: Optional[SystemParams] = None,
        seed: int = 0,
        fault_injector: Optional["ShardFaultInjector"] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self.shards = [
            MithriLogSystem(params, seed=seed + i) for i in range(num_shards)
        ]
        self.fault_injector = fault_injector
        #: Monotonic scatter-gather counter, minting cluster trace ids.
        self._query_seq = 0
        self._m_shard_latency = handle("mithrilog_cluster_shard_query_seconds")
        self._m_degraded = handle("mithrilog_cluster_degraded_queries_total")
        self._m_shard_errors = handle("mithrilog_cluster_shard_errors_total")

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def original_bytes(self) -> int:
        return sum(s.original_bytes for s in self.shards)

    @property
    def total_lines(self) -> int:
        return sum(s.total_lines for s in self.shards)

    # -- ingest ------------------------------------------------------------

    def ingest(
        self,
        lines: Sequence[bytes],
        timestamps: Optional[Sequence[float]] = None,
    ) -> ClusterIngestReport:
        """Shard a batch into contiguous slices, one per device."""
        if timestamps is not None and len(timestamps) != len(lines):
            raise IngestError("timestamps must align one-to-one with lines")
        reports = []
        n = len(lines)
        base = n // self.num_shards
        extra = n % self.num_shards
        start = 0
        for index, shard in enumerate(self.shards):
            size = base + (1 if index < extra else 0)
            if size == 0:
                continue
            chunk = lines[start : start + size]
            stamps = (
                timestamps[start : start + size] if timestamps is not None else None
            )
            reports.append(shard.ingest(chunk, timestamps=stamps))
            start += size
        return ClusterIngestReport(shards=tuple(reports))

    # -- query ---------------------------------------------------------------

    def query(
        self,
        *queries: Query,
        use_index: bool = True,
        workers: int = 1,
    ) -> ClusterQueryOutcome:
        """Scatter the queries, gather matches in shard order.

        Storage failures inside a shard (a page still failing after the
        device's retries, a shard that is down) do not fail the whole
        query: the shard is recorded in ``shard_errors`` and the outcome
        comes back explicitly degraded, with the healthy shards' matches
        intact. ``workers`` is handed to each shard's scan executor
        (see :meth:`repro.system.mithrilog.MithriLogSystem.query`).

        Every shard runs under one cluster trace context (``cq<n>``)
        with its shard index as a coordinate, so spans from one
        scatter-gather stay correlated across the shards' tracers.
        """
        if not queries:
            raise QueryError("query() needs at least one query")
        self._query_seq += 1
        context = TraceContext(trace_id=f"cq{self._query_seq}")
        per_shard = []
        matched: list[bytes] = []
        counts = [0] * len(queries)
        shard_errors: list[ShardError] = []
        for index, shard in enumerate(self.shards):
            if shard.total_lines == 0:
                continue
            try:
                if self.fault_injector is not None:
                    self.fault_injector.on_query(index)
                outcome = shard.query(
                    *queries, use_index=use_index, workers=workers,
                    trace_context=context.child(shard=index),
                )
            except StorageError as exc:
                shard_errors.append(
                    ShardError(
                        shard=index, error=type(exc).__name__, message=str(exc)
                    )
                )
                self._m_shard_errors.inc(error=type(exc).__name__)
                continue
            per_shard.append(outcome)
            self._m_shard_latency.observe(outcome.stats.elapsed_s)
            matched.extend(outcome.matched_lines)
            for q in range(len(queries)):
                counts[q] += outcome.per_query_counts[q]
        if shard_errors:
            self._m_degraded.inc()
        return ClusterQueryOutcome(
            per_shard=per_shard,
            matched_lines=matched,
            per_query_counts=counts,
            shard_errors=shard_errors,
        )

    def scan_all(
        self, *queries: Query, workers: int = 1
    ) -> ClusterQueryOutcome:
        return self.query(*queries, use_index=False, workers=workers)

    def close(self) -> None:
        """Release every shard's scan worker pools (idempotent)."""
        for shard in self.shards:
            shard.close()
