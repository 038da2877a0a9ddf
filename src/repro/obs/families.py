"""The one table of ``mithrilog_*`` metric families (data only).

Every family the stack publishes is declared here, once: its kind, help
text, label names and — for histograms — bucket edges. Components bind a
family with :func:`repro.obs.metrics.handle`; the exposition bootstrap
(:func:`repro.obs.expose.bootstrap_families`) and the artifact validator
(:mod:`repro.obs.check`) walk the same rows, so a family cannot be
published under two help texts or forgotten by either.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["Family", "FAMILIES"]


class Family(NamedTuple):
    """One row: what ``registry.counter/gauge/histogram`` needs to build it."""

    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: tuple[str, ...] = ()
    #: Histograms only; ``None`` means ``metrics.DEFAULT_BUCKETS``.
    buckets: Optional[tuple[float, ...]] = None


FAMILIES: dict[str, Family] = {
    "mithrilog_storage_bytes_read_total": Family("counter", "Bytes read from flash"),
    "mithrilog_storage_bytes_to_host_total": Family(
        "counter", "Bytes DMAed across the host link"
    ),
    "mithrilog_storage_bytes_written_total": Family(
        "counter", "Bytes written to flash"
    ),
    "mithrilog_storage_device_reads_total": Family(
        "counter", "Device read requests"
    ),
    "mithrilog_storage_pages_read_total": Family("counter", "Flash pages read"),
    "mithrilog_storage_pages_written_total": Family("counter", "Flash pages written"),
    "mithrilog_storage_read_retries_total": Family(
        "counter", "Transient page faults absorbed by device retries"
    ),
    "mithrilog_pipeline_compiles_total": Family(
        "counter", "Query compilations by execution mode", ("mode",)
    ),
    "mithrilog_pipeline_cycles_total": Family(
        "counter", "Filter pipeline cycles modelled"
    ),
    "mithrilog_pipeline_lines_filtered_total": Family(
        "counter", "Lines evaluated by the filter engine"
    ),
    "mithrilog_pipeline_lines_kept_total": Family(
        "counter", "Lines that survived filtering"
    ),
    "mithrilog_pipeline_padding_amplification": Family(
        "gauge", "Tokenized bytes per raw input byte"
    ),
    "mithrilog_pipeline_useful_bits_ratio": Family(
        "gauge", "Non-padding share of the tokenized datapath stream (Figure 13)"
    ),
    "mithrilog_index_full_scans_total": Family(
        "counter", "Queries the index could not narrow (full-scan fallback)"
    ),
    "mithrilog_index_lookups_total": Family("counter", "Inverted-index token lookups"),
    "mithrilog_index_memory_bytes": Family(
        "gauge", "In-memory footprint of the ingest-side index state"
    ),
    "mithrilog_index_node_visits_total": Family(
        "counter", "Tree nodes visited during index traversal"
    ),
    "mithrilog_index_pages_indexed_total": Family("counter", "Data pages indexed"),
    "mithrilog_index_root_visits_total": Family(
        "counter", "Root-node hops paid during index traversal"
    ),
    "mithrilog_scan_batch_queries": Family(
        "gauge", "Concurrent queries in the most recent scan batch"
    ),
    "mithrilog_scan_cache_evictions_total": Family(
        "counter", "Decompressed pages evicted by the LRU bound"
    ),
    "mithrilog_scan_cache_hits_total": Family(
        "counter", "Decompressed-page cache hits (LZAH decodes skipped)"
    ),
    "mithrilog_scan_cache_misses_total": Family(
        "counter", "Decompressed-page cache misses"
    ),
    "mithrilog_scan_cache_pages": Family(
        "gauge", "Decompressed pages currently cached"
    ),
    "mithrilog_scan_partitions_total": Family(
        "counter", "Scan partitions executed, by execution mode", ("mode",)
    ),
    "mithrilog_scan_workers": Family(
        "gauge", "Worker count used by the most recent scan"
    ),
    "mithrilog_query_seconds": Family(
        "histogram", "Simulated end-to-end query latency"
    ),
    "mithrilog_query_total": Family("counter", "End-to-end queries", ("path",)),
    "mithrilog_explain_requests_total": Family(
        "counter", "EXPLAIN reports built, by mode (estimate/analyze)", ("mode",)
    ),
    "mithrilog_util_busy_fraction": Family(
        "gauge",
        "Per-resource busy fraction of the latest query's scan window",
        ("resource",),
    ),
    "mithrilog_profile_calls_total": Family(
        "counter", "Host-side kernel calls by scan stage", ("stage",)
    ),
    "mithrilog_profile_units_total": Family(
        "counter",
        "Work units (bytes decoded, lines processed) by scan stage",
        ("stage",),
    ),
    "mithrilog_profile_wall_seconds_total": Family(
        "counter", "Host wall-clock seconds by scan stage", ("stage",)
    ),
    "mithrilog_ingest_bytes_total": Family("counter", "Original bytes ingested"),
    "mithrilog_ingest_compressed_bytes_total": Family(
        "counter", "Compressed bytes stored"
    ),
    "mithrilog_ingest_lines_total": Family("counter", "Log lines ingested"),
    "mithrilog_ingest_overflow_shed_total": Family(
        "counter", "Arriving lines dropped by the bounded-buffer shed policy"
    ),
    "mithrilog_ingest_pending_lines": Family(
        "gauge", "Lines buffered in the arrival tail, not yet persisted"
    ),
    "mithrilog_wal_appends_total": Family("counter", "WAL batches journalled"),
    "mithrilog_wal_bytes_appended_total": Family("counter", "WAL bytes journalled"),
    "mithrilog_wal_bytes_truncated_total": Family(
        "counter", "Bytes cut off the WAL by repair"
    ),
    "mithrilog_wal_fsync_batches_total": Family(
        "counter", "Flushed append batches (one fsync boundary each)"
    ),
    "mithrilog_wal_records_dropped_total": Family(
        "counter", "Torn/corrupt tail records discarded by repair"
    ),
    "mithrilog_wal_recoveries_total": Family(
        "counter", "WAL recovery outcomes", ("outcome",)
    ),
    "mithrilog_cluster_degraded_queries_total": Family(
        "counter", "Scatter-gather queries answered with at least one shard down"
    ),
    "mithrilog_cluster_shard_errors_total": Family(
        "counter", "Shard failures during scatter-gather, by error class", ("error",)
    ),
    "mithrilog_cluster_shard_query_seconds": Family(
        "histogram", "Per-shard simulated query latency"
    ),
    "mithrilog_faults_injected_total": Family(
        "counter", "Injected faults by kind and component", ("kind", "component")
    ),
    "mithrilog_service_backlog": Family(
        "gauge", "Total queued requests across tenants"
    ),
    "mithrilog_service_batch_size": Family(
        "histogram",
        "Queries packed per accelerator pass",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0),
    ),
    "mithrilog_service_degraded_to_sample": Family(
        "gauge",
        "Requests degraded to the sampled admission class instead of being shed",
    ),
    "mithrilog_service_latency_seconds": Family(
        "histogram", "Per-tenant end-to-end simulated latency (OK only)", ("tenant",)
    ),
    "mithrilog_service_passes_total": Family(
        "counter", "Accelerator passes the service scheduled"
    ),
    "mithrilog_service_queue_depth": Family(
        "gauge", "Admission queue depth per tenant", ("tenant",)
    ),
    "mithrilog_service_requests_total": Family(
        "counter", "Service requests by tenant and outcome", ("tenant", "outcome")
    ),
    "mithrilog_workload_hint_demotions_total": Family(
        "counter", "Requests demoted by template admission hints"
    ),
    "mithrilog_workload_journal_records_total": Family(
        "counter", "Journal records appended, by outcome", ("outcome",)
    ),
    "mithrilog_workload_slow_templates": Family(
        "gauge", "Templates the active hint provider marks as pathologically slow"
    ),
    "mithrilog_workload_templates": Family(
        "gauge", "Distinct query templates the journal has seen"
    ),
    "mithrilog_slo_alerts_firing": Family(
        "gauge", "Alerts currently in the firing state"
    ),
    "mithrilog_slo_burn_rate": Family(
        "gauge", "Latest burn rate by SLO and window", ("slo", "window")
    ),
    "mithrilog_slo_error_budget_used_ratio": Family(
        "gauge", "Cumulative error budget consumed (1.0 = exhausted)", ("slo",)
    ),
    "mithrilog_slo_evaluations_total": Family(
        "counter", "Burn-rate evaluation sweeps the monitor has run"
    ),
    "mithrilog_slo_incidents_recorded_total": Family(
        "counter", "Incident bundles captured by the flight recorder"
    ),
    "mithrilog_slo_transitions_total": Family(
        "counter", "Alert state transitions by SLO and new state", ("slo", "state")
    ),
    "mithrilog_stream_evaluations_total": Family(
        "counter", "Incremental standing-query evaluations", ("query",)
    ),
    "mithrilog_stream_matches_total": Family(
        "counter", "Lines matched by standing queries (cumulative)", ("query",)
    ),
    "mithrilog_stream_sampled_pages_skipped_total": Family(
        "counter", "Candidate pages the sampler let approximate scans skip"
    ),
    "mithrilog_stream_sampled_scans_total": Family(
        "counter", "Approximate scans served from a sampled page subset"
    ),
    "mithrilog_stream_standing_queries": Family(
        "gauge", "Standing queries currently registered"
    ),
    "mithrilog_stream_window_value": Family(
        "gauge",
        "Live window value by standing query and aggregate",
        ("query", "aggregate"),
    ),
}
