"""The one table of ``mithrilog_*`` metric families (data only).

Every family the stack publishes is declared here, once: its kind, help
text and label names. Components bind a family with
:func:`repro.obs.metrics.handle`; the exposition bootstrap
(:func:`repro.obs.expose.bootstrap_families`) and the artifact validator
(:mod:`repro.obs.check`) walk the same rows, so a family cannot be
published under two help texts or forgotten by either. Every row has a
reader outside its publisher (``tests/test_family_reach.py``).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Family", "FAMILIES"]


class Family(NamedTuple):
    """One row: what ``registry.counter/gauge/histogram`` needs to build it."""

    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: tuple[str, ...] = ()


FAMILIES: dict[str, Family] = {
    "mithrilog_storage_device_reads_total": Family(
        "counter", "Device read requests"
    ),
    "mithrilog_storage_pages_written_total": Family("counter", "Flash pages written"),
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
    "mithrilog_index_lookups_total": Family("counter", "Inverted-index token lookups"),
    "mithrilog_index_memory_bytes": Family(
        "gauge", "In-memory footprint of the ingest-side index state"
    ),
    "mithrilog_scan_batch_queries": Family(
        "gauge", "Concurrent queries in the most recent scan batch"
    ),
    "mithrilog_scan_workers": Family(
        "gauge", "Worker count used by the most recent scan"
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
    "mithrilog_ingest_lines_total": Family("counter", "Log lines ingested"),
    "mithrilog_ingest_overflow_shed_total": Family(
        "counter", "Arriving lines dropped by the bounded-buffer shed policy"
    ),
    "mithrilog_ingest_pending_lines": Family(
        "gauge", "Lines buffered in the arrival tail, not yet persisted"
    ),
    "mithrilog_wal_appends_total": Family("counter", "WAL batches journalled"),
    "mithrilog_wal_bytes_truncated_total": Family(
        "counter", "Bytes cut off the WAL by repair"
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
    "mithrilog_slo_alerts_firing": Family(
        "gauge", "Alerts currently in the firing state"
    ),
    "mithrilog_slo_burn_rate": Family(
        "gauge", "Latest burn rate by SLO and window", ("slo", "window")
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
}
