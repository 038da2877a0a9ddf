"""Observability: metrics, tracing, profiling, EXPLAIN, exposition.

The telemetry layer the ROADMAP's "production-scale system" needs before
any further performance work can be measured honestly — plus the
interpretation layer on top of it:

- :mod:`repro.obs.metrics` — labeled, thread-safe counters / gauges /
  histograms behind a default-on but nullable process-wide registry.
  Every family is declared once in :mod:`repro.obs.families`; components
  bind handles at construction and call them unconditionally (no-ops
  with metrics disabled).
- :mod:`repro.obs.tracing` — spans timestamped on the simulation clock
  (and wall time), exported as Chrome trace-event JSON so a query's
  index-lookup → flash-read → decompress → filter → host-transfer
  pipeline opens directly in Perfetto.
- :mod:`repro.obs.profile` — deterministic host-side stage profiling
  (calls / units / wall seconds) that survives the process-pool
  boundary, and the :class:`~repro.obs.profile.TraceContext` threaded
  through shards and scan partitions.
- :mod:`repro.obs.timeline` — per-resource utilization series derived
  from span data, exported as Chrome counter tracks.
- :mod:`repro.obs.explain` — query plan trees with estimated vs actual
  values, bottleneck attribution and per-stage utilization (EXPLAIN /
  EXPLAIN ANALYZE).
- :mod:`repro.obs.watch` — the perf-regression watchdog over benchmark
  trajectory files (``python -m repro watch-perf``).
- :mod:`repro.obs.journal` — the append-only, replayable query journal
  every service request (and direct system query) lands in: tenant,
  template fingerprint, outcome, latency decomposition, bottleneck
  stage. Feeds :mod:`repro.analytics.workload` and the SLO monitor.
- :mod:`repro.obs.report` — A/B workload reports diffing two mined
  journal profiles slice-by-slice, flagging regressions an aggregate
  win would hide; markdown + JSON renderers.
- :mod:`repro.obs.expose` — Prometheus text format and JSON snapshot
  dumps, plus the canonical metric-family bootstrap.
- :mod:`repro.obs.slo` — declarative per-tenant SLOs evaluated by a
  deterministic multi-window burn-rate alert state machine
  (ok → pending → firing → resolved) on the simulated clock, fed one
  journal record per settled request, live or replayed.
- :mod:`repro.obs.recorder` — the incident flight recorder: validated
  evidence bundles (journal tail, a fire-time metrics snapshot, faults,
  slow-template EXPLAIN) captured the moment an alert fires.
- :mod:`repro.obs.log` — the structured leveled logger the CLI uses
  instead of bare ``print``.
- :mod:`repro.obs.check` — the one table of JSON artifact kinds
  (:data:`~repro.obs.check.ARTIFACTS`: name, recogniser, validator) and
  the ``python -m repro.obs.check`` validator over it;
  :mod:`repro.obs.artifacts` holds what the kinds share (envelope
  check, JSON file I/O, problem cap).

See ``docs/OBSERVABILITY.md`` and ``docs/EXPLAIN.md`` for the full tour.
"""

from repro.obs.explain import (
    ExplainError,
    ExplainReport,
    PlanNode,
    build_explain,
    validate_explain_report,
)
from repro.obs.expose import (
    bootstrap_families,
    render_prometheus,
    snapshot,
    write_snapshot,
)
from repro.obs.journal import (
    JournalError,
    JournalRecord,
    QueryJournal,
    load_journal,
    replay_requests,
    template_fingerprint,
    validate_journal_payload,
)
from repro.obs.log import Logger, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    disable,
    enable,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    PartitionProfile,
    ProfileBuilder,
    StageProfile,
    TraceContext,
    merge_profiles,
    profile_to_dict,
)
from repro.obs.recorder import (
    FlightRecorder,
    render_markdown,
    validate_incident_bundle,
    write_bundle,
)
from repro.obs.report import (
    ABReport,
    ReportError,
    SliceDelta,
    build_ab_report,
    validate_ab_report,
)
from repro.obs.slo import (
    SLO,
    Alert,
    AlertState,
    SLOError,
    SLOMonitor,
    default_slos,
    load_slo_config,
    parse_slo_config,
    replay_journal,
    validate_slo_config,
)
from repro.obs.timeline import (
    busy_fraction,
    chrome_counter_events,
    occupancy_series,
    utilization_summary,
)
from repro.obs.tracing import Span, SpanTracer, TraceError, validate_chrome_trace

__all__ = [
    "ABReport",
    "Alert",
    "AlertState",
    "Counter",
    "ExplainError",
    "ExplainReport",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JournalError",
    "JournalRecord",
    "Logger",
    "MetricError",
    "MetricsRegistry",
    "PartitionProfile",
    "PlanNode",
    "ProfileBuilder",
    "QueryJournal",
    "ReportError",
    "SLO",
    "SLOError",
    "SLOMonitor",
    "SliceDelta",
    "Span",
    "SpanTracer",
    "StageProfile",
    "TraceContext",
    "TraceError",
    "bootstrap_families",
    "build_ab_report",
    "build_explain",
    "busy_fraction",
    "chrome_counter_events",
    "default_slos",
    "disable",
    "enable",
    "get_logger",
    "get_registry",
    "load_journal",
    "load_slo_config",
    "merge_profiles",
    "occupancy_series",
    "parse_slo_config",
    "profile_to_dict",
    "render_markdown",
    "render_prometheus",
    "replay_journal",
    "replay_requests",
    "set_registry",
    "snapshot",
    "template_fingerprint",
    "use_registry",
    "utilization_summary",
    "validate_ab_report",
    "validate_chrome_trace",
    "validate_explain_report",
    "validate_incident_bundle",
    "validate_journal_payload",
    "validate_slo_config",
    "write_bundle",
    "write_snapshot",
]
