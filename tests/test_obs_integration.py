"""End-to-end observability: spans, metric families, fault accounting.

These tests exercise the whole instrumented stack inside an isolated
registry (``use_registry``), so counters reflect exactly what the test
did — the same isolation discipline the benchmarks use.
"""

import pytest

from repro.core.query import parse_query
from repro.errors import StorageError
from repro.faults.injectors import (
    ShardFaultInjector,
    WalFaultInjector,
    inject_page_faults,
)
from repro.faults.reporting import FAULT_COMPONENTS
from repro.faults.schedules import AtOperationsSchedule, BernoulliSchedule
from repro.obs.expose import bootstrap_families, render_prometheus
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import SpanTracer, validate_chrome_trace
from repro.system.cluster import MithriLogCluster
from repro.system.mithrilog import MithriLogSystem
from repro.system.wal import WriteAheadLog

#: The five query phases the tracer must emit (plus the "query" root).
QUERY_PHASES = {"index_lookup", "flash_read", "decompress", "filter",
                "host_transfer"}


@pytest.fixture()
def corpus():
    from repro.datasets.synthetic import generator_for

    return generator_for("BGL2", seed=3).generate(1200)


class TestQueryTrace:
    def test_single_query_emits_all_phases(self, corpus, tmp_path):
        with use_registry(MetricsRegistry()):
            system = MithriLogSystem(seed=1)
            system.tracer = SpanTracer(clock=system.clock)
            report = system.ingest(corpus)
            outcome = system.query(parse_query("KERNEL AND INFO"))

        query_spans = [s for s in system.tracer.spans
                       if s.category == "query"]
        assert QUERY_PHASES <= {s.name for s in query_spans}
        assert len({s.name for s in query_spans}) >= 5

        by_name = {s.name: s for s in query_spans}
        # the query sits on the simulated timeline after the ingest
        assert by_name["query"].start_s == pytest.approx(report.elapsed_s)
        # index traversal is serial: scan stages start where it ends
        for stage in ("flash_read", "decompress", "filter", "host_transfer"):
            assert by_name[stage].start_s == pytest.approx(
                by_name["index_lookup"].end_s
            )
        # durations come from the stats, which the outcome carries too
        assert by_name["flash_read"].duration_s == pytest.approx(
            outcome.stats.flash_time_s
        )
        assert by_name["query"].duration_s == pytest.approx(
            outcome.stats.elapsed_s
        )

        # and the export is a valid, non-empty Chrome trace
        path = system.tracer.write_chrome_trace(tmp_path / "trace.json")
        assert validate_chrome_trace(path) >= 5

    def test_breakdown_keys_match_span_names(self, corpus):
        with use_registry(MetricsRegistry()):
            system = MithriLogSystem(seed=1)
            system.tracer = SpanTracer(clock=system.clock)
            system.ingest(corpus)
            outcome = system.query(parse_query("KERNEL"))
        breakdown = outcome.stats.breakdown
        assert set(breakdown) == {"index", "flash", "decompress", "filter",
                                  "host"}
        assert outcome.stats.elapsed_s == pytest.approx(
            breakdown["index"]
            + max(v for k, v in breakdown.items() if k != "index")
        )
        assert outcome.stats.bottleneck in ("flash", "decompress", "filter",
                                            "host")

    def test_scan_time_unchanged_by_stage_split(self, corpus):
        # the per-stage split must preserve the old max(flash, accel, host)
        with use_registry(MetricsRegistry()):
            system = MithriLogSystem(seed=1)
            system.ingest(corpus)
            outcome = system.query(parse_query("KERNEL"))
        stats = outcome.stats
        accel_time = stats.bytes_decompressed / system.accelerator_rate
        storage = system.params.storage
        expected = max(
            storage.latency_s + stats.bytes_from_flash / storage.internal_bandwidth,
            accel_time,
            stats.bytes_to_host / storage.external_bandwidth,
        )
        assert stats.scan_time_s == pytest.approx(expected)


class TestMetricFamilies:
    def test_e2e_populates_families(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            bootstrap_families()
            system = MithriLogSystem(seed=1)
            system.ingest(corpus)
            system.query(parse_query("KERNEL AND INFO"))
            text = render_prometheus()
        for family in ("mithrilog_storage_", "mithrilog_pipeline_",
                       "mithrilog_index_", "mithrilog_wal_",
                       "mithrilog_faults_"):
            assert family in text, family
        assert registry.counter("mithrilog_query_total",
                                labelnames=("path",)).value(path="index") == 1
        assert registry.counter("mithrilog_ingest_lines_total").value() == len(
            corpus
        )
        assert registry.counter(
            "mithrilog_storage_pages_written_total"
        ).value() > 0

    def test_index_lookups_sum_the_queries_token_lookups(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            system = MithriLogSystem(seed=1)
            system.ingest(corpus)
            outcomes = [
                system.query(parse_query("KERNEL AND INFO")),
                system.query(parse_query("FATAL"), parse_query("RAS OR NOT APP")),
                system.query(parse_query("KERNEL"), use_index=False),
                system.query(parse_query("NOT KERNEL")),
            ]
        looked_up = [o.stats.index_tokens_looked_up for o in outcomes]
        assert looked_up[0] == 2 and looked_up[2] == looked_up[3] == 0
        assert registry.get("mithrilog_index_lookups_total").value() == sum(
            looked_up
        )

    def test_ingest_breakdown_keys(self, corpus):
        with use_registry(MetricsRegistry()):
            report = MithriLogSystem(seed=1).ingest(corpus)
        assert set(report.breakdown) == {"storage", "compress", "host"}
        assert report.bottleneck in report.breakdown
        assert report.elapsed_s == pytest.approx(max(report.breakdown.values()))


class TestFaultAccounting:
    def test_fault_storm_log_matches_metrics(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            system = MithriLogSystem(seed=2)
            system.ingest(corpus)
            log = inject_page_faults(
                system,
                read_errors=BernoulliSchedule(0.05, seed=11),
                bit_flips=BernoulliSchedule(0.05, seed=12),
                seed=5,
            )
            for expr in ("KERNEL", "INFO", "RAS AND KERNEL"):
                try:
                    system.query(parse_query(expr))
                except StorageError:
                    pass  # retry budget exhausted: faults still accounted

        counts = log.by_kind()
        assert sum(counts.values()) > 0, "storm injected nothing"
        counter = registry.counter(
            "mithrilog_faults_injected_total", labelnames=("kind", "component")
        )
        for kind, count in counts.items():
            assert counter.value(
                kind=kind, component=FAULT_COMPONENTS[kind]
            ) == count, kind
        # nothing else slipped in: totals agree exactly
        assert sum(v for _labels, v in counter.samples()) == sum(
            counts.values()
        )

    def test_wal_recovery_metrics(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            injector = WalFaultInjector(
                torn_writes=AtOperationsSchedule([1]), seed=3
            )
            wal = WriteAheadLog(tmp_path / "wal.bin", fault_injector=injector)
            wal.append([b"alpha", b"beta"])
            wal.append([b"gamma"])  # torn by the injector
            dropped = wal.repair()

        assert dropped > 0
        assert injector.log.count("torn_write") == 1
        assert registry.counter(
            "mithrilog_wal_recoveries_total", labelnames=("outcome",)
        ).value(outcome="torn") == 1
        assert registry.counter(
            "mithrilog_wal_records_dropped_total"
        ).value() == 1
        assert registry.counter(
            "mithrilog_wal_bytes_truncated_total"
        ).value() == dropped
        assert registry.counter("mithrilog_wal_appends_total").value() == 2

    def test_cluster_degraded_metrics(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            injector = ShardFaultInjector(
                shard_down=AtOperationsSchedule([0])
            )
            cluster = MithriLogCluster(num_shards=2, fault_injector=injector)
            cluster.ingest(corpus)
            outcome = cluster.query(parse_query("KERNEL"))

        assert outcome.degraded
        assert registry.counter(
            "mithrilog_cluster_degraded_queries_total"
        ).value() == 1
        assert registry.counter(
            "mithrilog_cluster_shard_errors_total", labelnames=("error",)
        ).value(error="ShardUnavailableError") == 1
        # the healthy shard's latency was still observed
        hist = registry.histogram("mithrilog_cluster_shard_query_seconds")
        ((_labels, _counts, _total, count),) = hist.series()
        assert count == 1
