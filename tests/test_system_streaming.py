"""Tests for streaming ingestion."""

import pytest

from repro.baselines.grep import grep_lines
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import IngestError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor


@pytest.fixture(scope="module")
def corpus():
    return generator_for("Liberty2").generate(2000)


class TestArrival:
    def test_batches_persist_automatically(self, corpus):
        ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=100)
        for line in corpus[:250]:
            ingestor.append(line)
        assert ingestor.lines_ingested == 200
        assert ingestor.pending_lines == 50

    def test_flush_persists_tail(self, corpus):
        ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=100)
        ingestor.extend(corpus[:130])
        assert ingestor.flush() == 30
        assert ingestor.pending_lines == 0
        assert ingestor.flush() == 0

    def test_newline_in_append_rejected(self):
        ingestor = StreamingIngestor(MithriLogSystem())
        with pytest.raises(IngestError):
            ingestor.append(b"two\nlines")

    def test_validation(self):
        with pytest.raises(IngestError):
            StreamingIngestor(MithriLogSystem(), batch_lines=0)
        with pytest.raises(IngestError):
            StreamingIngestor(MithriLogSystem(), snapshot_every_s=0)
        ingestor = StreamingIngestor(MithriLogSystem())
        with pytest.raises(IngestError):
            ingestor.extend([b"a"], timestamps=[1.0, 2.0])

    def test_context_manager_flushes(self, corpus):
        system = MithriLogSystem()
        with StreamingIngestor(system, batch_lines=10_000) as ingestor:
            ingestor.extend(corpus[:120])
        assert ingestor.pending_lines == 0
        assert system.total_lines == 120


class TestQueryMidStream:
    def test_results_complete_including_pending(self, corpus):
        query = parse_query("session AND opened")
        expected = grep_lines(query, corpus[:500])
        ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=128)
        ingestor.extend(corpus[:500])
        assert ingestor.pending_lines > 0  # some tail not yet persisted
        outcome = ingestor.query(query)
        assert sorted(outcome.matched_lines) == sorted(expected)

    def test_pending_excluded_when_asked(self, corpus):
        query = parse_query("session AND opened")
        ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=128)
        ingestor.extend(corpus[:500])
        with_pending = ingestor.query(query, include_pending=True)
        without = ingestor.query(query, include_pending=False)
        assert len(without.matched_lines) <= len(with_pending.matched_lines)

    def test_per_query_counts_cover_pending(self, corpus):
        q1 = parse_query("kernel:")
        q2 = parse_query("sshd")
        ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=128)
        ingestor.extend(corpus[:500])
        outcome = ingestor.query(q1, q2)
        assert outcome.per_query_counts[0] == len(grep_lines(q1, corpus[:500]))
        assert outcome.per_query_counts[1] == len(grep_lines(q2, corpus[:500]))


class TestSnapshotCadence:
    def test_snapshots_fire_on_time_cadence(self, corpus):
        epochs = [float(ln.split()[1]) for ln in corpus]
        span = epochs[-1] - epochs[0]
        system = MithriLogSystem()
        ingestor = StreamingIngestor(
            system, batch_lines=100, snapshot_every_s=span / 5
        )
        ingestor.extend(corpus, timestamps=epochs)
        ingestor.flush()
        assert len(system.index.snapshots.snapshots) >= 3

    def test_no_snapshots_without_timestamps(self, corpus):
        system = MithriLogSystem()
        ingestor = StreamingIngestor(system, batch_lines=100, snapshot_every_s=1.0)
        ingestor.extend(corpus[:300])
        ingestor.flush()
        assert len(system.index.snapshots.snapshots) == 0


class TestPendingCap:
    def test_cap_validation(self):
        with pytest.raises(IngestError):
            StreamingIngestor(MithriLogSystem(), max_pending_lines=0)
        with pytest.raises(IngestError):
            StreamingIngestor(MithriLogSystem(), overflow="drop-oldest")

    def test_raise_policy_surfaces_backpressure(self, corpus):
        ingestor = StreamingIngestor(
            MithriLogSystem(), batch_lines=512, max_pending_lines=3
        )
        ingestor.extend(corpus[:3])
        with pytest.raises(IngestError, match="pending buffer full"):
            ingestor.append(corpus[3])
        # the buffer itself is intact: flushing drains it and unblocks
        assert ingestor.flush() == 3
        ingestor.append(corpus[3])
        assert ingestor.pending_lines == 1

    def test_shed_policy_drops_and_counts(self, corpus):
        ingestor = StreamingIngestor(
            MithriLogSystem(),
            batch_lines=512,
            max_pending_lines=5,
            overflow="shed",
        )
        ingestor.extend(corpus[:20])
        assert ingestor.pending_lines == 5
        assert ingestor.lines_shed == 15
        ingestor.flush()
        assert ingestor.lines_ingested == 5

    def test_cap_above_batch_never_binds(self, corpus):
        # auto-flush at batch_lines empties the buffer before the cap
        ingestor = StreamingIngestor(
            MithriLogSystem(), batch_lines=50, max_pending_lines=100
        )
        ingestor.extend(corpus[:500])
        assert ingestor.lines_shed == 0
        assert ingestor.pending_lines < 50


class TestBackpressureMetrics:
    """The arrival buffer exports its state: pending-depth gauge and
    overflow-shed counter, both registered at construction so dashboards
    see zeros instead of holes before the first event."""

    def test_pending_gauge_tracks_the_buffer(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=100)
            gauge = registry.get("mithrilog_ingest_pending_lines")
            assert gauge.value() == 0.0
            ingestor.extend(corpus[:30])
            assert gauge.value() == 30.0
            ingestor.extend(corpus[30:120])  # crosses one auto-flush
            assert gauge.value() == float(ingestor.pending_lines) == 20.0
            ingestor.flush()
            assert gauge.value() == 0.0

    def test_overflow_shed_counter(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            ingestor = StreamingIngestor(
                MithriLogSystem(),
                batch_lines=512,
                max_pending_lines=5,
                overflow="shed",
            )
            counter = registry.get("mithrilog_ingest_overflow_shed_total")
            assert counter.value() == 0.0
            ingestor.extend(corpus[:20])
            assert counter.value() == 15.0
            assert counter.value() == float(ingestor.lines_shed)

    def test_raise_policy_sheds_nothing(self, corpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            ingestor = StreamingIngestor(
                MithriLogSystem(), batch_lines=512, max_pending_lines=3
            )
            ingestor.extend(corpus[:3])
            with pytest.raises(IngestError):
                ingestor.append(corpus[3])
            counter = registry.get("mithrilog_ingest_overflow_shed_total")
            assert counter.value() == 0.0

    def test_filter_counters_count_what_the_kernel_saw(self, corpus):
        """``lines_filtered`` is every line the kernel evaluated and
        ``lines_kept`` every line it kept — on a full scan, a ``limit=``
        read and the pending tail alike."""
        registry = MetricsRegistry()
        query = parse_query("session AND opened")
        with use_registry(registry):
            system = MithriLogSystem()
            ingestor = StreamingIngestor(system, batch_lines=128)
            ingestor.extend(corpus[:500])
            assert ingestor.pending_lines > 0
            outcomes = [
                system.scan_all(query),
                system.query(query, limit=3),
                ingestor.query(query),
            ]
        filtered = registry.get("mithrilog_pipeline_lines_filtered_total").value()
        kept = registry.get("mithrilog_pipeline_lines_kept_total").value()
        assert filtered == sum(o.stats.lines_seen for o in outcomes)
        assert kept == sum(o.stats.lines_kept for o in outcomes)
        assert filtered > kept > 0

    def test_disabled_registry_keeps_ingest_working(self, corpus):
        with use_registry(None):
            ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=100)
            ingestor.extend(corpus[:250])
            assert ingestor.lines_ingested == 200
