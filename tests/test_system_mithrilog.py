"""End-to-end tests for the MithriLog system facade."""

import pytest

from repro.baselines.grep import grep_lines
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.system.mithrilog import MithriLogSystem


@pytest.fixture(scope="module")
def corpus():
    # large enough that the 100 microsecond access latency amortises and
    # the near-storage bandwidth story is visible (the paper's corpora
    # are GBs; ~1.5 MB is the laptop-scale equivalent)
    return generator_for("Liberty2").generate(12_000)


@pytest.fixture(scope="module")
def system(corpus):
    sys = MithriLogSystem()
    sys.ingest(corpus)
    return sys


class TestIngest:
    def test_ingest_report(self, system, corpus):
        # re-ingest into a fresh system to inspect the report
        fresh = MithriLogSystem()
        report = fresh.ingest(corpus[:500])
        assert report.lines == 500
        assert report.pages_written >= 1
        assert report.compression_ratio > 1.5
        assert report.index_memory_bytes > 0

    def test_pages_fit_flash(self, corpus):
        fresh = MithriLogSystem()
        fresh.ingest(corpus[:500])
        for addr in fresh.index.data_pages:
            page = fresh.device.flash.read_page(addr)
            assert len(page.data) <= fresh.params.storage.page_bytes

    def test_compression_packs_multiple_lines_per_page(self, corpus):
        fresh = MithriLogSystem()
        report = fresh.ingest(corpus[:500])
        text_bytes = sum(len(ln) + 1 for ln in corpus[:500])
        naive_pages = -(-text_bytes // fresh.params.storage.page_bytes)
        # compression must beat storing raw text by a wide margin
        assert report.pages_written < naive_pages

    def test_mismatched_timestamps_rejected(self):
        fresh = MithriLogSystem()
        with pytest.raises(Exception):
            fresh.ingest([b"a", b"b"], timestamps=[1.0])

    def test_accelerator_rate_measured(self, system):
        # four pipelines: between 1 and 12.8 GB/s of text consumption
        assert 1e9 < system.accelerator_rate <= 12.8e9

    def test_numpy_timestamps_accepted(self):
        np = pytest.importorskip("numpy")
        report = MithriLogSystem().ingest([b"a", b"b"], timestamps=np.array([1.0, 2.0]))
        assert report.lines == 2


class TestQueryCorrectness:
    def test_indexed_query_matches_oracle(self, system, corpus):
        query = parse_query('"session" AND "opened"')
        outcome = system.query(query)
        expected = grep_lines(query, corpus)
        assert sorted(outcome.matched_lines) == sorted(expected)

    def test_unindexed_scan_matches_oracle(self, system, corpus):
        query = parse_query("kernel: AND NOT nfs:")
        outcome = system.scan_all(query)
        expected = grep_lines(query, corpus)
        assert sorted(outcome.matched_lines) == sorted(expected)

    def test_negative_heavy_query_matches_oracle(self, system, corpus):
        query = parse_query("NOT kernel: AND NOT sshd")
        outcome = system.query(query)
        expected = grep_lines(query, corpus)
        assert sorted(outcome.matched_lines) == sorted(expected)
        assert outcome.stats.index_full_scan

    def test_concurrent_queries_counted_separately(self, system, corpus):
        q1 = parse_query("pbs_mom:")
        q2 = parse_query("ntpd")
        outcome = system.query(q1, q2)
        assert outcome.per_query_counts[0] == len(grep_lines(q1, corpus))
        assert outcome.per_query_counts[1] == len(grep_lines(q2, corpus))

    def test_no_matches(self, system):
        outcome = system.query(parse_query("token-that-never-occurs-xyz"))
        assert outcome.matched_lines == []
        assert outcome.per_query_counts == [0]

    def test_query_without_args_rejected(self, system):
        with pytest.raises(QueryError):
            system.query()


class TestQueryPerformanceAccounting:
    def test_index_reduces_pages_read(self, system):
        selective = parse_query("panic:")
        indexed = system.query(selective)
        scanned = system.scan_all(selective)
        assert indexed.stats.candidate_pages < scanned.stats.candidate_pages
        assert indexed.stats.bytes_from_flash < scanned.stats.bytes_from_flash

    def test_filtering_reduces_host_bytes(self, system):
        outcome = system.scan_all(parse_query("panic:"))
        assert outcome.stats.bytes_to_host < outcome.stats.bytes_decompressed

    def test_effective_throughput_exceeds_raw_storage(self, system):
        # compression + near-storage: effective GB/s above internal BW
        outcome = system.scan_all(parse_query("panic:"))
        gbps = outcome.effective_throughput(system.original_bytes)
        assert gbps > system.params.storage.internal_bandwidth

    def test_throughput_constant_across_query_complexity(self, system):
        simple = system.scan_all(parse_query("panic:"))
        complex_q = parse_query(
            " OR ".join(f"(kernel: AND t{i} AND NOT u{i})" for i in range(8))
        )
        complicated = system.scan_all(complex_q)
        t1 = simple.effective_throughput(system.original_bytes)
        t2 = complicated.effective_throughput(system.original_bytes)
        assert t2 == pytest.approx(t1, rel=0.15)

    def test_stats_shape(self, system):
        outcome = system.query(parse_query("sshd"))
        s = outcome.stats
        assert s.candidate_pages <= s.total_pages
        assert s.lines_kept <= s.lines_seen
        assert s.elapsed_s == s.index_time_s + s.scan_time_s
        assert 0.0 <= s.index_reduction <= 1.0

    def test_query_before_ingest_rejected(self):
        fresh = MithriLogSystem()
        with pytest.raises(QueryError):
            fresh.query(parse_query("x"))


class TestTimeBoundedQueries:
    def test_time_range_query(self):
        gen = generator_for("BGL2")
        lines = gen.generate(1000)
        epochs = [float(ln.split()[1]) for ln in lines]
        system = MithriLogSystem()
        system.ingest(lines, timestamps=epochs)
        system.index.flush(timestamp=epochs[-1])
        query = parse_query("KERNEL")
        bounded = system.query(query, time_range=(epochs[0], epochs[-1]))
        expected = grep_lines(query, lines)
        assert sorted(bounded.matched_lines) == sorted(expected)
