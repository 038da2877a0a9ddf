"""Scan executor: worker-count invariance, batching, and determinism.

The parallel scan path must be indistinguishable from the serial one in
everything except host wall-clock: identical matched lines, identical
per-query counts, identical simulated stats, and — because flash access
stays in the main process in candidate order — an identical view of a
seeded fault schedule at any worker count.
"""

import pytest

from repro.core import hashfilter
from repro.core.backend import resolve_kernel
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.baselines.grep import grep_indices
from repro.exec import executor as executor_module
from repro.exec.executor import ScanExecutor, _partition_slices
from repro.faults import BernoulliSchedule, inject_page_faults
from repro.obs.tracing import SpanTracer
from repro.system.mithrilog import MithriLogSystem

SEED = 7
NUM_LINES = 3000

#: Simulated accounting that must not depend on the worker count.
STAT_FIELDS = (
    "pages_read",
    "bytes_from_flash",
    "bytes_decompressed",
    "bytes_to_host",
    "lines_seen",
    "lines_kept",
    "read_retries",
    "scan_time_s",
    "index_time_s",
)

QUERIES = [
    parse_query("session AND opened"),
    parse_query("root OR sshd"),
    parse_query("session AND NOT root"),
]


@pytest.fixture(scope="module")
def corpus():
    return list(generator_for("Liberty2", seed=SEED).iter_lines(NUM_LINES))


def build_system(corpus, cache_pages=0):
    system = MithriLogSystem(seed=SEED, cache_pages=cache_pages)
    system.ingest(corpus)
    return system


def assert_same_outcome(a, b):
    assert a.matched_lines == b.matched_lines
    assert a.per_query_counts == b.per_query_counts
    for field in STAT_FIELDS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field


class TestWorkerInvariance:
    def test_parallel_matches_serial(self, corpus):
        serial = build_system(corpus).scan_all(*QUERIES)
        assert serial.matched_lines  # the workload is not vacuous
        parallel_system = build_system(corpus)
        try:
            parallel = parallel_system.scan_all(*QUERIES, workers=3)
        finally:
            parallel_system.close()
        assert_same_outcome(serial, parallel)

    def test_indexed_query_with_workers(self, corpus):
        serial = build_system(corpus).query(QUERIES[0])
        parallel_system = build_system(corpus)
        try:
            parallel = parallel_system.query(QUERIES[0], workers=2)
        finally:
            parallel_system.close()
        assert_same_outcome(serial, parallel)

    def test_seeded_fault_schedule_is_worker_invariant(self, corpus):
        outcomes = []
        for workers in (1, 3):
            system = build_system(corpus)
            inject_page_faults(
                system, read_errors=BernoulliSchedule(0.1, seed=SEED), seed=SEED
            )
            try:
                outcomes.append(system.scan_all(*QUERIES, workers=workers))
            finally:
                system.close()
        serial, parallel = outcomes
        assert serial.stats.read_retries > 0  # the schedule actually fired
        assert_same_outcome(serial, parallel)

    def test_limit_forces_serial_path(self, corpus):
        system = build_system(corpus)
        limited = system.query(QUERIES[0], use_index=False, limit=5, workers=4)
        assert len(limited.matched_lines) == 5
        assert not system._scan_executors  # no pool was ever created

    def test_invalid_worker_count(self, corpus):
        system = build_system(corpus)
        with pytest.raises(QueryError):
            system.query(QUERIES[0], workers=0)


class TestBatching:
    def test_batched_counts_match_individual_scans(self, corpus):
        system = build_system(corpus)
        batched = system.scan_all(*QUERIES)
        individual = [build_system(corpus).scan_all(q) for q in QUERIES]
        assert batched.per_query_counts == [
            len(o.matched_lines) for o in individual
        ]
        # the union of per-query matches is exactly the batched data
        union = set()
        for outcome in individual:
            union.update(outcome.matched_lines)
        assert set(batched.matched_lines) == union

    def test_batch_emits_one_span_per_query(self, corpus):
        system = build_system(corpus)
        system.tracer = SpanTracer(clock=system.clock)
        outcome = system.scan_all(*QUERIES)
        roots = [
            s for s in system.tracer.spans if s.name.startswith("query[")
        ]
        assert len(roots) == len(QUERIES)
        counts = {s.name: s.args["matches"] for s in roots}
        for i, count in enumerate(outcome.per_query_counts):
            assert counts[f"query[{i}]"] == count
        # the shared stage spans are still present, once
        names = [s.name for s in system.tracer.spans]
        for stage in ("index_lookup", "flash_read", "decompress", "filter",
                      "host_transfer"):
            assert names.count(stage) == 1

    def test_single_query_keeps_merged_span_shape(self, corpus):
        system = build_system(corpus)
        system.tracer = SpanTracer(clock=system.clock)
        system.scan_all(QUERIES[0])
        names = {s.name for s in system.tracer.spans if s.category == "query"}
        assert "query" in names
        assert not any(n.startswith("query[") for n in names)


class TestExecutorUnit:
    def test_partition_slices_cover_contiguously(self):
        for n in (0, 1, 2, 7, 16, 100):
            for workers in (1, 2, 3, 8):
                slices = _partition_slices(n, workers)
                assert len(slices) == min(workers, n) or n == 0
                flat = [i for start, stop in slices for i in range(start, stop)]
                assert flat == list(range(n))

    def test_executor_rejects_zero_workers(self):
        with pytest.raises(QueryError):
            ScanExecutor(0)

    def test_close_is_idempotent(self):
        executor = ScanExecutor(2)
        executor.close()
        executor.close()

    def test_program_memos_are_bounded(self, corpus):
        """More distinct batches than the memo bound leave at most
        ``MEMO_ENTRIES`` of each kind resident (the oldest is evicted) —
        compiled programs in ``core/hashfilter``'s one memo, software
        matchers in the executor's — and every batch still answers
        correctly, including the ones scanned again after eviction."""
        bound = hashfilter.MEMO_ENTRIES
        page = corpus[:200]
        system = build_system(page)
        tokens = sorted({t for line in page for t in line.split() if t.isalnum()})
        assert len(tokens) >= bound + 12
        singles = [parse_query(f'"{t.decode()}"') for t in tokens[: bound + 12]]
        hashfilter._PROGRAM_MEMO.clear()
        executor_module._MATCHER_MEMO.clear()
        # offloaded: compiled programs
        batches = [(q,) for q in singles[: bound + 2]]
        batches += [  # 10 intersection sets exceed provisioning: matchers
            tuple(singles[i : i + 10]) for i in range(bound + 2)
        ]
        for batch in batches + batches[:2] + batches[-2:]:
            outcome = system.scan_all(*batch)
            assert list(outcome.per_query_counts) == [
                len(grep_indices(q, page)) for q in batch
            ]
        system.close()
        assert len(hashfilter._PROGRAM_MEMO) == bound
        # the reference kernel builds no software matchers: it evaluates
        # those batches through the query oracles
        vectorized = resolve_kernel(None) == "vectorized"
        assert len(executor_module._MATCHER_MEMO) == (bound if vectorized else 0)


class TestObservability:
    def test_scan_gauges_track_last_scan(self, corpus):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        if registry is None:
            pytest.skip("metrics disabled")
        system = build_system(corpus)
        try:
            system.scan_all(*QUERIES, workers=2)
        finally:
            system.close()
        workers = registry.gauge("mithrilog_scan_workers", "")
        batch = registry.gauge("mithrilog_scan_batch_queries", "")
        assert workers.value() == 2
        assert batch.value() == len(QUERIES)
