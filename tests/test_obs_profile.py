"""Host-side stage profiling and trace-context propagation.

The worker-invisibility fix is the point under test: scan work done in
pool subprocesses must surface in the *parent's* metrics registry and
span tracer (the workers' own registries die with the pool), and the
deterministic profile counts must be identical at any worker count.
"""

import pickle

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.profile import (
    PartitionProfile,
    ProfileBuilder,
    StageProfile,
    TraceContext,
    merge_profiles,
    profile_counts,
    profile_to_dict,
)
from repro.obs.tracing import SpanTracer
from repro.system.cluster import MithriLogCluster
from repro.system.mithrilog import MithriLogSystem

SEED = 7
QUERY = parse_query("session OR root")


def corpus(lines=3000):
    return list(generator_for("Liberty2", seed=SEED).iter_lines(lines))


class TestProfileBuilder:
    def test_add_accumulates(self):
        builder = ProfileBuilder()
        builder.add("decompress", units=100, wall_s=0.5)
        builder.add("decompress", calls=2, units=50, wall_s=0.25)
        profile = builder.build()
        assert profile["decompress"] == StageProfile(
            calls=3, units=150, wall_s=0.75
        )

    def test_merge_profiles_sums_stages(self):
        a = {"decompress": StageProfile(calls=1, units=10, wall_s=0.1)}
        b = {
            "decompress": StageProfile(calls=2, units=20, wall_s=0.2),
            "filter": StageProfile(calls=5, units=50, wall_s=0.5),
        }
        merged = merge_profiles([a, b])
        assert merged["decompress"].calls == 3
        assert merged["decompress"].units == 30
        assert merged["decompress"].wall_s == pytest.approx(0.3)
        assert merged["filter"].calls == 5

    def test_profile_to_dict_and_counts(self):
        profile = {"filter": StageProfile(calls=2, units=7, wall_s=0.125)}
        assert profile_to_dict(profile) == {
            "filter": {"calls": 2, "units": 7, "wall_s": 0.125}
        }
        assert profile_counts(profile) == {"filter": {"calls": 2, "units": 7}}


class TestTraceContext:
    def test_tags_omit_unset_coordinates(self):
        context = TraceContext(trace_id="q1")
        assert context.tags() == {"trace_id": "q1"}

    def test_child_adds_coordinates(self):
        context = TraceContext(trace_id="cq3")
        child = context.child(shard=2)
        assert child.tags() == {"trace_id": "cq3", "shard": 2}
        grandchild = child.child(partition=1)
        assert grandchild.tags() == {
            "trace_id": "cq3", "shard": 2, "partition": 1
        }

    def test_partition_profile_is_picklable(self):
        record = PartitionProfile(
            index=1, pages=4, bytes_decompressed=100, lines_seen=10,
            lines_kept=3,
            stages=(("filter", StageProfile(calls=4, units=10, wall_s=0.1)),),
        )
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.stage_dict()["filter"].units == 10


class TestWorkerVisibility:
    """Pool-worker scan work must land in the parent-process registry."""

    def run_scan(self, workers):
        with use_registry(MetricsRegistry()) as registry:
            system = MithriLogSystem(seed=SEED, cache_pages=0)
            system.ingest(corpus())
            outcome = system.query(QUERY, use_index=False, workers=workers)
            system.close()
            calls = registry.counter(
                "mithrilog_profile_calls_total", "", labelnames=("stage",)
            )
            units = registry.counter(
                "mithrilog_profile_units_total", "", labelnames=("stage",)
            )
            wall = registry.counter(
                "mithrilog_profile_wall_seconds_total", "", labelnames=("stage",)
            )
            return outcome, {
                "calls": {
                    s: calls.value(stage=s)
                    for s in ("decompress", "tokenize", "filter")
                    if calls.value(stage=s)
                },
                "units": {
                    s: units.value(stage=s)
                    for s in ("decompress", "tokenize", "filter")
                    if units.value(stage=s)
                },
                "wall": {
                    s: wall.value(stage=s)
                    for s in ("decompress", "tokenize", "filter")
                },
            }

    def test_pool_workers_report_to_parent_registry(self):
        outcome, observed = self.run_scan(workers=4)
        stats = outcome.stats
        assert observed["calls"].get("decompress") == stats.pages_read
        assert observed["calls"].get("tokenize") == stats.pages_read
        assert observed["calls"].get("filter") == stats.pages_read
        assert observed["units"].get("tokenize") == stats.lines_seen
        assert observed["units"].get("decompress") == stats.bytes_decompressed
        # wall time is measured in the workers and merged in the parent
        assert sum(observed["wall"].values()) > 0.0

    def test_kernel_counts_identical_across_pool_sizes(self):
        _, two = self.run_scan(workers=2)
        _, four = self.run_scan(workers=4)
        assert two["calls"] == four["calls"]
        assert two["units"] == four["units"]

    def test_serial_path_reports_to_registry_too(self):
        # workers=1 runs the same partition kernel inline, so the stage
        # accounting is page-granular and identical to the pool path's
        outcome, observed = self.run_scan(workers=1)
        stats = outcome.stats
        assert observed["calls"].get("decompress") == stats.pages_read
        assert observed["units"].get("decompress") == stats.bytes_decompressed
        assert observed["calls"].get("filter") == stats.pages_read
        assert observed["units"].get("filter") == stats.lines_seen
        _, pooled = self.run_scan(workers=4)
        assert observed["calls"] == pooled["calls"]
        assert observed["units"] == pooled["units"]


class TestSynthesizedStatsProfile:
    def test_profile_identical_across_worker_counts(self):
        outcomes = {}
        for workers in (1, 4):
            system = MithriLogSystem(seed=SEED, cache_pages=0)
            system.ingest(corpus())
            outcomes[workers] = system.query(
                QUERY, use_index=False, workers=workers
            )
            system.close()
        assert outcomes[1].stats.profile == outcomes[4].stats.profile
        profile = outcomes[4].stats.profile
        stats = outcomes[4].stats
        assert profile["tokenize"]["units"] == stats.lines_seen
        assert profile["decompress"]["units"] == stats.bytes_decompressed

    def test_cache_hits_reduce_decompress_calls(self):
        system = MithriLogSystem(seed=SEED, cache_pages=10_000)
        system.ingest(corpus(1500))
        cold = system.query(QUERY, use_index=False)
        warm = system.query(QUERY, use_index=False)
        assert cold.stats.cache_hits == 0
        assert warm.stats.cache_hits == warm.stats.pages_read
        assert warm.stats.profile["decompress"]["calls"] == 0
        assert (
            cold.stats.profile["decompress"]["calls"] == cold.stats.pages_read
        )

    def test_host_profile_present_on_both_paths(self):
        system = MithriLogSystem(seed=SEED, cache_pages=0)
        system.ingest(corpus(1500))
        serial = system.query(QUERY, use_index=False)
        pooled = system.query(QUERY, use_index=False, workers=2)
        system.close()
        assert "decompress" in set(serial.stats.host_profile)
        assert {"decompress", "tokenize", "filter"} <= set(
            pooled.stats.host_profile
        )
        assert pooled.stats.partitions == 2


class TestPartitionSpans:
    def test_scan_partition_spans_carry_trace_context(self):
        system = MithriLogSystem(seed=SEED, cache_pages=0)
        system.tracer = SpanTracer(clock=system.clock)
        system.ingest(corpus())
        system.query(QUERY, use_index=False, workers=3)
        system.close()
        partition_spans = [
            s for s in system.tracer.spans if s.name.startswith("scan_partition[")
        ]
        assert len(partition_spans) == 3
        assert {s.track for s in partition_spans} == {"workers"}
        trace_ids = {s.args.get("trace_id") for s in partition_spans}
        assert len(trace_ids) == 1 and trace_ids == {"q1"}
        assert sorted(s.args["partition"] for s in partition_spans) == [0, 1, 2]
        # the partitions' modelled decompress work covers the whole scan
        query_span = next(s for s in system.tracer.spans if s.name == "query")
        assert query_span.args.get("trace_id") == "q1"

    def test_serial_path_emits_no_partition_spans(self):
        system = MithriLogSystem(seed=SEED, cache_pages=0)
        system.tracer = SpanTracer(clock=system.clock)
        system.ingest(corpus(1500))
        system.query(QUERY, use_index=False)
        assert not [
            s for s in system.tracer.spans if s.name.startswith("scan_partition")
        ]


class TestClusterPropagation:
    def test_shards_share_one_trace_id_with_shard_coordinates(self):
        cluster = MithriLogCluster(num_shards=2, seed=SEED)
        for shard in cluster.shards:
            shard.tracer = SpanTracer(clock=shard.clock)
        cluster.ingest(corpus())
        cluster.query(QUERY, use_index=False)
        tagged = []
        for index, shard in enumerate(cluster.shards):
            spans = [s for s in shard.tracer.spans if s.name == "query"]
            assert spans, f"shard {index} recorded no query span"
            tagged.append((spans[0].args["trace_id"], spans[0].args["shard"]))
        assert [t for t, _ in tagged] == ["cq1"] * 2
        assert [s for _, s in tagged] == [0, 1]

    def test_cluster_profile_merges_shard_counts(self):
        cluster = MithriLogCluster(num_shards=2, seed=SEED)
        cluster.ingest(corpus())
        outcome = cluster.query(QUERY, use_index=False)
        merged = outcome.profile
        assert merged["tokenize"]["units"] == sum(
            o.stats.profile["tokenize"]["units"] for o in outcome.per_shard
        )
        assert merged["tokenize"]["units"] == sum(
            o.stats.lines_seen for o in outcome.per_shard
        )
