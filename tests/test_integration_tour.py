"""Grand-tour integration test: every feature in one realistic pipeline.

Simulates a deployment's lifecycle on one store:

  stream-ingest with WAL durability and snapshot cadence
  -> crash + recovery
  -> checkpoint, save, reload
  -> planner-driven queries (indexed, scanned, time-bounded)
  -> scheduler-batched template workload
  -> template tagging of the corpus

Every stage's answers are verified against the grep oracle or against
the pre-stage answers, so any cross-feature interaction bug surfaces
here even if each feature's own tests pass.
"""

import pytest

from repro.baselines.grep import grep_lines
from repro.core.query import parse_query
from repro.core.tagger import TemplateTagger
from repro.datasets.synthetic import generator_for
from repro.datasets.timestamps import extract_epochs
from repro.system.planner import QueryPlanner
from repro.system.scheduler import QueryScheduler
from repro.system.streaming import StreamingIngestor
from repro.system.wal import JournaledMithriLog
from repro.templates.fttree import FTTree, FTTreeParams
from repro.templates.querygen import build_workload


@pytest.fixture(scope="module")
def corpus():
    return generator_for("Spirit2").generate(5000)


@pytest.fixture(scope="module")
def epochs(corpus):
    extracted = extract_epochs(corpus)
    assert extracted is not None
    return extracted


@pytest.fixture(scope="module")
def deployment(tmp_path_factory, corpus, epochs):
    """The full lifecycle up to the recovered, reloaded store."""
    store_dir = tmp_path_factory.mktemp("tour-store")

    # 1. durable streaming ingest with snapshots
    journaled = JournaledMithriLog(store_dir)
    span = epochs[-1] - epochs[0]
    ingestor = StreamingIngestor(
        journaled.system, batch_lines=256, snapshot_every_s=max(span / 6, 1.0)
    )
    # journal batches as the streamer persists them
    for base in range(0, len(corpus), 256):
        chunk = corpus[base : base + 256]
        stamps = epochs[base : base + 256]
        journaled.wal.append(chunk, stamps)
        ingestor.extend(chunk, stamps)
    ingestor.flush()

    # 2. crash before any checkpoint: recover from the WAL alone
    recovered = JournaledMithriLog.recover(store_dir)
    assert recovered.system.total_lines == len(corpus)

    # 3. checkpoint, reload
    recovered.checkpoint()
    reloaded = JournaledMithriLog.recover(store_dir)
    return reloaded.system


QUERIES = (
    "session AND opened",
    "kernel: AND NOT nfs:",
    "NOT kernel:",
    "panic:",
)


class TestLifecycleCorrectness:
    @pytest.mark.parametrize("expr", QUERIES)
    def test_queries_match_oracle_after_lifecycle(self, deployment, corpus, expr):
        query = parse_query(expr)
        outcome = deployment.query(query)
        expected = grep_lines(query, corpus)
        assert sorted(outcome.matched_lines) == sorted(expected)

    def test_time_bounds_survive_lifecycle(self, deployment, corpus, epochs):
        cut = epochs[len(epochs) // 2]
        query = parse_query("session AND opened")
        bounded = deployment.query(query, time_range=(cut, None))
        full = deployment.query(query)
        assert len(bounded.matched_lines) <= len(full.matched_lines)
        assert set(bounded.matched_lines).issubset(set(full.matched_lines))
        # snapshots existed, so the bound actually pruned pages
        assert bounded.stats.candidate_pages <= full.stats.candidate_pages

    def test_planner_agrees_with_direct_paths(self, deployment, corpus):
        planner = QueryPlanner(deployment)
        for expr in QUERIES:
            query = parse_query(expr)
            _plan, outcome = planner.execute(query)
            expected = grep_lines(query, corpus)
            assert sorted(outcome.matched_lines) == sorted(expected), expr


class TestWorkloadAndAnalytics:
    @pytest.fixture(scope="class")
    def tree(self, corpus):
        return FTTree.from_lines(
            corpus,
            FTTreeParams(max_depth=10, prune_threshold=32, max_doc_frequency=0.9),
        )

    def test_scheduled_template_workload(self, deployment, corpus, tree):
        workload = build_workload(tree, num_pairs=2, num_eights=1, max_singles=10)
        scheduler = QueryScheduler(deployment)
        run = scheduler.run(list(workload.singles))
        assert run.passes <= -(-len(workload.singles) // 8) + 2
        for query, count in zip(workload.singles, run.per_query_counts):
            assert count == len(grep_lines(query, corpus))

    def test_tagging_and_analytics_pipeline(self, corpus, tree):
        tagger = TemplateTagger.from_tree(tree)
        tags = [tagger.tag_line(line) for line in corpus]
        coverage = sum(1 for t in tags if t is not None) / len(tags)
        assert coverage > 0.8
