"""Sampled-scan invariance: workers × kernel × run must not matter.

The approximate scan path picks its page sample in the parent, keyed on
``(seed, template fingerprint, page id)``, *before* the executor
partitions pages over workers. These tests pin the consequence: the
matched lines, per-query counts, estimates, and simulated stats of a
sampled scan are identical at any worker count and on either scan
kernel — and different seeds genuinely move the sample.
"""

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.system.mithrilog import MithriLogSystem

WORKER_COUNTS = (1, 2, 4)


def signature(outcome):
    """Everything observable about a sampled scan, hashed into a tuple."""
    stats = outcome.stats
    estimates = tuple(
        (
            est.matches_seen,
            est.pages_scanned,
            est.pages_total,
            round(est.estimate, 9),
            round(est.ci_low, 9),
            round(est.ci_high, 9),
        )
        for est in (outcome.estimates or ())
    )
    return (
        tuple(outcome.matched_lines),
        tuple(outcome.per_query_counts),
        estimates,
        stats.pages_sampled,
        stats.candidate_pages,
        round(stats.elapsed_s, 12),
    )


@pytest.fixture(scope="module")
def corpus():
    return generator_for("Liberty2", seed=3).generate(3000)


def build(corpus, kernel=None):
    system = MithriLogSystem(seed=3, cache_pages=0, scan_kernel=kernel)
    system.ingest(corpus)
    return system


QUERIES = ("session AND opened", "kernel:", "root")


class TestWorkerInvariance:
    @pytest.mark.parametrize("text", QUERIES)
    def test_identical_at_any_worker_count(self, corpus, text):
        query = parse_query(text)
        signatures = set()
        for workers in WORKER_COUNTS:
            system = build(corpus)
            outcome = system.query(
                query, workers=workers, sample_fraction=0.3, sample_seed=1
            )
            signatures.add(signature(outcome))
            system.close()
        assert len(signatures) == 1

    def test_batched_queries_share_one_sample(self, corpus):
        # a batch is sampled once (by the union fingerprint), so every
        # member sees the same page subset at every worker count
        queries = [parse_query(t) for t in QUERIES]
        signatures = set()
        for workers in WORKER_COUNTS:
            system = build(corpus)
            outcome = system.query(
                *queries, workers=workers, sample_fraction=0.4
            )
            assert len(outcome.estimates) == len(queries)
            signatures.add(signature(outcome))
            system.close()
        assert len(signatures) == 1


class TestBackendInvariance:
    def test_each_backend_matches_the_reference(self, corpus):
        """The numpy kernel's sampled scan equals the reference kernel's."""
        pytest.importorskip("numpy")
        query = parse_query("session AND opened")
        system = build(corpus, kernel="vectorized")
        outcome = system.query(query, sample_fraction=0.3, sample_seed=1)
        system.close()
        oracle = build(corpus, kernel="reference")
        expected = oracle.query(query, sample_fraction=0.3, sample_seed=1)
        oracle.close()
        assert signature(outcome) == signature(expected)


class TestSampleSemantics:
    def test_seed_moves_the_sample(self, corpus):
        query = parse_query("session")
        system = build(corpus)
        a = system.query(query, sample_fraction=0.3, sample_seed=0)
        b = system.query(query, sample_fraction=0.3, sample_seed=99)
        system.close()
        assert a.stats.pages_sampled > 0 and b.stats.pages_sampled > 0
        assert signature(a) != signature(b)

    def test_sampled_scan_reads_fewer_pages(self, corpus):
        query = parse_query("session")
        system = build(corpus)
        exact = system.query(query)
        sampled = system.query(query, sample_fraction=0.2)
        system.close()
        assert 0 < sampled.stats.pages_sampled < exact.stats.candidate_pages
        assert exact.estimates is None
        est = sampled.estimates[0]
        assert est.pages_total == exact.stats.candidate_pages
        # the estimate is honest about the truth it subsampled
        assert est.covers(exact.per_query_counts[0]) or (
            est.relative_error(exact.per_query_counts[0]) < 1.0
        )

    def test_repeat_runs_bit_identical(self, corpus):
        query = parse_query("kernel:")

        def run():
            system = build(corpus)
            outcome = system.query(
                query, workers=2, sample_fraction=0.25, sample_seed=7
            )
            system.close()
            return signature(outcome)

        assert run() == run()
