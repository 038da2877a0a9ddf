"""Tests for top-k (limit) and newest-first query execution."""

import pytest

from repro.baselines.grep import grep_lines
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.system.mithrilog import MithriLogSystem


@pytest.fixture(scope="module")
def corpus():
    return generator_for("Liberty2").generate(5000)


@pytest.fixture(scope="module")
def system(corpus):
    sys = MithriLogSystem()
    sys.ingest(corpus)
    return sys


class TestLimit:
    def test_limit_caps_matches(self, system, corpus):
        query = parse_query("kernel:")
        outcome = system.query(query, limit=5)
        assert len(outcome.matched_lines) == 5
        expected = grep_lines(query, corpus)
        # a prefix of the storage-ordered full result
        assert outcome.matched_lines == expected[:5]

    def test_limit_reads_fewer_pages(self, system):
        query = parse_query("kernel:")
        limited = system.query(query, limit=3)
        full = system.query(query)
        assert limited.stats.pages_read < full.stats.pages_read
        assert limited.stats.bytes_from_flash < full.stats.bytes_from_flash
        assert limited.stats.elapsed_s < full.stats.elapsed_s

    def test_limit_larger_than_matches_returns_all(self, system, corpus):
        query = parse_query("panic:")
        expected = grep_lines(query, corpus)
        outcome = system.query(query, limit=len(expected) + 100)
        assert sorted(outcome.matched_lines) == sorted(expected)

    def test_invalid_limit(self, system):
        # an option error, not a failed storage pass (which is what a
        # StorageError means to the service and the cluster)
        for limit in (0, -1):
            with pytest.raises(QueryError):
                system.query(parse_query("kernel:"), limit=limit)


class TestNewestFirst:
    def test_newest_first_returns_tail_matches(self, system, corpus):
        query = parse_query("kernel:")
        expected = grep_lines(query, corpus)
        outcome = system.query(query, newest_first=True, limit=4)
        # the matches come from the newest region of the log
        tail = set(expected[-200:])
        assert all(line in tail for line in outcome.matched_lines)
        assert len(outcome.matched_lines) == 4

    def test_newest_first_without_limit_same_set(self, system, corpus):
        query = parse_query("panic:")
        expected = sorted(grep_lines(query, corpus))
        outcome = system.query(query, newest_first=True)
        assert sorted(outcome.matched_lines) == expected

    def test_newest_first_visits_high_addresses_first(self, system):
        query = parse_query("kernel:")
        limited = system.query(query, newest_first=True, limit=1)
        # one match from the newest pages: barely any data touched
        assert limited.stats.pages_read <= 3

    def test_limit_with_newest_first_is_not_the_last_matches(self):
        """Pages are visited newest first, but each page is filtered in
        storage order and cancelled at the k-th match: the oldest visited
        page gives its *earliest* matches. (Returning the last ones would
        move ``lines_seen``, and with it every simulated time.)"""
        lines = [b"filler line %d" % i for i in range(50)]
        lines[3] = b"needle early"
        lines[30] = b"needle late"
        system = MithriLogSystem()
        system.ingest(lines)
        assert system.index.total_data_pages == 1
        outcome = system.query(parse_query("needle"), limit=1, newest_first=True)
        assert outcome.matched_lines == [b"needle early"]
        assert outcome.stats.lines_seen == 4
