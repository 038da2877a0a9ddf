"""Merged standing-query passes: how many, and what each one carries.

The registry packs its standing queries into hardware-sized groups and
runs one accelerator pass per group and flush. These tests count the
passes — eight one-set queries are one pass, a wider pool runs in
groups that each fit the hardware, a query too wide to compile gets its
own software pass — and check on every flush what each query took from
its group's pass: the count and the template fingerprints of the
flush's lines it matches, one evaluation, and the outcome its threshold
reports to the alert monitor. That a standing query's window counts
equal grep over every line it watched is the ``standing`` row of
:mod:`tests.differential.test_routes`.
"""

import random

import pytest

from repro.core import hashfilter
from repro.core.backend import numpy_or_none
from repro.core.query import IntersectionSet, Query, parse_query
from repro.datasets.synthetic import generator_for
from repro.obs.journal import QueryJournal
from repro.obs.workload import line_template_fingerprint
from repro.stream.standing import (
    STREAM_TENANT_PREFIX,
    StandingQuery,
    StandingQueryRegistry,
    Threshold,
)
from repro.stream.windows import WindowSpec
from repro.system.mithrilog import MithriLogSystem

HISTORY = 800
LINES = generator_for("Liberty2", seed=5).generate(HISTORY + 1600)
#: overlapping on purpose: one streamed line often satisfies several
POOL = [parse_query(text) for text in (
    "session AND opened",
    "session AND closed",
    "user AND NOT session",
    "kernel:",
    "nfs: AND server",
    "authentication AND failure;",
    "operator",
    "nosuchtoken",
    # eight one-set queries fill a program; the rest open further groups
    "Accepted AND password",
    "pbs_mom: AND task",
    "Did AND NOT root",
    "root OR admin",
    "unknown OR (check AND pass;)",
    "hpcuser",
    "jsmith AND NOT opened",
    "sshd: OR sendmail:",
    "tm_reply",
    "destination AND target",
    "from AND NOT kernel:",
    "(session AND operator) OR (session AND admin) OR errno=17",
)]
WIDE = WindowSpec("sliding", 1e6)

KERNELS = ["reference"] + (["vectorized"] if numpy_or_none() is not None else [])


def standing_set(queries, threshold_on=None):
    return [
        StandingQuery(
            f"s{i}", query, window=WIDE,
            threshold=(
                Threshold(value=3.0, aggregate="count", op=">=")
                if i == threshold_on else None
            ),
        )
        for i, query in enumerate(queries)
    ]


def batches(seed):
    """A seeded append/flush schedule over the post-history lines."""
    rng = random.Random(seed)
    at = HISTORY
    while at < len(LINES):
        size = rng.choice((8, 64, 64, 200, 450))
        yield LINES[at : at + size]
        at += size


class Watched:
    """One system and registry; the ``system.query`` calls of each flush
    and the outcomes it reported to the alert monitor."""

    def __init__(self, standing, kernel):
        self.system = MithriLogSystem(
            seed=3, scan_kernel=kernel, journal=QueryJournal()
        )
        self.system.ingest(LINES[:HISTORY])
        self.registry = StandingQueryRegistry(self.system)
        for query in standing:
            self.registry.register(query)
        self.calls = []
        inner = self.system.query

        def counted(*queries, **options):
            self.calls.append(queries)
            return inner(*queries, **options)

        self.system.query = counted
        self.reported = {}
        observe = self.registry.monitor.observe

        def reported(**observation):
            self.reported[observation["tenant"]] = observation["outcome"]
            return observe(**observation)

        self.registry.monitor.observe = reported
        self.flushes = 0

    def flush(self, lines, workers):
        """Ingest and evaluate; each query took its own lines' share."""
        self.calls.clear()
        self.reported.clear()
        self.system.ingest(lines)
        self.registry.evaluate_new_pages(workers=workers)
        self.flushes += 1
        expected = {}
        for standing in self.registry.standing:
            matching = [line for line in lines if standing.query.matches_line(line)]
            window = self.registry.aggregator(standing.name)
            event = window._events[-1]
            assert event.matches == len(matching)
            assert event.fingerprints == {line_template_fingerprint(line) for line in matching}
            assert window.evaluations == self.flushes
            if standing.threshold is not None:
                breached = standing.threshold.breached(window.matches_total)
                expected[STREAM_TENANT_PREFIX + standing.name] = "shed" if breached else "ok"
        assert self.reported == expected

    def close(self):
        self.system.close()


def run(standing, kernel, workers=1, seed=11, check=None):
    watched = Watched(standing, kernel)
    try:
        flushes = 0
        for lines in batches(seed):
            watched.flush(lines, workers)
            if check is not None:
                check(watched)
            flushes += 1
        assert watched.registry.evaluations == flushes * len(standing)
        return watched
    finally:
        watched.close()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("workers", [1, 2])
def test_eight_queries_are_one_pass_per_flush(kernel, workers):
    standing = standing_set(POOL[:8], threshold_on=0)
    assert hashfilter.fits([s.query for s in standing])

    def one_call_carrying_all_eight(watched):
        assert watched.calls == [tuple(s.query for s in standing)]

    watched = run(standing, kernel, workers, check=one_call_carrying_all_eight)
    # the watched query fired
    assert [alert.slo for alert in watched.registry.monitor.alerts] == ["stream-s0"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_pool_wider_than_the_hardware_runs_in_groups(kernel):
    standing = standing_set(POOL[:20])

    def one_call_per_group(watched):
        assert [len(call) for call in watched.calls] == [
            len(group) for group in watched.registry._groups
        ]

    watched = run(standing, kernel, seed=12, check=one_call_per_group)
    groups = watched.registry._groups
    assert len(groups) > 1
    names = [state.query.name for group in groups for state in group]
    assert sorted(names) == sorted(s.name for s in standing)
    for group in groups:
        assert hashfilter.fits([state.query.query for state in group])


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_query_too_wide_to_compile_gets_its_own_software_pass(kernel):
    tokens = sorted({line.split()[3] for line in LINES[HISTORY:]})[:9]
    too_wide = Query(intersections=tuple(
        IntersectionSet.of(token) for token in tokens
    ))
    assert not hashfilter.fits([too_wide])
    standing = standing_set([POOL[0], too_wide, POOL[1]])

    def two_passes(watched):
        assert watched.calls == [(POOL[0], POOL[1]), (too_wide,)]

    watched = run(standing, kernel, seed=13, check=two_passes)
    assert watched.registry.aggregator("s1").matches_total == sum(
        too_wide.matches_line(line) for line in LINES[HISTORY:]
    )


def test_the_journal_files_a_merged_pass_per_query():
    standing = standing_set(POOL[:8])
    watched = Watched(standing, kernel=None)
    try:
        mark = len(watched.system.journal.records)
        lines = LINES[HISTORY : HISTORY + 64]
        watched.flush(lines, workers=1)
        rows = watched.system.journal.records[mark:]
        assert len(rows) == len(standing)
        assert {row.mode for row in rows} == {"standing"}
        assert {row.batch_size for row in rows} == {len(standing)}
        assert len({row.completed_at_s for row in rows}) == 1
        assert [row.matches for row in rows] == [
            sum(s.query.matches_line(line) for line in lines) for s in standing
        ]
        assert [watched.system.journal.templates[row.template] for row in rows] == [
            str(s.query) for s in standing
        ]
    finally:
        watched.close()


class TestLateRegistration:
    """A standing query watches the future, whenever it registers."""

    PENDING = LINES[HISTORY : HISTORY + 1000]  #: sealed before "late" registers
    TAIL = LINES[HISTORY + 1000 : HISTORY + 1064]
    QUERY = parse_query(PENDING[500].split()[3].decode())  # a node name

    def count(self, lines):
        return sum(map(self.QUERY.matches_line, lines))

    def test_an_empty_registry_skips_what_was_sealed_before(self):
        system = MithriLogSystem(seed=1)
        system.ingest(LINES[:HISTORY])
        registry = StandingQueryRegistry(system)
        system.ingest(self.PENDING)
        assert self.count(self.PENDING) > 0
        registry.register(StandingQuery("late", self.QUERY, window=WIDE))
        system.ingest(self.TAIL)
        assert registry.evaluate_new_pages() < 5  # the tail's pages, not 15
        late = registry.aggregator("late")
        assert late.latest("count") == late.matches_total == self.count(self.TAIL)
        system.close()

    def test_an_older_query_still_gets_its_pending_pages(self):
        system = MithriLogSystem(seed=1)
        system.ingest(LINES[:HISTORY])
        registry = StandingQueryRegistry(system)
        registry.register(StandingQuery("early", self.QUERY, window=WIDE))
        system.ingest(self.PENDING)  # sealed, not yet evaluated
        registry.register(StandingQuery("late", self.QUERY, window=WIDE))
        early, late = registry.aggregator("early"), registry.aggregator("late")
        assert (early.evaluations, late.evaluations) == (1, 0)
        assert early.matches_total == self.count(self.PENDING)
        system.ingest(self.TAIL)
        registry.evaluate_new_pages()
        assert late.matches_total == self.count(self.TAIL)
        assert early.matches_total == self.count(self.PENDING + self.TAIL)
        system.close()
