"""Differential tests for merged standing-query passes.

The registry packs its standing queries into hardware-sized groups and
runs one accelerator pass per group and flush. What it replaced — one
``system.query(q, within_pages=new)`` per standing query — is kept here
(less its metric bumps) as the oracle: :class:`PerQueryLoop` runs on a
twin system fed the same batches, and everything a caller can see of a
standing query must agree flush by flush: the match count, the template
fingerprints, the window values, ``evaluations`` and the alert state.

Simulated time is *meant* to differ (a merged pass is charged as one
pass, the loop charged one per query), so windows here are wider than
any run and alert states are compared as sequences, not timestamps.

The per-query counts of a merged pass come from the kernel; the
fingerprints come from re-matching the pass's lines per query. That the
two agree is checked here, on every flush, instead of in the hot path.
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


class PerQueryLoop(StandingQueryRegistry):
    """The evaluation loop as it was before passes were merged."""

    def evaluate_new_pages(self, workers=1):
        pages = list(self.system.index.data_pages)
        new_pages = pages[self._pages_seen:]
        self._pages_seen = len(pages)
        if not new_pages or not self._states:
            return len(new_pages)
        for state in self._states.values():
            outcome = self.system.query(
                state.query.query, within_pages=new_pages, workers=workers
            )
            matches = outcome.per_query_counts[0]
            fingerprints = {
                line_template_fingerprint(line) for line in outcome.matched_lines
            }
            now_s = self.system.clock.now
            values = state.aggregator.observe(now_s, matches, fingerprints)
            self.evaluations += 1
            threshold = state.query.threshold
            if threshold is not None:
                breached = threshold.breached(values[threshold.aggregate])
                self.monitor.observe(
                    tenant=f"{STREAM_TENANT_PREFIX}{state.query.name}",
                    outcome="shed" if breached else "ok",
                    latency_s=0.0,
                    now_s=now_s,
                )
        self.monitor.evaluate(self.system.clock.now)
        return len(new_pages)


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


class Twin:
    """One system, one registry, and everything observable after a flush."""

    def __init__(self, registry_cls, standing, kernel):
        self.system = MithriLogSystem(
            seed=3, scan_kernel=kernel, journal=QueryJournal()
        )
        self.system.ingest(LINES[:HISTORY])
        self.registry = registry_cls(self.system)
        for query in standing:
            self.registry.register(query)
        self.calls = []
        inner = self.system.query

        def counted(*queries, **options):
            self.calls.append(queries)
            return inner(*queries, **options)

        self.system.query = counted

    def flush(self, lines, workers):
        """Ingest, evaluate, and return what the flush left behind."""
        self.calls.clear()
        before = {
            q.name: self.registry.aggregator(q.name).matches_total
            for q in self.registry.standing
        }
        self.system.ingest(lines)
        pages = self.registry.evaluate_new_pages(workers=workers)
        seen = {"pages": pages, "evaluations": self.registry.evaluations}
        for q in self.registry.standing:
            agg = self.registry.aggregator(q.name)
            seen[q.name] = (
                agg.matches_total - before[q.name],
                agg._events[-1].fingerprints,
                agg.evaluations,
                agg.latest("count"),
                agg.latest("distinct_templates"),
                self.registry.alert_state(q.name),
            )
        return seen

    def close(self):
        self.system.close()


def run_both(standing, kernel, workers=1, seed=11, check=None):
    merged = Twin(StandingQueryRegistry, standing, kernel)
    loop = Twin(PerQueryLoop, standing, kernel)
    try:
        flushes = 0
        for lines in batches(seed):
            got = merged.flush(lines, workers)
            assert got == loop.flush(lines, workers)
            assert len(loop.calls) == len(standing)
            if check is not None:
                check(merged, lines)
            flushes += 1
        assert merged.registry.evaluations == flushes * len(standing)
        return merged
    finally:
        merged.close()
        loop.close()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("workers", [1, 2])
def test_eight_queries_are_one_pass_per_flush(kernel, workers):
    standing = standing_set(POOL[:8], threshold_on=0)
    assert hashfilter.fits([s.query for s in standing])

    def one_call_carrying_all_eight(merged, lines):
        assert merged.calls == [tuple(s.query for s in standing)]
        # the free differential check: the tally of the pass's lines
        # re-matched per query is the count the kernel returned
        for s in standing:
            tally = sum(s.query.matches_line(line) for line in lines)
            assert merged.registry.aggregator(s.name)._events[-1].matches == tally

    merged = run_both(standing, kernel, workers, check=one_call_carrying_all_eight)
    # the alert-state comparison was not vacuous: the watched query fired
    assert [alert.slo for alert in merged.registry.monitor.alerts] == ["stream-s0"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_pool_wider_than_the_hardware_runs_in_groups(kernel):
    standing = standing_set(POOL[:20])

    def one_call_per_group(merged, lines):
        assert [len(call) for call in merged.calls] == [
            len(group) for group in merged.registry._groups
        ]

    merged = run_both(standing, kernel, seed=12, check=one_call_per_group)
    groups = merged.registry._groups
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

    def two_passes(merged, lines):
        assert merged.calls == [(POOL[0], POOL[1]), (too_wide,)]

    merged = run_both(standing, kernel, seed=13, check=two_passes)
    assert merged.registry.aggregator("s1").matches_total == sum(
        too_wide.matches_line(line) for line in LINES[HISTORY:]
    )


def test_the_journal_files_a_merged_pass_per_query():
    standing = standing_set(POOL[:8])
    twin = Twin(StandingQueryRegistry, standing, kernel=None)
    try:
        mark = len(twin.system.journal.records)
        lines = LINES[HISTORY : HISTORY + 64]
        twin.flush(lines, workers=1)
        rows = twin.system.journal.records[mark:]
        assert len(rows) == len(standing)
        assert {row.mode for row in rows} == {"standing"}
        assert {row.batch_size for row in rows} == {len(standing)}
        assert len({row.completed_at_s for row in rows}) == 1
        assert [row.matches for row in rows] == [
            sum(s.query.matches_line(line) for line in lines) for s in standing
        ]
        assert [twin.system.journal.templates[row.template] for row in rows] == [
            str(s.query) for s in standing
        ]
    finally:
        twin.close()


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
