"""One grep oracle for every answer route.

The index narrows a pass to a superset of the pages that can match and
the filter trims it (§6.2); concurrent queries are one union run in one
pass (§4). So every route is exact, and each row of :data:`ROUTES` is
held, on both kernels, to :func:`~repro.baselines.grep.grep_lines` over
the ingested lines: one hypothesis corpus per example (lines over space,
tab, both quotes and bytes ≥ 0x80, in 1–4 timestamped batches) serves
every row. A row that reads part of the store is held to the oracle over
those pages' lines; a ``time_range`` answer lies between the oracle over
the lines in range and over every line, as its page bounds are
conservative by contract. Every intake refuses a line holding ``\\n`` or
``\\r``, which a page would store as lines nobody ingested.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.grep import grep_lines
from repro.core.backend import numpy_or_none
from repro.core.query import IntersectionSet, Query, Term
from repro.errors import IngestError
from repro.obs.journal import template_fingerprint
from repro.obs.workload import line_template_fingerprint
from repro.service import QueryService, Request, TenantConfig
from repro.stream.sampling import sample_pages
from repro.stream.standing import StandingQuery, StandingQueryRegistry
from repro.stream.windows import WindowSpec
from repro.system.cluster import MithriLogCluster
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor
from repro.system.wal import JournaledMithriLog, encode_record

KERNELS = ["reference"] + (["vectorized"] if numpy_or_none() is not None else [])

# ---------------------------------------------------------------------------
# the corpus and the pass
# ---------------------------------------------------------------------------

#: stored tokens; most facts below also occur inside a longer token, so a
#: page can hold a fact as a substring and still no line that matches it
WORDS = [
    b"ab", b"xab", b"abc", b"b", b"ERR", b"ERR:", b"xERR", b"ok", b"okay",
    b'"q"', b"q", b"it's", b"\xff\xfe", b"\xff", b"caf\xc3\xa9",
]
DELIMITERS = [b" ", b"\t", b"  ", b" \t"]
#: ``zz`` is never stored: a set holding it is ruled out on every page
FACTS = [b"ab", b"b", b"ERR", b"ok", b"q", b'"q"', b"it's", b"\xff", b"zz"]
#: a window wider than any run: a standing query's count is its total
WIDE = WindowSpec("sliding", 1e6)


@dataclass(frozen=True)
class Case:
    """One drawn corpus, pass and set of route options."""

    lines: tuple[bytes, ...]
    cuts: tuple[int, ...]  #: batch boundaries, ``0 … len(lines)``
    queries: tuple[Query, ...]
    limit: int
    page_mask: tuple[bool, ...]  #: ``within_pages`` keeps page ``i`` if ``mask[i % len]``
    fraction: float
    sample_seed: int
    span: tuple[float, float]

    def batches(self):
        """``(lines, timestamps)`` per batch; line ``i`` is stamped ``i``."""
        for start, end in zip(self.cuts, self.cuts[1:]):
            yield list(self.lines[start:end]), [float(i) for i in range(start, end)]


_line = st.lists(st.sampled_from(WORDS + DELIMITERS), max_size=8).map(b"".join)
_set = st.lists(
    st.builds(Term, token=st.sampled_from(FACTS), negative=st.booleans()),
    min_size=1,
    max_size=3,
).map(lambda terms: IntersectionSet(tuple(terms)))
_query = st.lists(_set, min_size=1, max_size=3).map(lambda sets: Query(tuple(sets)))


@st.composite
def cases(draw) -> Case:
    lines = draw(st.lists(_line, min_size=1, max_size=40))
    step = -(-len(lines) // draw(st.integers(1, 4)))
    low, high = sorted(draw(st.lists(st.integers(0, len(lines)), min_size=2, max_size=2)))
    return Case(
        lines=tuple(lines),
        cuts=(*range(0, len(lines), step), len(lines)),
        queries=tuple(draw(st.lists(_query, min_size=1, max_size=4))),
        limit=draw(st.integers(1, 12)),
        page_mask=tuple(draw(st.lists(st.booleans(), min_size=1, max_size=4))),
        fraction=draw(st.sampled_from([0.3, 0.5, 0.7])),
        sample_seed=draw(st.integers(0, 3)),
        span=(float(low), float(high)),
    )


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def union_of(queries) -> Query:
    return Query(tuple(s for query in queries for s in query.intersections))


def grep(queries, lines) -> tuple[list[bytes], list[int]]:
    """``(matched lines, per-query counts)`` of a pass over ``lines``."""
    kept = grep_lines(union_of(queries), lines)
    return kept, [sum(map(query.matches_line, kept)) for query in queries]


def answer(outcome) -> tuple[list[bytes], list[int]]:
    return list(outcome.matched_lines), list(outcome.per_query_counts)


def is_subsequence(inner, outer) -> bool:
    rest = iter(outer)
    return all(any(item == other for other in rest) for item in inner)


class Store:
    """One kernel's system over one case, and the ingested lines each data
    page holds. Standing queries register before the first batch, so their
    windows see every line; each batch ends in an index snapshot, so time
    bounds can cut pages."""

    def __init__(self, case: Case, kernel: str) -> None:
        self.case = case
        self.kernel = kernel
        self.system = MithriLogSystem(seed=1, scan_kernel=kernel)
        self.registry = StandingQueryRegistry(self.system)
        for i, query in enumerate(case.queries):
            self.registry.register(StandingQuery(f"s{i}", query, window=WIDE))
        for lines, stamps in case.batches():
            self.system.ingest(lines, timestamps=stamps)
            self.system.index.flush(timestamp=stamps[-1])
            self.registry.evaluate_new_pages()
        flash, codec = self.system.device.flash, self.system.codec
        self.pages = list(self.system.index.data_pages)
        texts = [codec.decompress(flash.read_page(page).data) for page in self.pages]
        # the pages hold the corpus, newline-terminated, in order
        assert b"".join(texts) == b"".join(line + b"\n" for line in case.lines)
        self.page_lines, at = {}, 0
        for page, text in zip(self.pages, texts):
            self.page_lines[page] = case.lines[at : at + text.count(b"\n")]
            at += text.count(b"\n")

    def grep(self, queries=None, pages=None):
        """The oracle over every line, or over ``pages``' lines in that order."""
        queries = self.case.queries if queries is None else queries
        if pages is None:
            return grep(queries, self.case.lines)
        return grep(queries, [line for page in pages for line in self.page_lines[page]])

    def close(self) -> None:
        self.system.close()


# ---------------------------------------------------------------------------
# the routes
# ---------------------------------------------------------------------------


def direct(store: Store) -> None:
    for query in store.case.queries:
        assert answer(store.system.query(query)) == store.grep((query,))


def batched(store: Store) -> None:
    outcome = store.system.query(*store.case.queries)
    assert answer(outcome) == store.grep()
    assert outcome.stats.lines_kept == len(outcome.matched_lines)


def unindexed(store: Store) -> None:
    outcome = store.system.query(*store.case.queries, use_index=False)
    assert answer(outcome) == store.grep()
    assert outcome.stats.lines_seen == len(store.case.lines)


def limited(store: Store) -> None:
    queries, limit = store.case.queries, store.case.limit
    kept = store.grep()[0][:limit]
    outcome = store.system.query(*queries, limit=limit)
    assert answer(outcome) == grep(queries, kept)


def newest_first(store: Store) -> None:
    """Pages newest first, each page's lines in storage order."""
    queries, limit = store.case.queries, store.case.limit
    backwards = store.grep(pages=store.pages[::-1])
    assert answer(store.system.query(*queries, newest_first=True)) == backwards
    outcome = store.system.query(*queries, limit=limit, newest_first=True)
    assert answer(outcome) == grep(queries, backwards[0][:limit])


def parallel(store: Store) -> None:
    assert answer(store.system.query(*store.case.queries, workers=2)) == store.grep()


def warm_cache(store: Store) -> None:
    store.system.query(*store.case.queries)
    outcome = store.system.query(*store.case.queries)
    assert answer(outcome) == store.grep()
    assert outcome.stats.cache_hits == outcome.stats.pages_read


def time_bounded(store: Store) -> None:
    low, high = store.case.span
    outcome = store.system.query(*store.case.queries, time_range=(low, high))
    inside = [line for stamp, line in enumerate(store.case.lines) if low <= stamp <= high]
    within, everything = grep(store.case.queries, inside), store.grep()
    got = answer(outcome)
    assert is_subsequence(within[0], got[0]) and is_subsequence(got[0], everything[0])
    assert all(a <= b <= c for a, b, c in zip(within[1], got[1], everything[1]))
    assert got == grep(store.case.queries, got[0])


def within_pages(store: Store) -> None:
    mask = store.case.page_mask
    pages = [page for i, page in enumerate(store.pages) if mask[i % len(mask)]]
    outcome = store.system.query(*store.case.queries, within_pages=pages)
    assert answer(outcome) == store.grep(pages=pages)


def sampled(store: Store) -> None:
    """Against the pages :func:`sample_pages` draws; the same draw, counts
    and estimates at any worker count."""
    case = store.case
    fingerprint = template_fingerprint(str(union_of(case.queries)))
    pages = sample_pages(store.pages, case.sample_seed, fingerprint, case.fraction)
    outcomes = [
        store.system.query(
            *case.queries, use_index=False, workers=workers,
            sample_fraction=case.fraction, sample_seed=case.sample_seed,
        )
        for workers in (1, 2)
    ]
    for outcome in outcomes:
        assert answer(outcome) == store.grep(pages=pages)
        assert outcome.stats.pages_sampled == len(pages)
    assert outcomes[0].estimates == outcomes[1].estimates
    assert outcomes[0].stats.elapsed_s == outcomes[1].stats.elapsed_s
    assert [e.matches_seen for e in outcomes[0].estimates] == outcomes[0].per_query_counts


def cluster(store: Store) -> None:
    """Two shards, gathered in shard order: the same lines as a multiset."""
    shards = MithriLogCluster(num_shards=2, seed=1)
    try:
        for shard in shards.shards:
            shard.scan_kernel = store.kernel
        for lines, stamps in store.case.batches():
            shards.ingest(lines, timestamps=stamps)
        outcome = shards.query(*store.case.queries)
        assert not outcome.degraded
        lines, counts = store.grep()
        assert (sorted(outcome.matched_lines), outcome.per_query_counts) == (sorted(lines), counts)
    finally:
        shards.close()


def via_service(store: Store) -> None:
    queries = store.case.queries
    tenants = [TenantConfig(f"t{i}") for i in range(len(queries))]
    service = QueryService(store.system, tenants)
    report = service.run([Request(f"t{i}", query) for i, query in enumerate(queries)])
    matches = {r.request.tenant: r.matches for r in report.responses if r.ok}
    assert [matches[f"t{i}"] for i in range(len(queries))] == store.grep()[1]


def standing(store: Store) -> None:
    """Each query's window holds its own matches: their count and their
    templates, one evaluation per batch."""
    for i, query in enumerate(store.case.queries):
        kept, (count,) = store.grep((query,))
        window = store.registry.aggregator(f"s{i}")
        assert window.matches_total == window.latest("count") == count
        templates = {line_template_fingerprint(line) for line in kept}
        assert window.latest("distinct_templates") == len(templates)
        assert window.evaluations == len(store.case.cuts) - 1


def pending_tail(store: Store) -> None:
    """The first batch persisted, the rest pending; then all flushed."""
    case = store.case
    system = MithriLogSystem(seed=1, scan_kernel=store.kernel)
    ingestor = StreamingIngestor(system, batch_lines=10_000)
    try:
        batches = list(case.batches())
        ingestor.extend(*batches[0])
        ingestor.flush()
        for lines, stamps in batches[1:]:
            ingestor.extend(lines, stamps)
        outcome = ingestor.query(*case.queries)
        stored = ingestor.query(*case.queries, include_pending=False)
        assert answer(outcome) == store.grep()
        assert outcome.stats.lines_seen - stored.stats.lines_seen == ingestor.pending_lines
        assert outcome.stats.lines_kept == len(outcome.matched_lines)
        ingestor.flush()
        assert answer(ingestor.query(*case.queries)) == store.grep()
    finally:
        system.close()


#: route -> (the ``MithriLogSystem.query`` keywords it sets, its check)
ROUTES = {
    "direct": ((), direct),
    "batched": ((), batched),
    "unindexed": (("use_index",), unindexed),
    "limit": (("limit",), limited),
    "newest_first": (("newest_first", "limit"), newest_first),
    "workers": (("workers",), parallel),
    "warm cache": ((), warm_cache),
    "time_range": (("time_range",), time_bounded),
    "within_pages": (("within_pages",), within_pages),
    "sampled": (("sample_fraction", "sample_seed", "workers"), sampled),
    "cluster": ((), cluster),
    "service": ((), via_service),
    "standing": (("within_pages",), standing),
    "pending tail": ((), pending_tail),
}

#: ``query`` keywords that cannot change which lines come back, each
#: with the reason; an entry that gains a row, or names no keyword, fails
ALLOWED = {
    "analyze": "runs the planner beside the pass and attaches its EXPLAIN report",
    "trace_context": "names the pass's spans; no stage reads it",
}


#: twelve sets do not fit one program: batched, standing and pending-tail
#: passes run in software, which a drawn pass reaches only now and then
WIDE_PASS = Case(
    lines=(b"ab ERR ok", b"xab\tq", b"it's \xff ok", b"ERR: b", b'"q" okay',
           b"ab b zz", b"caf\xc3\xa9 \xff", b"", b"ok ok ab"),
    cuts=(0, 3, 6, 9),
    queries=tuple(
        Query(tuple(
            IntersectionSet((Term(a, False), Term(b, negative)))
            for b in (b"ok", b"q", b"\xff")
        ))
        for a, negative in ((b"ab", False), (b"ERR", True), (b"b", False), (b"it's", True))
    ),
    limit=2,
    page_mask=(True, False),
    fraction=0.5,
    sample_seed=1,
    span=(2.0, 6.0),
)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(case=cases())
@example(case=WIDE_PASS)
def test_every_route_equals_grep(kernel, case):
    store = Store(case, kernel)
    try:
        for name, (_keywords, check) in ROUTES.items():
            try:
                check(store)
            except AssertionError as exc:
                raise AssertionError(f"route {name!r}: {exc}") from exc
    finally:
        store.close()


def test_every_query_keyword_has_a_route():
    keywords = set(inspect.signature(MithriLogSystem.query).parameters) - {"self", "queries"}
    covered = {keyword for keywords_, _check in ROUTES.values() for keyword in keywords_}
    assert keywords - covered - set(ALLOWED) == set(), "query keywords with no ROUTES row"
    assert set(ALLOWED) <= keywords, "ALLOWED names a keyword query() no longer takes"
    assert not set(ALLOWED) & covered, "a keyword in ALLOWED has a row: drop it from ALLOWED"


# ---------------------------------------------------------------------------
# the line contract
# ---------------------------------------------------------------------------

LINE_ENDS = [b"x a\nb", b"x a\r b", b"a c\r\n", b"\n"]


def _intake(name, tmp_path):
    """A fresh intake: ``(ingest a batch, lines it kept)``."""
    if name == "journaled":
        journaled = JournaledMithriLog(tmp_path)
        return journaled.ingest, lambda: journaled.system.total_lines + journaled.wal.size_bytes
    if name == "cluster":
        shards = MithriLogCluster(num_shards=2)
        return shards.ingest, lambda: shards.total_lines
    if name in ("append", "extend"):
        ingestor = StreamingIngestor(MithriLogSystem(), batch_lines=10_000)
        kept = lambda: ingestor.system.total_lines + ingestor.pending_lines  # noqa: E731
        if name == "extend":
            return ingestor.extend, kept
        return lambda lines: [ingestor.append(line) for line in lines], kept
    system = MithriLogSystem()
    return system.ingest, lambda: system.total_lines + system.index.total_data_pages


@pytest.mark.parametrize("intake", ["system", "journaled", "cluster", "append", "extend"])
@pytest.mark.parametrize("odd", LINE_ENDS)
def test_a_line_end_is_refused_at_every_intake(tmp_path, intake, odd):
    ingest, kept = _intake(intake, tmp_path)
    with pytest.raises(IngestError, match="line 0" if intake == "append" else "line 1"):
        ingest([b"alpha beta", odd, b"after"])
    # a refused batch keeps none of its lines; appends stop at the bad one
    assert kept() == (1 if intake == "append" else 0)


def test_a_refused_batch_costs_no_acknowledged_line(tmp_path):
    """A batch holding ``\\n`` used to be journaled and acknowledged, then
    replayed as a record whose line count disagrees with its text: recovery
    dropped it as corrupt, truncated the journal there and lost every
    batch acknowledged after it."""
    journaled = JournaledMithriLog(tmp_path, seed=1)
    acknowledged = []
    for batch in ([b"first ok"], [b"x a\nb", b"a c"], [b"later batch ok"]):
        try:
            journaled.ingest(batch)
        except IngestError:
            continue
        acknowledged += batch
    size = journaled.wal.size_bytes
    recovered = JournaledMithriLog.recover(tmp_path, seed=1)
    everything = recovered.query(Query.single(Term(b"zz", negative=True)))
    assert everything.matched_lines == acknowledged == [b"first ok", b"later batch ok"]
    assert recovered.wal.size_bytes == size


def test_a_journal_from_before_the_check_recovers(tmp_path):
    """A record holding a bare ``\\r`` was journaled and acknowledged
    before intakes refused line ends (its record splits only at ``\\n``);
    recovery stores it as it was stored then, and the batches after it."""
    path = JournaledMithriLog(tmp_path).wal.path
    path.write_bytes(encode_record([b"x a\r b", b"a c"]) + encode_record([b"later ok"]))
    recovered = JournaledMithriLog.recover(tmp_path, seed=1)
    everything = recovered.query(Query.single(Term(b"zz", negative=True)))
    assert everything.matched_lines == [b"x a", b" b", b"a c", b"later ok"]
    assert recovered.system.total_lines == 3
