"""A query is one pass: planned once, compiled once, run once.

``MithriLogSystem.query`` is five stages over one pass record (begin →
select pages → scan → account → observe). These tests pin what that
buys: one program compile per process and key, shared by the scheduler
probes, the engine and the scan kernel; option errors raised before
anything is compiled or read; every route applying the same page
selection (the time bound included); one EXPLAIN report builder; and the
journal mode read off the pass.
"""

import pytest

from repro.baselines.grep import grep_lines
from repro.core import hashfilter
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.exec.executor import _filter_program
from repro.obs.journal import QueryJournal
from repro.service import QueryService, make_tenants
from repro.service.request import Request
from repro.system.mithrilog import MithriLogSystem

KERNEL = parse_query("KERNEL")
NOT_KERNEL = parse_query("NOT KERNEL")
FATAL = parse_query("FATAL")
INFO = parse_query("INFO AND NOT FATAL")


@pytest.fixture(scope="module")
def batches():
    lines = generator_for("BGL2", seed=11).generate(6000)
    return [lines[i : i + 1000] for i in range(0, 6000, 1000)]


@pytest.fixture(scope="module")
def system(batches):
    """Six batches, the snapshot index flushed at t = 999, 1999, ..."""
    system = MithriLogSystem(seed=11)
    for k, batch in enumerate(batches):
        system.ingest(
            batch, timestamps=[float(1000 * k + i) for i in range(len(batch))]
        )
        system.index.flush(timestamp=float(1000 * k + 999))
    yield system
    system.close()


@pytest.fixture
def compiles(monkeypatch):
    """Every key ``compile_queries`` is asked for, memo emptied first."""
    calls = []
    real = hashfilter.compile_queries

    def counted(queries, params=None, seed=0):
        calls.append(tuple(queries))
        return real(queries, params=params, seed=seed)

    monkeypatch.setattr(hashfilter, "compile_queries", counted)
    hashfilter._PROGRAM_MEMO.clear()
    return calls


class TestCompileOnce:
    def test_identical_queries_compile_once(self, system, compiles):
        first = system.query(KERNEL)
        again = system.query(KERNEL)
        assert again.matched_lines == first.matched_lines
        assert compiles == [(KERNEL,)]

    def test_engine_and_kernel_share_one_program(self, system, compiles):
        system.query(KERNEL, FATAL)
        spec = system.scan_spec()
        assert spec.queries == (KERNEL, FATAL) and spec.offloaded
        assert _filter_program(spec) is system.engine.program
        assert compiles == [(KERNEL, FATAL)]

    def test_service_run_compiles_each_tuple_once(self, system, compiles):
        """The probe that admits a batch, the engine and the kernel ask
        for the same tuples over and over; each is compiled once."""
        pool = [KERNEL, FATAL, INFO]
        service = QueryService(system, make_tenants(2), max_batch=3)
        tenants = list(service.admission.tenants)
        requests = [
            Request(
                tenant=tenants[i % 2], query=pool[i % 3], arrival_s=1e-6 * (i // 6)
            )
            for i in range(36)
        ]
        report = service.run(requests)
        assert report.queries_served == 36 and report.passes >= 6
        assert len(compiles) == len(set(compiles))
        # nothing ran uncompiled: the last pass's tuple is among them
        assert system.engine.queries in compiles
        assert len(compiles) < report.passes

    def test_a_program_that_does_not_place_is_not_remembered(self, compiles):
        too_many = [parse_query(f"t{i}") for i in range(12)]
        assert not hashfilter.fits(too_many)
        assert not hashfilter.fits(too_many)
        assert len(compiles) == 2 and not hashfilter._PROGRAM_MEMO


class TestOptionErrors:
    """Raised in the begin stage, as ``QueryError``s, before any work."""

    @pytest.mark.parametrize(
        "options",
        [
            {"limit": 0},
            {"limit": -1},
            {"limit": 5, "sample_fraction": 0.5},
            {"workers": 0},
        ],
    )
    def test_bad_options_touch_nothing(self, system, monkeypatch, options):
        self.refuse_all_work(system, monkeypatch)
        clock_before = system.clock.now
        with pytest.raises(QueryError):
            system.query(KERNEL, **options)
        assert system.clock.now == clock_before

    def test_no_queries(self, system, monkeypatch):
        self.refuse_all_work(system, monkeypatch)
        with pytest.raises(QueryError):
            system.query()
        with pytest.raises(QueryError):
            system.explain()

    @staticmethod
    def refuse_all_work(system, monkeypatch):
        def touched(*_args, **_kwargs):
            raise AssertionError("a refused pass was compiled, probed or read")

        monkeypatch.setattr(system.engine, "compile", touched)
        monkeypatch.setattr(system.index, "candidate_pages", touched)
        monkeypatch.setattr(system.device, "read", touched)
        monkeypatch.setattr(system.device, "fetch_pages", touched)


class TestRoutesAgreeOnTimeBound:
    """``time_range`` bounds the page list of every route, not only the
    indexed one (``use_index=False`` used to scan the whole store)."""

    WINDOW = (2000.0, 3500.0)

    @pytest.mark.parametrize("query", [KERNEL, NOT_KERNEL], ids=str)
    def test_every_route_returns_the_same_lines(self, system, batches, query):
        indexed = system.query(query, time_range=self.WINDOW)
        lines = indexed.matched_lines
        # conservative bound: every match inside the window, not the store
        in_window = grep_lines(query, batches[2] + batches[3][:501])
        everything = grep_lines(query, [ln for b in batches for ln in b])
        assert set(in_window) <= set(lines)
        assert len(in_window) <= len(lines) < len(everything)
        assert indexed.stats.candidate_pages < indexed.stats.total_pages

        unindexed = system.query(query, use_index=False, time_range=self.WINDOW)
        assert unindexed.matched_lines == lines
        assert unindexed.stats.pages_read < unindexed.stats.total_pages

        batched = system.query(
            query, FATAL, use_index=False, time_range=self.WINDOW
        )
        assert batched.per_query_counts[0] == len(lines)
        assert grep_lines(query, batched.matched_lines) == lines

        limited = system.query(query, time_range=self.WINDOW, limit=10**9)
        assert limited.matched_lines == lines
        newest = system.query(
            query, use_index=False, time_range=self.WINDOW,
            limit=10**9, newest_first=True,
        )
        assert sorted(newest.matched_lines) == sorted(lines)

        pooled = system.query(
            query, use_index=False, time_range=self.WINDOW, workers=2
        )
        assert pooled.matched_lines == lines


class TestOneReportBuilder:
    def test_explain_and_analyze_report_the_same_estimates(self, system):
        def estimates(report):
            nodes = [report.plan, *report.plan.children]
            return [(node.name, node.estimated) for node in nodes]

        for queries in [(KERNEL,), (NOT_KERNEL,), (KERNEL, INFO)]:
            planned = system.explain(*queries)
            ran = system.query(*queries, analyze=True).explain
            assert planned.mode == "estimate" and ran.mode == "analyze"
            assert estimates(planned) == estimates(ran)
            assert planned.program == ran.program
            assert planned.plan.actual is None and ran.plan.actual is not None


class TestJournalMode:
    def test_mode_follows_the_pass(self, system):
        system.journal = QueryJournal()
        try:
            system.query(KERNEL)
            system.query(KERNEL, within_pages=system.index.data_pages[:5])
            sampled = system.query(
                KERNEL, FATAL, sample_fraction=0.5, sample_seed=3
            )
        finally:
            records, system.journal = list(system.journal), None
        assert [r.mode for r in records] == [
            "exact", "standing", "sampled", "sampled"
        ]
        assert len(sampled.estimates) == 2
        assert [e.matches_seen for e in sampled.estimates] == list(
            sampled.per_query_counts
        )
        assert [r.sample_fraction for r in records] == [None, None, 0.5, 0.5]
