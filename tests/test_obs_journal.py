"""The query journal: records, serialisation, validation, replay.

The load-bearing property, pinned with hypothesis over randomized
service workloads: every tenant's journal tallies conserve —
``ok + rejected + shed + timed_out + approximated == submitted`` — and
the exported payload passes the same validator CI runs over artifacts.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.synthetic import generator_for
from repro.obs.check import identify
from repro.obs.journal import (
    JournalError,
    JournalRecord,
    QueryJournal,
    load_journal,
    nearest_rank,
    replay_requests,
    template_fingerprint,
    validate_journal_payload,
)
from repro.service import (
    QueryService,
    Request,
    make_tenants,
    open_loop_requests,
    query_pool,
)
from repro.system.mithrilog import MithriLogSystem


@pytest.fixture(scope="module")
def corpus():
    return generator_for("Liberty2").generate(1200)


@pytest.fixture(scope="module")
def tenants():
    return make_tenants(3)


@pytest.fixture(scope="module")
def pool(corpus):
    return query_pool(corpus, max_queries=10, num_pairs=3)


def service_run(corpus, tenants, requests, journal, max_backlog=6):
    system = MithriLogSystem()
    system.ingest(corpus)
    service = QueryService(
        system, tenants, max_backlog=max_backlog, journal=journal
    )
    return service.run(requests)


def make_record(seq=0, outcome="ok", tenant="t0", template=None, **overrides):
    fields = dict(
        seq=seq,
        window="",
        tenant=tenant,
        template=template or template_fingerprint("q"),
        outcome=outcome,
        reason="" if outcome == "ok" else "queue_full",
        priority=0,
        arrival_s=0.0,
        queue_s=0.001,
        service_s=0.002 if outcome == "ok" else 0.0,
        latency_s=0.003 if outcome == "ok" else 0.001,
        completed_at_s=0.01,
        matches=5 if outcome == "ok" else 0,
        batch_size=2 if outcome == "ok" else 0,
        stage="flash" if outcome == "ok" else "",
    )
    if outcome != "ok":
        fields["queue_s"] = 0.001
        fields["service_s"] = 0.0
        fields["latency_s"] = 0.001
    fields.update(overrides)
    return JournalRecord(**fields)


class TestFingerprint:
    def test_stable_and_compact(self):
        assert template_fingerprint("find ERROR") == template_fingerprint(
            "find ERROR"
        )
        assert len(template_fingerprint("anything")) == 12

    def test_distinct_texts_distinct_prints(self):
        assert template_fingerprint("a") != template_fingerprint("b")


class TestJournalWriting:
    def test_windows_stamp_records(self):
        journal = QueryJournal()
        journal.begin_window("warm")
        journal.note_submitted("t0")
        journal.append(make_record(seq=0))
        journal.begin_window("hot")
        journal.note_submitted("t0")
        journal.append(make_record(seq=1))
        # append() does not rewrite the window field; observe() does the
        # stamping — emulate it here
        assert journal.windows() == [""]
        assert len(journal.in_window(None)) == 2

    def test_observe_direct_counts_intake(self):
        journal = QueryJournal()
        journal.begin_window("direct")
        record = journal.observe_direct(
            "find KERNEL",
            latency_s=0.004,
            matches=7,
            stage="filter",
            completed_at_s=0.004,
        )
        assert record.window == "direct"
        assert record.outcome == "ok"
        assert journal.conserved()
        assert journal.templates[record.template] == "find KERNEL"

    def test_unknown_outcome_rejected(self):
        journal = QueryJournal()
        with pytest.raises(JournalError):
            journal.append(make_record(outcome="exploded"))

    def test_register_template_interned_once(self):
        journal = QueryJournal()
        a = journal.register_template("find X")
        b = journal.register_template("find X")
        assert a == b
        assert len(journal.templates) == 1


class TestRetention:
    def _fill(self, journal, n):
        journal.register_template("q")
        for i in range(n):
            journal.note_submitted("t0")
            journal.append(make_record(seq=journal.next_seq))

    def test_unbounded_by_default(self):
        journal = QueryJournal()
        self._fill(journal, 10)
        assert len(journal) == 10
        assert journal.evicted == 0

    def test_ring_keeps_newest(self):
        journal = QueryJournal(max_entries=4)
        self._fill(journal, 10)
        assert len(journal) == 4
        assert journal.evicted == 6
        # the survivors are the most recent appends
        assert [r.seq for r in journal.records] == [6, 7, 8, 9]

    def test_tallies_stay_exact_across_eviction(self):
        journal = QueryJournal(max_entries=3)
        self._fill(journal, 8)
        tally = journal.tenant_tallies()["t0"]
        assert tally["submitted"] == 8
        assert tally["ok"] == 8
        assert journal.conserved()

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(JournalError):
            QueryJournal(max_entries=0)
        with pytest.raises(JournalError):
            QueryJournal(max_entries=-3)

    def test_payload_round_trip_records_evictions(self):
        journal = QueryJournal(max_entries=2)
        self._fill(journal, 5)
        payload = journal.to_payload()
        assert payload["evicted"] == 3
        assert validate_journal_payload(payload) == []
        loaded = QueryJournal.from_payload(payload)
        assert loaded.evicted == 3
        assert loaded.next_seq == 5
        assert loaded.to_payload() == payload

    def test_validator_rejects_phantom_evictions(self):
        # tallies smaller than the records present cannot be explained
        # by eviction
        journal = QueryJournal(max_entries=2)
        self._fill(journal, 5)
        payload = json.loads(journal.to_json())
        payload["evicted"] = 7  # claims more missing than the tallies show
        problems = validate_journal_payload(payload)
        assert any("evicted" in p for p in problems)

    def test_validator_rejects_undeclared_shortfall(self):
        journal = QueryJournal(max_entries=2)
        self._fill(journal, 5)
        payload = json.loads(journal.to_json())
        del payload["evicted"]  # records are missing but none declared
        problems = validate_journal_payload(payload)
        assert problems


class TestServiceIntegration:
    def test_every_response_journalled(self, corpus, tenants, pool):
        journal = QueryJournal()
        journal.begin_window("run")
        requests = open_loop_requests(
            pool, tenants, offered_qps=2500, duration_s=0.04, seed=3
        )
        report = service_run(corpus, tenants, requests, journal)
        assert len(journal) == report.submitted
        assert journal.conserved()
        assert journal.windows() == ["run"]
        ok_records = [r for r in journal if r.outcome == "ok"]
        assert ok_records
        # OK records carry the pass's bottleneck stage and latency split
        for record in ok_records:
            assert record.stage != ""
            assert record.latency_s == pytest.approx(
                record.queue_s + record.service_s
            )

    def test_journal_matches_report_outcomes(self, corpus, tenants, pool):
        journal = QueryJournal()
        requests = open_loop_requests(
            pool, tenants, offered_qps=4000, duration_s=0.03, seed=4
        )
        report = service_run(corpus, tenants, requests, journal)
        counts = report.outcome_counts()
        journalled = {o: 0 for o in counts}
        for record in journal:
            journalled[record.outcome] += 1
        assert journalled == counts

    def test_direct_system_queries_journalled(self, corpus, pool):
        journal = QueryJournal()
        system = MithriLogSystem(journal=journal)
        system.ingest(corpus)
        system.query(pool[0], pool[1])
        assert len(journal) == 2
        assert all(r.batch_size == 2 for r in journal)
        assert all(r.tenant == "_direct" for r in journal)
        assert journal.conserved()


class TestSerialisation:
    def test_round_trip(self, corpus, tenants, pool, tmp_path):
        journal = QueryJournal(meta={"bench": "test"})
        journal.begin_window("w")
        requests = open_loop_requests(
            pool, tenants, offered_qps=1500, duration_s=0.03, seed=5
        )
        service_run(corpus, tenants, requests, journal)
        path = journal.write(tmp_path / "journal.json")
        loaded = load_journal(path)
        assert loaded.to_payload() == journal.to_payload()
        assert loaded.conserved()

    def test_validator_accepts_good_payload(self):
        journal = QueryJournal()
        journal.observe_direct(
            "q", latency_s=0.001, matches=1, stage="flash", completed_at_s=0.001
        )
        assert validate_journal_payload(journal.to_payload()) == []

    def test_validator_rejects_kind_mismatch(self):
        assert validate_journal_payload({"kind": "nope"}) != []
        assert identify([1, 2]) is None

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.__setitem__("version", 99), "version"),
            (
                lambda p: p["records"][0].__setitem__("template", "ffff"),
                "template map",
            ),
            (
                lambda p: p["records"][0].__setitem__("stage", "gpu"),
                "unknown bottleneck stage",
            ),
            (
                lambda p: p["records"][0].__setitem__("latency_s", 9.0),
                "latency_s != queue_s + service_s",
            ),
            (
                lambda p: p["tenants"]["_direct"].__setitem__("submitted", 5),
                "conservation",
            ),
            (
                lambda p: p["tenants"]["_direct"].__setitem__("ok", 3),
                "tally",
            ),
            (
                lambda p: p["records"][0].__setitem__("mode", "psychic"),
                "unknown execution mode",
            ),
            (
                lambda p: p["records"][0].__setitem__(
                    "outcome", "approximated"
                ),
                "must be sampled",
            ),
            (
                lambda p: p["records"][0].__setitem__("mode", "sampled"),
                "sample_fraction",
            ),
        ],
    )
    def test_validator_catches_corruption(self, mutate, fragment):
        journal = QueryJournal()
        journal.observe_direct(
            "q", latency_s=0.001, matches=1, stage="flash", completed_at_s=0.001
        )
        payload = json.loads(journal.to_json())
        mutate(payload)
        problems = validate_journal_payload(payload)
        assert problems
        assert any(fragment in problem for problem in problems)

    def test_from_payload_refuses_corrupt(self):
        journal = QueryJournal()
        journal.observe_direct(
            "q", latency_s=0.001, matches=1, stage="flash", completed_at_s=0.001
        )
        payload = json.loads(journal.to_json())
        payload["records"][0]["outcome"] = "exploded"
        with pytest.raises(JournalError):
            QueryJournal.from_payload(payload)


class TestReplay:
    def test_replay_rebuilds_workload(self, corpus, tenants, pool):
        journal = QueryJournal()
        journal.begin_window("original")
        requests = open_loop_requests(
            pool, tenants, offered_qps=1200, duration_s=0.03, seed=6
        )
        service_run(corpus, tenants, requests, journal)
        replayed = replay_requests(journal)
        assert len(replayed) == len(requests)
        assert [r.arrival_s for r in replayed] == sorted(
            r.arrival_s for r in replayed
        )
        original = sorted(
            (r.tenant, str(r.query), r.priority, r.arrival_s)
            for r in requests
        )
        rebuilt = sorted(
            (r.tenant, str(r.query), r.priority, r.arrival_s)
            for r in replayed
        )
        assert rebuilt == original

    def test_replay_served_identically(self, corpus, tenants, pool):
        journal = QueryJournal()
        requests = open_loop_requests(
            pool, tenants, offered_qps=1200, duration_s=0.02, seed=7
        )
        first = service_run(corpus, tenants, requests, journal)
        second = service_run(
            corpus, tenants, replay_requests(journal), QueryJournal()
        )
        sig = lambda rep: tuple(  # noqa: E731
            (r.request.tenant, r.outcome.value, round(r.latency_s, 12))
            for r in rep.responses
        )
        assert sig(first) == sig(second)

    def overload_requests(self, pool, fraction=0.2):
        """A burst dense enough to trip the degrade-to-sampled path."""
        return [
            Request(
                tenant=f"tenant{i % 3}",
                query=pool[i % len(pool)],
                arrival_s=i * 1e-5,
                sample_fraction=fraction,
            )
            for i in range(40)
        ]

    def test_replay_preserves_the_sampled_mode(self, corpus, tenants, pool):
        journal = QueryJournal()
        requests = self.overload_requests(pool)
        service_run(corpus, tenants, requests, journal, max_backlog=4)
        sampled = [r for r in journal if r.mode == "sampled"]
        assert sampled, "overload burst produced no approximated answers"
        assert all(r.outcome == "approximated" for r in sampled)
        assert all(r.sample_fraction == 0.2 for r in sampled)
        # the opt-in survives even on records that settled exactly, so a
        # replayed workload re-offers the same eligibility
        replayed = replay_requests(journal)
        assert len(replayed) == len(requests)
        assert all(r.sample_fraction == 0.2 for r in replayed)

    def test_sampled_replay_served_identically(self, corpus, tenants, pool):
        journal = QueryJournal()
        first = service_run(
            corpus,
            tenants,
            self.overload_requests(pool),
            journal,
            max_backlog=4,
        )
        assert first.approximated > 0
        second = service_run(
            corpus,
            tenants,
            replay_requests(journal),
            QueryJournal(),
            max_backlog=4,
        )
        sig = lambda rep: tuple(  # noqa: E731
            (r.request.tenant, r.outcome.value, round(r.latency_s, 12))
            for r in rep.responses
        )
        assert sig(first) == sig(second)

    def test_window_filter(self):
        journal = QueryJournal()
        journal.begin_window("a")
        journal.observe_direct(
            "qa", latency_s=0.001, matches=0, stage="flash", completed_at_s=0.001
        )
        journal.begin_window("b")
        journal.observe_direct(
            "qb", latency_s=0.001, matches=0, stage="flash", completed_at_s=0.002
        )
        only_b = replay_requests(journal, windows=["b"])
        assert len(only_b) == 1
        assert str(only_b[0].query) == '("qb")'


class TestConservationProperty:
    _request_specs = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # tenant index
            st.integers(min_value=0, max_value=9),  # pool query index
            st.integers(min_value=0, max_value=2),  # priority
            st.sampled_from([None, 0.002, 0.05]),  # deadline_s
            st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
            st.sampled_from([None, 0.2, 0.5]),  # sample_fraction opt-in
        ),
        min_size=1,
        max_size=20,
    )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(specs=_request_specs)
    def test_journal_conserves_per_tenant(self, corpus, tenants, pool, specs):
        requests = [
            Request(
                tenant=f"tenant{t}",
                query=pool[q % len(pool)],
                priority=p,
                deadline_s=d,
                arrival_s=a,
                sample_fraction=f,
            )
            for t, q, p, d, a, f in specs
        ]
        journal = QueryJournal()
        service_run(corpus, tenants, requests, journal, max_backlog=3)
        assert journal.conserved()
        for tally in journal.tenant_tallies().values():
            assert (
                tally["ok"]
                + tally["rejected"]
                + tally["shed"]
                + tally["timed_out"]
                + tally["approximated"]
                == tally["submitted"]
            )
        assert validate_journal_payload(journal.to_payload()) == []

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        burst=st.integers(min_value=20, max_value=40),
        fraction=st.sampled_from([0.1, 0.3]),
    )
    def test_conserves_under_degrading_overload(
        self, corpus, tenants, pool, burst, fraction
    ):
        """A dense opted-in burst exercises the approximated outcome and
        conservation must still close the books."""
        requests = [
            Request(
                tenant=f"tenant{i % 3}",
                query=pool[i % len(pool)],
                arrival_s=i * 1e-5,
                sample_fraction=fraction,
            )
            for i in range(burst)
        ]
        journal = QueryJournal()
        report = service_run(corpus, tenants, requests, journal, max_backlog=3)
        assert report.approximated > 0
        assert journal.conserved()
        tally = {
            k: sum(t[k] for t in journal.tenant_tallies().values())
            for k in (
                "submitted",
                "ok",
                "rejected",
                "shed",
                "timed_out",
                "approximated",
            )
        }
        assert tally["approximated"] == report.approximated
        assert (
            tally["ok"]
            + tally["rejected"]
            + tally["shed"]
            + tally["timed_out"]
            + tally["approximated"]
            == tally["submitted"]
        )
        assert validate_journal_payload(journal.to_payload()) == []


class TestNearestRank:
    """One ranking rule: the ``ceil(n * q / 100)``-th smallest value."""

    @pytest.mark.parametrize(
        "n, q, rank",
        [
            # pairs where half-to-even rounding of q/100*n + 0.5 ranked one too high
            (10, 90, 9),
            (20, 95, 19),
            (10, 50, 5),
            (100, 99, 99),
            # and the edges
            (200, 99, 198),
            (1, 99, 1),
            (7, 0, 1),
            (7, 100, 7),
        ],
    )
    def test_rank(self, n, q, rank):
        assert nearest_rank(list(range(1, n + 1)), q) == rank

    def test_empty_is_zero(self):
        assert nearest_rank([], 99) == 0.0

    def test_service_percentile_is_the_same_rule(self):
        from repro.service.service import percentile

        for n in range(1, 121):
            values = list(range(n, 0, -1))  # percentile() sorts for itself
            for q in (50, 90, 95, 99):
                assert percentile(values, q) == -(-n * q // 100)
                assert percentile(values, q) == nearest_rank(sorted(values), q)
