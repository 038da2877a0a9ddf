"""Workload mining: slices, percentiles, hot templates, drift.

The pinned property: mining is a pure function of the journal — the
same records always produce byte-identical profiles (dict equality on
``to_dict()``), regardless of how often or in what process you mine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.obs.journal import QueryJournal, template_fingerprint
from repro.obs.workload import (
    DIMENSIONS,
    SliceStats,
    drift,
    hot_templates,
    mine,
)


def fill(journal, template, n, latency_ms, tenant="t0", stage="flash",
         outcome="ok", window=None):
    """Append n uniform records for one template."""
    if window is not None:
        journal.begin_window(window)
    for i in range(n):
        if outcome == "ok":
            journal.observe_direct(
                template,
                latency_s=latency_ms / 1e3,
                matches=3,
                stage=stage,
                completed_at_s=0.01 * (len(journal.records) + 1),
                tenant=tenant,
            )
        else:
            from tests.test_obs_journal import make_record

            journal.note_submitted(tenant)
            journal.append(
                make_record(
                    seq=len(journal.records),
                    outcome=outcome,
                    tenant=tenant,
                    template=journal.register_template(template),
                    window=journal.window,
                )
            )


class TestSliceStats:
    def test_absorb_splits_ok_and_losses(self):
        journal = QueryJournal()
        fill(journal, "fast", 4, 1.0)
        fill(journal, "fast", 2, 0.0, outcome="shed")
        profile = mine(journal)
        stats = profile.slices("template")[template_fingerprint("fast")]
        assert stats.count == 6
        assert stats.ok == 4
        assert stats.shed == 2
        assert stats.lost == 2
        assert stats.loss_rate == pytest.approx(2 / 6)
        # refusals contribute no latency samples
        assert stats.p50_ms == pytest.approx(1.0)

    def test_min_service_is_cheapest_pass(self):
        journal = QueryJournal()
        for ms in (5.0, 1.0, 3.0):
            journal.observe_direct(
                "q", latency_s=ms / 1e3, matches=0, stage="flash",
                completed_at_s=0.01,
            )
        profile = mine(journal)
        stats = profile.slices("template")[template_fingerprint("q")]
        assert stats.min_service_ms == pytest.approx(1.0)
        assert stats.p99_service_ms == pytest.approx(5.0)

    def test_unknown_dimension_raises(self):
        journal = QueryJournal()
        fill(journal, "q", 1, 1.0)
        with pytest.raises(QueryError):
            mine(journal).slices("constellation")


class TestProfile:
    def test_total_rolls_up_tenants(self):
        journal = QueryJournal()
        fill(journal, "a", 3, 2.0, tenant="t0")
        fill(journal, "b", 2, 4.0, tenant="t1")
        fill(journal, "a", 1, 0.0, tenant="t1", outcome="rejected")
        profile = mine(journal)
        assert profile.total.count == 6
        assert profile.total.ok == 5
        assert profile.total.rejected == 1
        assert set(profile.slices("tenant")) == {"t0", "t1"}
        assert set(profile.slices("outcome")) == {"ok", "rejected"}

    def test_goodput_uses_simulated_span(self):
        journal = QueryJournal()
        fill(journal, "q", 10, 1.0)
        profile = mine(journal)
        assert profile.duration_s > 0
        assert profile.goodput_qps == pytest.approx(
            profile.total.ok / profile.duration_s
        )

    def test_hot_templates_ranked_by_count(self):
        journal = QueryJournal()
        fill(journal, "rare", 2, 1.0)
        fill(journal, "hot", 7, 1.0)
        ranking = mine(journal).hot_templates(top=2)
        assert ranking[0]["template"] == template_fingerprint("hot")
        assert ranking[0]["count"] == 7
        assert ranking[0]["share"] == pytest.approx(7 / 9)
        assert ranking[0]["query"] == "hot"
        assert hot_templates(journal, top=1)[0]["template"] == (
            template_fingerprint("hot")
        )

    def test_window_selection(self):
        journal = QueryJournal()
        fill(journal, "a", 3, 1.0, window="w1")
        fill(journal, "b", 5, 1.0, window="w2")
        assert mine(journal, window="w1").records == 3
        assert mine(journal, window="w2").records == 5
        assert mine(journal).records == 8

    def test_profile_dict_has_every_dimension(self):
        journal = QueryJournal()
        fill(journal, "q", 2, 1.0)
        payload = mine(journal).to_dict()
        assert payload["kind"] == "mithrilog_workload_profile"
        assert set(payload["slices"]) == set(DIMENSIONS)

    def test_mine_accepts_exported_payload(self):
        journal = QueryJournal()
        fill(journal, "q", 3, 1.0)
        from_payload = mine(journal.to_payload())
        assert from_payload.to_dict() == mine(journal).to_dict()


class TestDrift:
    def test_identical_windows_no_drift(self):
        journal = QueryJournal()
        fill(journal, "a", 4, 1.0, window="w1")
        fill(journal, "b", 4, 1.0, window="w1")
        fill(journal, "a", 4, 1.0, window="w2")
        fill(journal, "b", 4, 1.0, window="w2")
        report = drift(mine(journal, window="w1"), mine(journal, window="w2"))
        assert report.l1_share_distance == pytest.approx(0.0)
        assert not report.drifted
        assert report.emerged == [] and report.vanished == []

    def test_disjoint_windows_full_drift(self):
        journal = QueryJournal()
        fill(journal, "old", 4, 1.0, window="w1")
        fill(journal, "new", 4, 1.0, window="w2")
        report = drift(mine(journal, window="w1"), mine(journal, window="w2"))
        assert report.l1_share_distance == pytest.approx(2.0)
        assert report.drifted
        assert report.emerged == [template_fingerprint("new")]
        assert report.vanished == [template_fingerprint("old")]

    def test_latency_shift_reported(self):
        journal = QueryJournal()
        fill(journal, "q", 4, 1.0, window="w1")
        fill(journal, "q", 4, 9.0, window="w2")
        report = drift(mine(journal, window="w1"), mine(journal, window="w2"))
        assert report.latency_shifts[0]["delta_ms"] == pytest.approx(8.0)
        assert report.to_dict()["kind"] == "mithrilog_workload_drift"


class TestDeterminismProperty:
    _records = st.lists(
        st.tuples(
            st.sampled_from(["alpha", "beta", "gamma"]),  # template text
            st.sampled_from(["t0", "t1"]),  # tenant
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),  # ms
            st.sampled_from(["flash", "filter", "host"]),  # stage
        ),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=25, deadline=None)
    @given(specs=_records)
    def test_mining_is_deterministic(self, specs):
        def build():
            journal = QueryJournal()
            for i, (template, tenant, ms, stage) in enumerate(specs):
                journal.observe_direct(
                    template,
                    latency_s=ms / 1e3,
                    matches=1,
                    stage=stage,
                    completed_at_s=0.001 * (i + 1),
                    tenant=tenant,
                )
            return journal

        first = mine(build())
        second = mine(build())
        assert first.to_dict() == second.to_dict()
        # percentiles are nearest-rank members of the sample, not
        # interpolated values
        for stats in first.slices("template").values():
            assert stats.p99_ms in stats._latencies_ms

    @settings(max_examples=15, deadline=None)
    @given(specs=_records)
    def test_slice_counts_partition_records(self, specs):
        journal = QueryJournal()
        for i, (template, tenant, ms, stage) in enumerate(specs):
            journal.observe_direct(
                template,
                latency_s=ms / 1e3,
                matches=1,
                stage=stage,
                completed_at_s=0.001 * (i + 1),
                tenant=tenant,
            )
        profile = mine(journal)
        for dimension in DIMENSIONS:
            total = sum(s.count for s in profile.slices(dimension).values())
            assert total == profile.records


class TestSealIdempotent:
    def test_seal_keeps_percentiles_stable(self):
        stats = SliceStats(dimension="template", value="x")
        stats._latencies_ms.extend([3.0, 1.0, 2.0])
        stats.seal()
        first = stats.p50_ms
        stats.seal()
        assert stats.p50_ms == first == 2.0
