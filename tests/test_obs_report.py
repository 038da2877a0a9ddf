"""A/B workload reports: slice diffs, hidden regressions, validation."""

import json

import pytest

from repro.analytics.workload import mine
from repro.obs.check import check_file, identify
from repro.obs.journal import QueryJournal
from repro.obs.report import (
    ReportError,
    build_ab_report,
    validate_ab_report,
)


def journal_with(spec):
    """spec: list of (template, tenant, n, latency_ms, outcome)."""
    journal = QueryJournal()
    at = 0.0
    for template, tenant, n, latency_ms, outcome in spec:
        for _ in range(n):
            at += 0.005
            if outcome == "ok":
                journal.observe_direct(
                    template,
                    latency_s=latency_ms / 1e3,
                    matches=1,
                    stage="flash",
                    completed_at_s=at,
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
                    )
                )
    return journal


BASE = [
    ("fast", "t0", 10, 2.0, "ok"),
    ("fast", "t0", 6, 0.0, "shed"),
    ("slow", "t1", 10, 8.0, "ok"),
]


class TestClassification:
    def test_improvement_flagged(self):
        cand = [
            ("fast", "t0", 12, 1.0, "ok"),  # all served, twice as fast
            ("slow", "t1", 10, 8.0, "ok"),
        ]
        report = build_ab_report(
            mine(journal_with(BASE)), mine(journal_with(cand))
        )
        fast = next(
            s for s in report.slices
            if s.dimension == "tenant" and s.value == "t0"
        )
        assert fast.improved and not fast.regressed

    def test_regression_flagged(self):
        cand = [
            ("fast", "t0", 10, 6.0, "ok"),  # 3x slower
            ("fast", "t0", 6, 0.0, "shed"),
            ("slow", "t1", 10, 8.0, "ok"),
        ]
        report = build_ab_report(
            mine(journal_with(BASE)), mine(journal_with(cand))
        )
        fast = next(
            s for s in report.slices
            if s.dimension == "tenant" and s.value == "t0"
        )
        assert fast.regressed and not fast.improved

    def test_hidden_regression_needs_aggregate_win(self):
        # aggregate improves massively (slow tenant now fast and fully
        # served) while the fast tenant's slice quietly regresses
        cand = [
            ("fast", "t0", 10, 7.0, "ok"),
            ("slow", "t1", 30, 1.0, "ok"),
        ]
        report = build_ab_report(
            mine(journal_with(BASE)), mine(journal_with(cand))
        )
        assert report.aggregate_improved
        hidden = report.hidden_regressions
        assert any(s.dimension == "tenant" and s.value == "t0" for s in hidden)
        payload = report.to_payload()
        assert payload["hidden_regressions"]
        assert validate_ab_report(payload) == []

    def test_thin_slices_stay_unflagged(self):
        base = [("rare", "t0", 1, 1.0, "ok"), ("bulk", "t1", 10, 2.0, "ok")]
        cand = [("rare", "t0", 1, 50.0, "ok"), ("bulk", "t1", 10, 2.0, "ok")]
        report = build_ab_report(
            mine(journal_with(base)), mine(journal_with(cand)), min_count=2
        )
        rare = next(
            s for s in report.slices
            if s.dimension == "tenant" and s.value == "t0"
        )
        assert not rare.regressed and not rare.improved

    def test_unknown_dimension_rejected(self):
        profile = mine(journal_with(BASE))
        with pytest.raises(ReportError):
            build_ab_report(profile, profile, dimensions=("constellation",))

    def test_self_comparison_is_quiet(self):
        profile = mine(journal_with(BASE))
        report = build_ab_report(profile, profile)
        assert report.regressed_slices == []
        assert report.improved_slices == []
        assert not report.aggregate.improved
        assert not report.aggregate.regressed
        assert report.drift["l1_share_distance"] == pytest.approx(0.0)


class TestRendering:
    def test_markdown_sections(self):
        cand = [
            ("fast", "t0", 10, 7.0, "ok"),
            ("slow", "t1", 30, 1.0, "ok"),
        ]
        report = build_ab_report(
            mine(journal_with(BASE)),
            mine(journal_with(cand)),
            label_a="before",
            label_b="after",
        )
        md = report.render_markdown()
        assert "# A/B workload report: `before` vs `after`" in md
        assert "## Aggregate" in md
        assert "## Per-slice deltas" in md
        assert "Hidden regressions" in md
        assert "HIDDEN-REGRESSION" in md
        assert "## Workload drift" in md

    def test_json_round_trip_and_files(self, tmp_path):
        report = build_ab_report(
            mine(journal_with(BASE)), mine(journal_with(BASE))
        )
        json_path = report.write_json(tmp_path / "ab.json")
        md_path = report.write_markdown(tmp_path / "ab.md")
        payload = json.loads(json_path.read_text())
        assert identify(payload).name == "A/B report"
        assert validate_ab_report(payload) == []
        assert md_path.read_text().startswith("# A/B workload report")


class TestValidator:
    def payload(self):
        return build_ab_report(
            mine(journal_with(BASE)), mine(journal_with(BASE))
        ).to_payload()

    def test_kind_mismatch(self):
        assert validate_ab_report({"kind": "nope"}) != []
        assert validate_ab_report("not even a dict") != []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.__setitem__("version", 0), "version"),
            (lambda p: p.__setitem__("label_a", ""), "label_a"),
            (lambda p: p.pop("aggregate"), "aggregate"),
            (lambda p: p.pop("slices"), "slices"),
            (lambda p: p["slices"][0].pop("goodput_a_qps"), "missing keys"),
            (
                lambda p: p["slices"][0].update(hidden=True, regressed=False),
                "hidden",
            ),
            (
                lambda p: p["slices"][0].update(improved=True, regressed=True),
                "both improved and regressed",
            ),
        ],
    )
    def test_validator_catches_corruption(self, mutate, fragment):
        payload = self.payload()
        mutate(payload)
        problems = validate_ab_report(payload)
        assert problems
        assert any(fragment in problem for problem in problems)


class TestCheckIntegration:
    def test_check_file_validates_journal_and_report(self, tmp_path):
        journal = journal_with(BASE)
        journal_path = journal.write(tmp_path / "journal.json")
        report = build_ab_report(mine(journal), mine(journal))
        report_path = report.write_json(tmp_path / "ab.json")
        assert check_file(journal_path) is None
        assert check_file(report_path) is None

    def test_check_file_rejects_corrupt_artifacts(self, tmp_path):
        journal = journal_with(BASE)
        payload = json.loads(journal.to_json())
        payload["tenants"]["t0"]["submitted"] = 99
        bad = tmp_path / "bad_journal.json"
        bad.write_text(json.dumps(payload))
        problem = check_file(bad)
        assert problem is not None and "conservation" in problem

        report = build_ab_report(mine(journal), mine(journal)).to_payload()
        report["slices"][0]["hidden"] = True
        bad_report = tmp_path / "bad_report.json"
        bad_report.write_text(json.dumps(report))
        problem = check_file(bad_report)
        assert problem is not None
