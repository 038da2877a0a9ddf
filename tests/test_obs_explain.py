"""EXPLAIN / EXPLAIN ANALYZE: plan trees, attribution, determinism.

The acceptance contract: a report's canonical form is a pure function of
(store, query, seed) — identical at any worker count and with a cold or
warm page cache — and its bottleneck attribution sums exactly to the
simulated scan time. A golden file under ``tests/data/`` pins the whole
canonical rendering against drift.
"""

import json
from pathlib import Path

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.obs.check import identify
from repro.obs.explain import (
    ExplainError,
    validate_explain_report,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.mithrilog import MithriLogSystem

SEED = 7
NUM_LINES = 2000
EXPRESSION = "session AND opened"
GOLDEN = Path(__file__).parent / "data" / "explain_liberty2_session.json"


def build_system(cache_pages=0):
    system = MithriLogSystem(seed=SEED, cache_pages=cache_pages)
    system.ingest(list(generator_for("Liberty2", seed=SEED).iter_lines(NUM_LINES)))
    return system


def analyze(system, workers=1):
    return system.explain(parse_query(EXPRESSION), analyze=True, workers=workers)


@pytest.fixture(scope="module")
def report():
    system = build_system()
    result = analyze(system)
    system.close()
    return result


class TestReportShape:
    def test_plan_tree_nodes(self, report):
        names = [node.name for node in report.plan.walk()]
        assert names[0] == "query"
        assert "index_lookup" in names and "scan" in names
        scan = report.plan.find("scan")
        assert [c.name for c in scan.children] == [
            "flash_read", "decompress", "filter", "host_transfer"
        ]
        assert report.mode == "analyze"

    def test_estimates_and_actuals_coexist(self, report):
        root = report.plan
        assert "use_index" in root.estimated
        assert root.actual["matches"] >= 1
        index = report.plan.find("index_lookup")
        assert index.estimated["pages"] >= 0
        assert index.actual["pruned_pages"] >= 0

    def test_attribution_sums_to_scan_time(self, report):
        scan = report.plan.find("scan")
        assert sum(report.attribution.values()) == pytest.approx(
            scan.actual["time_s"], abs=1e-15
        )
        # winner-takes-all: exactly one stage owns the window
        nonzero = [k for k, v in report.attribution.items() if v > 0]
        assert nonzero == [report.bottleneck]

    def test_utilization_bounds_and_bottleneck(self, report):
        assert report.utilization[report.bottleneck] == pytest.approx(1.0)
        for stage, value in report.utilization.items():
            assert 0.0 <= value <= 1.0, stage

    def test_program_summary(self, report):
        assert report.program["queries"] == 1
        assert report.program["mode"] in ("hardware", "software")
        assert report.program["positive_terms"] == 2

    def test_render_human_tree(self, report):
        text = report.render()
        assert text.startswith("EXPLAIN ANALYZE")
        for needle in ("├─", "└─", "flash_read", "bottleneck:", "cache:"):
            assert needle in text
        assert report.bottleneck in text

    def test_validator_accepts_own_output(self, report):
        payload = json.loads(report.to_json())
        assert identify(payload).name == "explain report"
        assert validate_explain_report(payload) >= 7


class TestEstimateMode:
    def test_plain_explain_executes_nothing(self):
        system = build_system()
        before = system.clock.now
        report = system.explain(parse_query(EXPRESSION))
        assert report.mode == "estimate"
        assert report.plan.actual is None
        assert report.bottleneck is None and not report.attribution
        # planning is free: the simulated clock never advanced
        assert system.clock.now == before
        assert validate_explain_report(json.loads(report.to_json())) >= 3

    def test_explain_counter_by_mode(self):
        with use_registry(MetricsRegistry()) as registry:
            system = build_system()
            system.explain(parse_query(EXPRESSION))
            analyze(system)
            counter = registry.counter(
                "mithrilog_explain_requests_total", "", labelnames=("mode",)
            )
            assert counter.value(mode="estimate") == 1
            assert counter.value(mode="analyze") == 1


class TestDeterminism:
    def test_canonical_identical_across_worker_counts(self):
        canon = {}
        for workers in (1, 4):
            system = build_system()
            canon[workers] = analyze(system, workers=workers).canonical()
            system.close()
        assert canon[1] == canon[4]

    def test_canonical_identical_cold_vs_warm_cache(self):
        system = build_system(cache_pages=10_000)
        cold = analyze(system)
        warm = analyze(system)
        assert cold.cache["misses"] > 0 and warm.cache["hits"] > 0
        assert cold.canonical() == warm.canonical()

    def test_golden_file(self, report):
        """The canonical rendering, pinned. Regenerate deliberately with
        ``python tests/test_obs_explain.py`` after a modelled change."""
        expected = json.loads(GOLDEN.read_text())
        actual = json.loads(
            json.dumps(report.canonical(), sort_keys=True)
        )
        assert actual == expected


class TestValidatorRejections:
    def payload(self, report):
        return json.loads(report.to_json())

    def test_rejects_non_report(self):
        with pytest.raises(ExplainError, match="not an explain report"):
            validate_explain_report({"hello": 1})

    def test_rejects_unknown_mode(self, report):
        payload = self.payload(report)
        payload["mode"] = "guess"
        with pytest.raises(ExplainError, match="unknown explain mode"):
            validate_explain_report(payload)

    def test_rejects_malformed_node(self, report):
        payload = self.payload(report)
        payload["plan"]["children"][0] = {"no": "name"}
        with pytest.raises(ExplainError, match="malformed plan node"):
            validate_explain_report(payload)

    def test_rejects_attribution_mismatch(self, report):
        payload = self.payload(report)
        stage = next(iter(payload["attribution"]))
        payload["attribution"][stage] = (
            float(payload["attribution"][stage]) + 1.0
        )
        with pytest.raises(ExplainError, match="attribution sums to"):
            validate_explain_report(payload)

    def test_rejects_missing_attribution(self, report):
        payload = self.payload(report)
        del payload["attribution"]
        with pytest.raises(ExplainError, match="lacks bottleneck attribution"):
            validate_explain_report(payload)

    def test_rejects_out_of_range_utilization(self, report):
        payload = self.payload(report)
        stage = next(iter(payload["utilization"]))
        payload["utilization"][stage] = 1.5
        with pytest.raises(ExplainError, match="outside"):
            validate_explain_report(payload)


def _regenerate_golden() -> None:  # pragma: no cover - manual tool
    system = build_system()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(analyze(system).canonical(), indent=2, sort_keys=True) + "\n"
    )
    system.close()
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate_golden()
