"""The incident flight recorder: capture, artifacts, validation."""

import json

import pytest

from repro.analytics.workload import mine
from repro.datasets.synthetic import generator_for
from repro.faults.injectors import ServiceFaultInjector
from repro.faults.schedules import AtOperationsSchedule
from repro.obs.journal import QueryJournal
from repro.obs.check import check_file, identify, main
from repro.obs.metrics import MetricsRegistry, handle, use_registry
from repro.obs.recorder import (
    FlightRecorder,
    render_markdown,
    validate_incident_bundle,
    write_bundle,
)
from repro.obs.slo import SLO, SLOMonitor
from repro.service import (
    QueryService,
    make_tenants,
    open_loop_requests,
    query_pool,
)
from repro.system.mithrilog import MithriLogSystem


def twitchy_slo(**overrides):
    fields = dict(
        name="avail",
        objective="availability",
        target=0.9,
        fast_window_s=0.05,
        slow_window_s=0.25,
        burn_threshold=2.0,
        resolve_after_s=0.1,
    )
    fields.update(overrides)
    return SLO(**fields)


def synthetic_incident(journal=None, **recorder_kwargs):
    """Drive a monitor through an incident and return its recorder."""
    monitor = SLOMonitor([twitchy_slo()], interval_s=0.005)
    recorder = FlightRecorder(monitor, journal=journal, **recorder_kwargs)
    t = 0.0
    for _ in range(10):
        monitor.observe("t0", "ok", 0.001, now_s=t)
        monitor.evaluate(t)
        t += 0.005
    for _ in range(40):
        monitor.observe("t0", "shed", 0.0, now_s=t)
        monitor.evaluate(t)
        t += 0.005
    return recorder


class TestCapture:
    def test_fire_captures_one_bundle(self):
        recorder = synthetic_incident()
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[0]
        assert identify(bundle).name == "incident bundle"
        assert validate_incident_bundle(bundle) == []
        assert bundle["slo"]["name"] == "avail"
        assert bundle["alert"]["fired_at_s"] is not None
        assert bundle["journal"] == {"available": False}

    def test_incident_counter_increments(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            synthetic_incident()
            counter = registry.counter(
                "mithrilog_slo_incidents_recorded_total"
            )
            assert counter.value() == 1

    def test_sampler_series_windowed_into_bundle(self):
        # the bundle's metric series are sampled at the window's end:
        # what the registry gains after the alert fires stays out
        registry = MetricsRegistry()
        with use_registry(registry):
            counter = registry.counter("mithrilog_demo_total")
            counter.inc()
            recorder = synthetic_incident()
            counter.inc(5)
        bundle = recorder.bundles[0]
        assert bundle["window"]["end_s"] == bundle["alert"]["fired_at_s"]
        samples = bundle["metrics"]["metrics"]["mithrilog_demo_total"]
        assert samples["samples"] == [{"labels": {}, "value": 1.0}]

    def test_metrics_snapshot_reads_the_bound_registry(self):
        # built under use_registry, fired after the block exits: the
        # snapshot still reads the registry active at construction
        registry = MetricsRegistry()
        with use_registry(registry):
            handle("mithrilog_util_busy_fraction").set(0.5, resource="flash")
            monitor = SLOMonitor([twitchy_slo()], interval_s=0.005)
            recorder = FlightRecorder(monitor)
        for i in range(50):
            outcome = "ok" if i < 10 else "shed"
            monitor.observe("t0", outcome, 0.001, now_s=i * 0.005)
        bundle = recorder.bundles[0]
        metrics = bundle["metrics"]["metrics"]
        assert metrics["mithrilog_slo_transitions_total"]["samples"]
        assert bundle["utilization"] == [
            {"labels": {"resource": "flash"}, "value": 0.5}
        ]
        assert "## Utilization (at fire time)" in render_markdown(bundle)

    def test_journal_tail_restricted_to_window(self):
        journal = QueryJournal()
        for i in range(60):
            journal.observe_direct(
                "q",
                latency_s=0.001,
                matches=1,
                stage="flash",
                completed_at_s=i * 0.005,
                tenant="t0",
            )
        recorder = synthetic_incident(journal=journal)
        bundle = recorder.bundles[0]
        assert bundle["journal"]["available"]
        assert bundle["journal"]["records"]
        assert validate_incident_bundle(bundle) == []

    def test_slow_template_ranks_like_workload_mine(self):
        # 100 OK records of 1..100 ms: nearest-rank p99 is the 99th, and
        # the bundle must say what `workload mine` says of the same journal
        journal = QueryJournal()
        for i in range(100):
            journal.observe_direct(
                "q",
                latency_s=(i + 1) * 1e-3,
                matches=1,
                stage="flash",
                completed_at_s=0.0,
                tenant="t0",
            )
        slow = synthetic_incident(journal=journal).bundles[0]["slow_template"]
        mined = mine(journal).slices("template")[slow["template"]]
        assert slow["p99_service_ms"] == pytest.approx(99.0)
        assert slow["p99_service_ms"] == pytest.approx(mined.p99_service_ms)

    def test_bundle_json_serialisable(self):
        recorder = synthetic_incident()
        json.dumps(recorder.bundles[0])


class TestArtifacts:
    def test_write_bundle_deterministic_names(self, tmp_path):
        recorder = synthetic_incident()
        paths = write_bundle(recorder.bundles[0], tmp_path)
        assert [p.suffix for p in paths] == [".json", ".md"]
        again = write_bundle(recorder.bundles[0], tmp_path)
        assert paths == again  # same bundle, same file names

    def test_out_dir_writes_at_fire_time(self, tmp_path):
        recorder = synthetic_incident(out_dir=tmp_path)
        assert len(recorder.written) == 2
        payload = json.loads(recorder.written[0].read_text())
        assert validate_incident_bundle(payload) == []

    def test_markdown_mentions_the_essentials(self):
        recorder = synthetic_incident()
        text = render_markdown(recorder.bundles[0])
        assert "# Incident: `avail`" in text
        assert "Burn rates at fire" in text


class TestValidator:
    def make_bundle(self):
        return synthetic_incident().bundles[0]

    def test_rejects_kind_mismatch(self):
        assert validate_incident_bundle({"kind": "nope"})
        assert identify([1]) is None

    def test_rejects_unfired_alert(self):
        bundle = self.make_bundle()
        del bundle["alert"]["fired_at_s"]
        assert any(
            "never fired" in p for p in validate_incident_bundle(bundle)
        )

    def test_rejects_subthreshold_burn(self):
        bundle = self.make_bundle()
        bundle["alert"]["burn_fast_at_fire"] = 0.1
        assert any(
            "burn" in p for p in validate_incident_bundle(bundle)
        )

    def test_rejects_record_outside_window(self):
        bundle = self.make_bundle()
        bundle["journal"] = {
            "available": True,
            "records": [{"completed_at_s": 1e9}],
        }
        assert any(
            "outside" in p for p in validate_incident_bundle(bundle)
        )

    def test_rejects_inverted_window(self):
        bundle = self.make_bundle()
        bundle["window"] = {"start_s": 2.0, "end_s": 1.0}
        assert any(
            "window" in p for p in validate_incident_bundle(bundle)
        )

    @pytest.mark.parametrize(
        "metrics",
        [
            None,  # a version-2 bundle must carry its snapshot
            {"metrics": []},
            {"metrics": {"mithrilog_slo_alerts_firing": {"type": "counter",
                                                         "samples": []}}},
            {"metrics": {"mithrilog_slo_alerts_firing": {"type": "gauge"}}},
        ],
    )
    def test_rejects_malformed_metrics(self, metrics):
        bundle = self.make_bundle()
        bundle["metrics"] = metrics
        problems = validate_incident_bundle(bundle)
        assert problems and all(p.startswith("metrics: ") for p in problems)

    def test_check_refuses_a_version_1_bundle(self, tmp_path):
        bundle = self.make_bundle()
        bundle["version"] = 1
        path = write_bundle(bundle, tmp_path)[0]
        assert main([str(path)]) == 1
        assert "unsupported mithrilog_incident_bundle version 1" in check_file(path)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generator_for("Liberty2").generate(1500)

    def faulted_run(self, corpus, out_dir):
        """Build a monitored stack under its own registry, then serve a
        faulted workload outside that block (as bench_slo_detection does)."""
        registry = MetricsRegistry()
        with use_registry(registry):
            from repro.obs.expose import bootstrap_families

            bootstrap_families(registry)
            system = MithriLogSystem()
            system.ingest(corpus)
            tenants = make_tenants(3)
            pool = query_pool(corpus, max_queries=8, seed=0)
            journal = QueryJournal()
            injector = ServiceFaultInjector(
                slow_passes=AtOperationsSchedule(range(5, 40)),
                slowdown=8.0,
            )
            monitor = SLOMonitor([twitchy_slo()], interval_s=0.005)
            recorder = FlightRecorder(
                monitor,
                journal=journal,
                fault_logs=[injector.log],
                system=system,
                out_dir=out_dir,
            )
            service = QueryService(
                system,
                tenants,
                max_backlog=8,
                journal=journal,
                monitor=monitor,
                fault_injector=injector,
            )
        requests = open_loop_requests(
            pool,
            tenants,
            offered_qps=700,
            duration_s=0.4,
            seed=0,
            deadline_s=0.05,
        )
        service.run(requests)
        return monitor, journal, recorder

    def test_faulted_service_run_produces_valid_bundle(self, corpus, tmp_path):
        monitor, journal, recorder = self.faulted_run(corpus, tmp_path)
        fired = [a for a in monitor.alerts if a.fired_at_s is not None]
        assert fired, "fault injection should have tripped the SLO"
        assert recorder.bundles
        for bundle in recorder.bundles:
            assert validate_incident_bundle(bundle) == []
            # the bound registry saw the run's per-resource utilization
            resources = {s["labels"]["resource"] for s in bundle["utilization"]}
            assert {"flash", "filter"} <= resources
        # the slow template section names a real journal template
        bundle = recorder.bundles[0]
        slow = bundle.get("slow_template")
        if slow is not None:
            assert slow["template"] in journal.templates
            if "explain" in slow:
                assert identify(slow["explain"]).name == "explain report"
        assert recorder.written  # artifacts were written at fire time

    def test_same_seed_runs_write_identical_bundles(self, corpus, tmp_path):
        first = self.faulted_run(corpus, tmp_path / "a")[2].written
        second = self.faulted_run(corpus, tmp_path / "b")[2].written
        assert first and [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
