"""SLO definitions, burn-rate arithmetic, and the alert state machine."""

import json

import pytest

from repro.errors import QueryError
from repro.obs.check import identify
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.slo import (
    SLO,
    AlertState,
    SLOError,
    SLOMonitor,
    default_slos,
    load_slo_config,
    parse_slo_config,
    replay_journal,
    validate_slo_config,
)


def availability_slo(**overrides):
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


class TestSLODefinition:
    def test_defaults_valid(self):
        for slo in default_slos():
            assert 0.0 < slo.target < 1.0

    def test_rejects_bad_objective(self):
        with pytest.raises(SLOError):
            availability_slo(objective="vibes")

    def test_rejects_target_out_of_range(self):
        with pytest.raises(SLOError):
            availability_slo(target=1.0)
        with pytest.raises(SLOError):
            availability_slo(target=0.0)

    def test_latency_objective_needs_threshold(self):
        with pytest.raises(SLOError):
            availability_slo(objective="latency", latency_threshold_s=None)

    def test_rejects_inverted_windows(self):
        with pytest.raises(SLOError):
            availability_slo(fast_window_s=0.5, slow_window_s=0.1)

    def test_round_trip(self):
        slo = availability_slo(tenant="tenant0", count_degraded=True)
        assert SLO.from_dict(slo.to_dict()) == slo

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SLOError):
            SLO.from_dict({"name": "x", "bogus": 1})

    def test_classify_availability(self):
        # classify: True = good, False = bad, None = out of scope
        slo = availability_slo()
        assert slo.classify("t0", "ok", 0.01, degraded=False) is True
        assert slo.classify("t0", "shed", 0.0, degraded=False) is False
        # degraded successes only count as bad when asked to
        assert slo.classify("t0", "ok", 0.01, degraded=True) is True
        strict = availability_slo(count_degraded=True)
        assert strict.classify("t0", "ok", 0.01, degraded=True) is False

    def test_classify_latency_scopes_to_ok(self):
        slo = availability_slo(
            objective="latency", latency_threshold_s=0.05
        )
        assert slo.classify("t0", "ok", 0.01, degraded=False) is True
        assert slo.classify("t0", "ok", 0.2, degraded=False) is False
        # non-OK outcomes are out of scope for a latency objective
        assert slo.classify("t0", "shed", 0.0, degraded=False) is None

    def test_classify_tenant_scope(self):
        slo = availability_slo(tenant="tenant0")
        assert slo.classify("tenant1", "shed", 0.0, degraded=False) is None
        assert slo.classify("tenant0", "shed", 0.0, degraded=False) is False


def drive(monitor, good, bad, start_s=0.0, step_s=0.005, tenant="t0"):
    """Feed a block of good then bad events, evaluating as we go."""
    t = start_s
    for _ in range(good):
        monitor.observe(tenant, "ok", 0.001, now_s=t)
        monitor.evaluate(t)
        t += step_s
    for _ in range(bad):
        monitor.observe(tenant, "shed", 0.0, now_s=t)
        monitor.evaluate(t)
        t += step_s
    return t


class TestStateMachine:
    def test_quiet_traffic_never_alerts(self):
        monitor = SLOMonitor([availability_slo()], interval_s=0.005)
        drive(monitor, good=80, bad=0)
        assert monitor.state_of("avail") is AlertState.OK
        assert monitor.alerts == []
        assert monitor.timeline() == []

    def test_sustained_errors_fire(self):
        monitor = SLOMonitor([availability_slo()], interval_s=0.005)
        drive(monitor, good=20, bad=40)
        fired = [a for a in monitor.alerts if a.fired_at_s is not None]
        assert fired
        alert = fired[0]
        assert alert.burn_fast_at_fire >= 2.0
        assert alert.burn_slow_at_fire >= 2.0
        assert alert.pending_at_s <= alert.fired_at_s

    def test_firing_resolves_after_quiet_period(self):
        monitor = SLOMonitor([availability_slo()], interval_s=0.005)
        end = drive(monitor, good=10, bad=40)
        assert monitor.state_of("avail") is AlertState.FIRING
        drive(monitor, good=120, bad=0, start_s=end)
        states = [t["to"] for t in monitor.timeline()]
        assert states == ["pending", "firing", "resolved"]
        assert monitor.state_of("avail") is AlertState.OK
        assert monitor.alerts[0].resolved_at_s is not None

    def test_pending_dwell_cancels_on_recovery(self):
        # a long dwell means a short error blip never fires
        slo = availability_slo(pending_for_s=0.5)
        monitor = SLOMonitor([slo], interval_s=0.005)
        end = drive(monitor, good=10, bad=8)
        drive(monitor, good=200, bad=0, start_s=end)
        states = [t["to"] for t in monitor.timeline()]
        assert "firing" not in states
        assert monitor.state_of("avail") is AlertState.OK

    def test_duplicate_slo_names_rejected(self):
        with pytest.raises(SLOError):
            SLOMonitor([availability_slo(), availability_slo()])

    def test_budget_reconciles_with_observations(self):
        monitor = SLOMonitor([availability_slo()], interval_s=0.005)
        drive(monitor, good=30, bad=10)
        budget = monitor.budget("avail")
        assert budget["total_events"] == 40
        assert budget["bad_events"] == 10
        assert budget["consumed_ratio"] == pytest.approx(
            10 / ((1 - 0.9) * 40)
        )

    def test_metrics_exported_when_registry_active(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            monitor = SLOMonitor([availability_slo()], interval_s=0.005)
            drive(monitor, good=5, bad=20)
        from repro.obs.expose import render_prometheus

        text = render_prometheus(registry)
        assert "mithrilog_slo_evaluations_total" in text
        assert 'mithrilog_slo_burn_rate{slo="avail",window="fast"}' in text

    def test_to_dict_serialisable(self):
        monitor = SLOMonitor([availability_slo()], interval_s=0.005)
        drive(monitor, good=10, bad=20)
        json.dumps(monitor.to_dict())


class TestConfig:
    def payload(self):
        return {
            "kind": "mithrilog_slo_config",
            "version": 1,
            "check_interval_s": 0.01,
            "slos": [availability_slo().to_dict()],
        }

    def test_parse(self):
        slos, interval = parse_slo_config(self.payload())
        assert interval == 0.01
        assert slos[0].name == "avail"

    def test_looks_like(self):
        assert identify(self.payload()).name == "SLO config"
        assert identify({"kind": "other"}) is None
        assert identify([1]) is None

    def test_validator_accepts_good(self):
        assert validate_slo_config(self.payload()) == []

    def test_validator_catches_problems(self):
        p = self.payload()
        p["slos"][0]["target"] = 2.0
        assert validate_slo_config(p)
        p = self.payload()
        p["slos"].append(availability_slo().to_dict())
        assert any("duplicate" in x for x in validate_slo_config(p))
        p = self.payload()
        p["version"] = 99
        assert validate_slo_config(p)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(self.payload()))
        slos, interval = load_slo_config(path)
        assert slos[0] == availability_slo()

    def test_example_config_is_valid(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "slo_config.json"
        )
        payload = json.loads(example.read_text())
        assert identify(payload).name == "SLO config"
        assert validate_slo_config(payload) == []


class TestReplay:
    def test_replay_journal_rebuilds_timeline(self):
        from repro.obs.journal import QueryJournal

        journal = QueryJournal()
        t = 0.0
        for i in range(30):
            journal.observe_direct(
                "q",
                latency_s=0.001,
                matches=1,
                stage="flash",
                completed_at_s=t,
                tenant="t0",
            )
            t += 0.005
        assert journal.conserved()
        monitor = SLOMonitor([availability_slo()], interval_s=0.005)
        replay_journal(monitor, journal)
        assert monitor.state_of("avail") is AlertState.OK
        assert monitor.evaluations > 0


class TestIntake:
    """Every settled request reaches the monitor as its journal record."""

    def test_monitor_without_journal_is_refused(self):
        from repro.core.query import parse_query
        from repro.service import QueryService, make_tenants, run_sweep
        from repro.system.mithrilog import MithriLogSystem

        system = MithriLogSystem()
        system.ingest([b"a b c"])
        tenants = make_tenants(1)
        monitor = SLOMonitor([availability_slo()])
        with pytest.raises(QueryError, match="monitor=.*journal="):
            QueryService(system, tenants, monitor=monitor)
        service = QueryService(system, tenants)
        service.monitor = monitor  # assigned after construction
        with pytest.raises(QueryError, match="monitor=.*journal="):
            service.run()
        with pytest.raises(QueryError, match="monitor=.*journal="):
            run_sweep(
                lambda: QueryService(system, tenants),
                [parse_query("a")],
                tenants,
                capacity_qps=100.0,
                load_multiples=(1.0,),
                monitor=monitor,
            )

    def test_observe_record_reads_the_record(self):
        from repro.obs.journal import QueryJournal

        journal = QueryJournal()
        record = journal.observe_direct(
            "q", latency_s=0.2, matches=1, stage="flash",
            completed_at_s=0.5, tenant="t0",
        )
        monitor = SLOMonitor(
            [availability_slo(), availability_slo(
                name="lat", objective="latency", latency_threshold_s=0.1
            )]
        )
        monitor.observe_record(record)
        assert monitor.budget("avail")["bad_events"] == 0
        assert monitor.budget("lat")["bad_events"] == 1
        assert monitor.evaluations == 1
