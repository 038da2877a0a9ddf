"""Property tests for the live SLO engine.

Three load-bearing invariants, pinned with hypothesis over randomized
service workloads (with and without injected faults):

1. **determinism** — identical seeds and traffic produce identical
   alert timelines, transition for transition;
2. **budget reconciliation** — the monitor's error-budget arithmetic
   agrees with the query journal's intake tallies: every in-scope
   settled event the journal counted is an event the monitor counted;
3. **live equals replay** — replaying the run's journal into a fresh
   monitor reproduces the live alert timeline and alerts.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.synthetic import generator_for
from repro.faults.injectors import ServiceFaultInjector
from repro.faults.schedules import AtOperationsSchedule
from repro.obs.journal import QueryJournal
from repro.obs.slo import SLO, SLOMonitor, replay_journal
from repro.service import (
    QueryService,
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
    return query_pool(corpus, max_queries=8, num_pairs=2)


def make_slos():
    return [
        SLO(
            name="avail",
            objective="availability",
            target=0.9,
            fast_window_s=0.05,
            slow_window_s=0.2,
            burn_threshold=2.0,
            resolve_after_s=0.1,
        ),
        SLO(
            name="lat",
            objective="latency",
            target=0.9,
            latency_threshold_s=0.02,
            fast_window_s=0.05,
            slow_window_s=0.2,
            burn_threshold=2.0,
            resolve_after_s=0.1,
        ),
    ]


def run_once(corpus, tenants, requests, fault_window):
    """One fresh service run; returns (monitor, journal, report)."""
    system = MithriLogSystem()
    system.ingest(corpus)
    injector = None
    if fault_window is not None:
        injector = ServiceFaultInjector(
            slow_passes=AtOperationsSchedule(
                range(fault_window[0], fault_window[1])
            ),
            slowdown=8.0,
        )
    journal = QueryJournal()
    monitor = SLOMonitor(make_slos(), interval_s=0.005)
    service = QueryService(
        system,
        tenants,
        max_backlog=6,
        journal=journal,
        monitor=monitor,
        fault_injector=injector,
    )
    report = service.run(requests)
    return monitor, journal, report


workload = st.tuples(
    st.integers(min_value=0, max_value=40),  # traffic seed
    st.sampled_from([400, 900, 1800]),  # offered qps
    st.sampled_from([None, (2, 20), (10, 60)]),  # slow-pass window
)


class TestDeterminism:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=workload)
    def test_same_seed_same_alert_timeline(self, corpus, tenants, pool, spec):
        seed, qps, fault_window = spec
        requests = open_loop_requests(
            pool,
            tenants,
            offered_qps=qps,
            duration_s=0.1,
            seed=seed,
            deadline_s=0.04,
        )
        first, _, _ = run_once(corpus, tenants, requests, fault_window)
        second, _, _ = run_once(corpus, tenants, requests, fault_window)
        assert first.timeline() == second.timeline()
        assert [a.to_dict() for a in first.alerts] == [
            a.to_dict() for a in second.alerts
        ]


class TestBudgetReconciliation:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=workload)
    def test_monitor_counts_match_journal_tallies(
        self, corpus, tenants, pool, spec
    ):
        seed, qps, fault_window = spec
        requests = open_loop_requests(
            pool,
            tenants,
            offered_qps=qps,
            duration_s=0.1,
            seed=seed,
            deadline_s=0.04,
        )
        monitor, journal, report = run_once(
            corpus, tenants, requests, fault_window
        )
        tallies = journal.tenant_tallies()
        settled = sum(
            t["ok"] + t["rejected"] + t["shed"] + t["timed_out"]
            for t in tallies.values()
        )
        bad = settled - sum(t["ok"] for t in tallies.values())
        # availability objective, tenant "*": every settled event is in
        # scope, non-OK outcomes consume budget
        budget = monitor.budget("avail")
        assert budget["total_events"] == settled == report.submitted
        assert budget["bad_events"] == bad
        # latency objective only scopes OK responses
        lat = monitor.budget("lat")
        assert lat["total_events"] == sum(t["ok"] for t in tallies.values())
        # any fired alert froze a budget snapshot consistent with the
        # final tallies (monotone counts: a snapshot cannot exceed them)
        for alert in monitor.alerts:
            if alert.fired_at_s is None:
                continue
            slo_budget = monitor.budget(alert.slo)
            assert alert.budget_total_events <= slo_budget["total_events"]
            assert alert.budget_bad_events <= slo_budget["bad_events"]


class TestLiveEqualsReplay:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=workload)
    def test_replayed_timeline_equals_live(self, corpus, tenants, pool, spec):
        seed, qps, fault_window = spec
        requests = open_loop_requests(
            pool,
            tenants,
            offered_qps=qps,
            duration_s=0.1,
            seed=seed,
            deadline_s=0.04,
        )
        live, journal, _ = run_once(corpus, tenants, requests, fault_window)
        replayed = replay_journal(
            SLOMonitor(make_slos(), interval_s=live.interval_s), journal
        )
        assert replayed.timeline() == live.timeline()
        assert [a.to_dict() for a in replayed.alerts] == [
            a.to_dict() for a in live.alerts
        ]
