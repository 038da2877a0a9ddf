"""Workload generation and end-to-end service properties.

The load-bearing properties, pinned with hypothesis over randomized
workloads:

- **conservation** — every submitted request receives exactly one
  outcome: ``ok + rejected + shed + timed_out == submitted`` per tenant;
- **determinism** — the same workload against an equivalent backend
  produces identical outcomes, latencies and match counts;
- **worker invariance** — outcomes are identical at any worker count.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tokenizer import split_tokens
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.faults.injectors import ServiceFaultInjector
from repro.faults.schedules import AtOperationsSchedule
from repro.service import (
    ClosedLoopSource,
    Outcome,
    QueryService,
    Request,
    TenantConfig,
    estimate_capacity,
    make_tenants,
    open_loop_requests,
    query_pool,
    run_sweep,
    zipf_shares,
)
from repro.system.mithrilog import MithriLogSystem

LINES = 1200


@pytest.fixture(scope="module")
def corpus():
    return generator_for("Liberty2").generate(LINES)


@pytest.fixture(scope="module")
def backend(corpus):
    system = MithriLogSystem()
    system.ingest(corpus)
    return system


@pytest.fixture(scope="module")
def tenants():
    return make_tenants(3)


@pytest.fixture(scope="module")
def pool(corpus):
    return query_pool(corpus, max_queries=12, num_pairs=4)


def signature(report):
    """Backend-state-independent run fingerprint (relative times only)."""
    return tuple(
        (
            r.request.tenant,
            r.outcome.value,
            r.reason,
            round(r.latency_s, 12),
            r.matches,
            r.batch_size,
        )
        for r in report.responses
    )


class TestGenerators:
    def test_zipf_shares_normalised_and_skewed(self):
        shares = zipf_shares(4)
        assert sum(shares) == pytest.approx(1.0)
        assert shares == sorted(shares, reverse=True)
        with pytest.raises(QueryError):
            zipf_shares(0)

    def test_make_tenants_weights_track_shares(self):
        tenants = make_tenants(3)
        assert [t.name for t in tenants] == ["tenant0", "tenant1", "tenant2"]
        assert tenants[0].weight > tenants[1].weight > tenants[2].weight

    def test_query_pool_deterministic(self, corpus):
        a = query_pool(corpus, max_queries=8)
        b = query_pool(corpus, max_queries=8)
        assert [str(q) for q in a] == [str(q) for q in b]
        assert 0 < len(a) <= 8

    def test_query_pool_mines_lines_ending_at_a_bare_cr(self):
        # a stored page ends a line at \r, so "kernel panic" and "now"
        # never share one: no mined token holds \r, and every query
        # matches a line the store holds
        lines = [b"node%d kernel panic\r now" % i for i in range(50)]
        lines += [b"node%d disk ok" % i for i in range(50)]
        pool = query_pool(lines, max_queries=8, num_pairs=2)
        stored = [split_tokens(s) for line in lines for s in line.splitlines()]
        assert pool
        for query in pool:
            assert not any(b"\r" in token for token in query.all_tokens), query
            assert any(query.matches_tokens(tokens) for tokens in stored), query

    def test_open_loop_deterministic_and_sorted(self, pool, tenants):
        a = open_loop_requests(pool, tenants, offered_qps=500, duration_s=0.1, seed=9)
        b = open_loop_requests(pool, tenants, offered_qps=500, duration_s=0.1, seed=9)
        assert a == b
        stamps = [r.arrival_s for r in a]
        assert stamps == sorted(stamps)
        assert all(0 <= s < 0.1 for s in stamps)

    def test_open_loop_skew_favours_tenant0(self, pool, tenants):
        requests = open_loop_requests(
            pool, tenants, offered_qps=2000, duration_s=0.2, seed=1
        )
        by_tenant = {t.name: 0 for t in tenants}
        for request in requests:
            by_tenant[request.tenant] += 1
        assert by_tenant["tenant0"] > by_tenant["tenant2"]

    def test_closed_loop_bounds_total_requests(self, pool, tenants):
        source = ClosedLoopSource(pool, tenants, clients=2, max_requests=7)
        initial = source.initial_requests()
        assert len(initial) <= 7
        fed = len(initial)
        for response_stub in range(20):
            follow = source.on_complete(
                type(
                    "R", (), {"request": initial[0], "ok": True}
                )(),
                now_s=0.01 * response_stub,
            )
            fed += len(follow)
        assert fed == 7


class TestServiceEndToEnd:
    def test_ok_responses_carry_matches_and_batches(self, backend, tenants, pool):
        service = QueryService(backend, tenants)
        report = service.run(
            open_loop_requests(pool, tenants, offered_qps=300, duration_s=0.05, seed=2)
        )
        assert report.conserved()
        assert report.passes > 0
        oks = [r for r in report.responses if r.ok]
        assert oks
        assert all(r.batch_size >= 1 for r in oks)
        assert all(r.latency_s > 0 for r in oks)

    def test_batching_packs_across_tenants(self, backend, tenants, pool):
        # all arrivals at t=0: the first pass should carry several tenants
        requests = [
            Request(tenant=t.name, query=pool[i % len(pool)])
            for i, t in enumerate(tenants * 4)
        ]
        service = QueryService(backend, tenants)
        report = service.run(requests)
        assert report.conserved()
        assert report.passes < len(requests)  # batching happened
        multi = [r for r in report.responses if r.batch_size > 1]
        assert multi

    def test_overload_sheds_and_bounds_backlog(self, backend, tenants, pool):
        service = QueryService(backend, tenants, max_backlog=4)
        report = service.run(
            open_loop_requests(pool, tenants, offered_qps=8000, duration_s=0.05, seed=3)
        )
        counts = report.outcome_counts()
        assert counts["shed"] > 0
        assert report.conserved()

    def test_deadlines_time_out_under_slow_pass(self, backend, tenants, pool):
        injector = ServiceFaultInjector(
            slow_passes=AtOperationsSchedule([0]), slowdown=2000.0
        )
        requests = open_loop_requests(
            pool, tenants, offered_qps=2000, duration_s=0.02, seed=4,
            deadline_s=0.005,
        )
        service = QueryService(backend, tenants, fault_injector=injector)
        report = service.run(requests)
        counts = report.outcome_counts()
        assert counts["timed_out"] > 0
        assert report.conserved()
        assert injector.log.events  # the slow pass was recorded

    def test_compile_fault_rejects_explicitly(self, backend, tenants, pool):
        injector = ServiceFaultInjector(
            compile_rejects=AtOperationsSchedule([0, 1])
        )
        service = QueryService(backend, tenants, fault_injector=injector)
        report = service.run(
            [Request(tenant="tenant0", query=pool[0]) for _ in range(4)]
        )
        rejected = [r for r in report.responses if r.outcome is Outcome.REJECTED]
        assert len(rejected) == 2
        assert all(r.reason == "compile_fault" for r in rejected)
        assert report.conserved()

    def test_unknown_tenant_still_answered(self, backend, tenants, pool):
        service = QueryService(backend, tenants)
        report = service.run([Request(tenant="ghost", query=pool[0])])
        assert report.submitted == 1
        assert report.responses[0].reason == "unknown_tenant"
        assert report.conserved()

    def test_text_queries_coerced_at_front_door(self, backend, tenants):
        service = QueryService(backend, tenants)
        report = service.run(
            [Request(tenant="tenant0", query="FAILURE AND kernel:")]
        )
        assert report.responses[0].ok

    def test_cluster_backend(self, corpus, tenants, pool):
        from repro.system.cluster import MithriLogCluster

        cluster = MithriLogCluster(num_shards=2)
        cluster.ingest(corpus)
        service = QueryService(cluster, tenants)
        report = service.run(
            open_loop_requests(pool, tenants, offered_qps=200, duration_s=0.05, seed=5)
        )
        assert report.conserved()
        assert report.queries_served > 0

    def test_cluster_backend_refuses_approximate_mode(self, corpus, tenants):
        # sampled passes need the single-system sampled scan path; the
        # scatter-gather backend silently defaults the mode off, and
        # asking for it explicitly is a loud error
        from repro.system.cluster import MithriLogCluster

        cluster = MithriLogCluster(num_shards=2)
        cluster.ingest(corpus)
        assert not QueryService(cluster, tenants).admission.approx_on_overload
        with pytest.raises(QueryError):
            QueryService(cluster, tenants, approx_on_overload=True)


class TestDeterminismProperties:
    # strategies kept small: each example executes real accelerator passes
    _request_specs = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # tenant index (3 = ghost)
            st.integers(min_value=0, max_value=11),  # pool query index
            st.integers(min_value=0, max_value=2),  # priority
            st.sampled_from([None, 0.002, 0.05]),  # deadline_s
            st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        ),
        min_size=1,
        max_size=24,
    )

    def _build(self, specs, pool):
        names = ["tenant0", "tenant1", "tenant2", "ghost"]
        return [
            Request(
                tenant=names[t],
                query=pool[q % len(pool)],
                priority=p,
                deadline_s=d,
                arrival_s=a,
            )
            for t, q, p, d, a in specs
        ]

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(specs=_request_specs)
    def test_conserved_and_deterministic(self, corpus, tenants, pool, specs):
        requests = self._build(specs, pool)
        # Each run gets a freshly-ingested backend: determinism means
        # *equivalent initial conditions* produce identical outcomes. A
        # shared backend is not equivalent between runs — its clock has
        # advanced and its caches are warm, both of which legitimately
        # shift service times and can flip admission/batching decisions.
        def run_once():
            system = MithriLogSystem()
            system.ingest(corpus)
            return QueryService(system, tenants, max_backlog=6).run(requests)

        first = run_once()
        second = run_once()
        assert first.conserved() and second.conserved()
        assert signature(first) == signature(second)
        for stats in first.tenants.values():
            assert (
                stats.accepted + stats.rejected + stats.shed + stats.timed_out
                == stats.submitted
            )
        total = sum(s.submitted for s in first.tenants.values())
        assert total == len(requests)

    def test_worker_count_invariance(self, backend, tenants, pool):
        requests = open_loop_requests(
            pool, tenants, offered_qps=600, duration_s=0.05, seed=6,
            deadline_s=0.05,
        )
        runs = [
            QueryService(backend, tenants, max_backlog=8).run(
                requests, workers=workers
            )
            for workers in (1, 2)
        ]
        assert signature(runs[0]) == signature(runs[1])


class TestSweepHelpers:
    def test_capacity_and_sweep_records(self, corpus, tenants, pool):
        def factory():
            system = MithriLogSystem()
            system.ingest(corpus)
            return QueryService(system, tenants, max_backlog=16)

        capacity = estimate_capacity(factory, pool, tenants, probe_requests=12)
        assert capacity > 0
        points = run_sweep(
            factory, pool, tenants, capacity_qps=capacity,
            load_multiples=(0.5, 2.0), duration_s=0.03,
        )
        assert [p.load_multiple for p in points] == [0.5, 2.0]
        for point in points:
            record = point.record()
            assert record["bench"] == "service"
            assert record["config"].startswith("load-x")
            assert record["submitted"] > 0
