"""The multi-tenant query service: front door, event loop, reporting.

:class:`QueryService` turns a :class:`repro.system.MithriLogSystem` (or
a :class:`repro.system.cluster.MithriLogCluster`) into a simulated
shared log-analytics service. Callers describe *traffic* — a list of
:class:`~repro.service.request.Request` objects, or a closed-loop
:class:`~repro.service.workload.WorkloadSource` — and the service runs
an event loop on the **simulated clock**:

1. advance to the next arrival when idle;
2. pass arrivals through :class:`~repro.service.admission
   .AdmissionController` (quota → rate limit → queue bound → shedding);
3. cancel queued requests whose deadlines expired while earlier passes
   ran;
4. ask :class:`~repro.service.qos.QoSScheduler` for the next weighted-
   fair, compile-probe-packed batch and run it as **one** accelerator
   pass via ``system.query(*queries)``.

Every step is driven by simulated time and seeded choices, so a run is
deterministic for a fixed input and invariant to ``workers`` (the scan
executor's stats are worker-count-invariant by construction). Every
submitted request receives exactly one response.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.errors import QueryError, StorageError
from repro.obs.journal import nearest_rank
from repro.obs.tracing import SpanTracer
from repro.service.admission import AdmissionController
from repro.service.request import (
    Outcome,
    Request,
    Response,
    TenantConfig,
    TenantStats,
    coerce_query,
)
from repro.service.qos import Batch, QoSScheduler
from repro.sim import SimClock
from repro.system.cluster import MithriLogCluster
from repro.system.mithrilog import MithriLogSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injectors import ServiceFaultInjector
    from repro.obs.journal import QueryJournal
    from repro.obs.slo import SLOMonitor
    from repro.service.hints import TemplateHintProvider
    from repro.service.workload import WorkloadSource


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return nearest_rank(sorted(values), q)


@dataclass
class ServiceReport:
    """What one service run did, with the numbers a dashboard wants."""

    responses: list[Response]
    tenants: dict[str, TenantStats]
    duration_s: float  #: simulated time the run spanned
    passes: int  #: accelerator passes executed
    queries_served: int  #: answered responses (OK + approximated)

    @property
    def submitted(self) -> int:
        return len(self.responses)

    @property
    def ok_latencies_s(self) -> list[float]:
        return [r.latency_s for r in self.responses if r.answered]

    def latency_percentile_s(self, q: float) -> float:
        return percentile(self.ok_latencies_s, q)

    @property
    def approximated(self) -> int:
        """Responses answered with a sampled-scan estimate."""
        return sum(1 for r in self.responses if r.outcome is Outcome.APPROXIMATED)

    @property
    def goodput_qps(self) -> float:
        """Answered completions (exact or estimated) per simulated second."""
        if self.duration_s <= 0:
            return 0.0
        return self.queries_served / self.duration_s

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted work refused, shed, or timed out.

        Approximated responses are *answers* (degraded, not lost), so
        they do not count toward this rate.
        """
        if not self.responses:
            return 0.0
        lost = sum(1 for r in self.responses if not r.answered)
        return lost / len(self.responses)

    def outcome_counts(self) -> dict[str, int]:
        counts = {outcome.value: 0 for outcome in Outcome}
        for response in self.responses:
            counts[response.outcome.value] += 1
        return counts

    def conserved(self) -> bool:
        """Intake equals the five outcome tallies, for every tenant."""
        return all(stats.conserved() for stats in self.tenants.values())


class QueryService:
    """A simulated multi-tenant front door over one MithriLog backend."""

    def __init__(
        self,
        backend: Union[MithriLogSystem, MithriLogCluster],
        tenants: Sequence[TenantConfig],
        max_batch: int = 8,
        max_backlog: Optional[int] = None,
        use_index: bool = True,
        fault_injector: Optional["ServiceFaultInjector"] = None,
        tracer: Optional[SpanTracer] = None,
        journal: Optional["QueryJournal"] = None,
        hints: Optional["TemplateHintProvider"] = None,
        monitor: Optional["SLOMonitor"] = None,
        approx_on_overload: Optional[bool] = None,
    ) -> None:
        self.backend = backend
        self.is_cluster = isinstance(backend, MithriLogCluster)
        reference = backend.shards[0] if self.is_cluster else backend
        #: Cluster backends keep their own per-shard clocks; the service
        #: then owns the timeline. A single system shares its clock so
        #: service spans line up with ingest/query spans on one trace.
        self.clock: SimClock = (
            SimClock() if self.is_cluster else reference.clock
        )
        #: Sampled (approximate) passes need the backend's sampled scan
        #: path; cluster backends fan out per shard and do not offer it,
        #: so overload there falls back to shedding as before.
        if approx_on_overload is None:
            approx_on_overload = not self.is_cluster
        if approx_on_overload and self.is_cluster:
            raise QueryError(
                "approx_on_overload requires a single-system backend"
            )
        self.admission = AdmissionController(
            list(tenants), max_backlog=max_backlog, hints=hints,
            approx_on_overload=approx_on_overload,
        )
        self.scheduler = QoSScheduler(
            reference.params.cuckoo,
            seed=reference.engine.seed,
            max_batch=max_batch,
            hints=hints,
        )
        #: the seed sampled passes key page selection on — the engine
        #: seed, so selection is fixed per deployment, not per pass
        self._sample_seed = reference.engine.seed
        self.use_index = use_index
        self.fault_injector = fault_injector
        self.tracer = tracer
        #: append-only query journal; every settled response lands here
        self.journal = journal
        self.hints = hints
        #: live SLO monitor; it observes the journal record of every
        #: settled response (burn-rate alerting, flight recorder)
        self.monitor = monitor
        self._check_monitor_journal()
        self.passes = 0

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(
        self,
        requests: Sequence[Request] = (),
        source: Optional["WorkloadSource"] = None,
        workers: int = 1,
    ) -> ServiceReport:
        """Serve a whole workload; returns when every request resolved.

        ``requests`` is an open-loop arrival list (``arrival_s`` offsets
        from the start of this run); ``source`` optionally feeds more
        arrivals in reaction to completions (closed-loop load). Both may
        be combined. ``workers`` fans each pass's host-side scan over a
        process pool — outcomes and simulated times are identical at any
        worker count.
        """
        if workers < 1:
            raise QueryError("workers must be at least 1")
        self._check_monitor_journal()
        t0 = self.clock.now
        stats: dict[str, TenantStats] = {
            name: TenantStats() for name in self.admission.tenants
        }
        responses: list[Response] = []
        arrivals: list[tuple[float, int, Request]] = []
        seq = 0

        def push(request: Request) -> None:
            nonlocal seq
            request = self._validated(request)
            seq += 1
            heappush(arrivals, (t0 + request.arrival_s, seq, request))

        def settle(response: Response) -> None:
            responses.append(response)
            tenant = response.request.tenant
            if tenant in stats:
                stats[tenant].record(response)
            if self.journal is not None:
                record = self.journal.observe(response)
                if self.monitor is not None:
                    self.monitor.observe_record(record)
            if source is not None:
                for follow_up in source.on_complete(response, self.clock.now - t0):
                    push(follow_up)

        for request in requests:
            push(request)
        if source is not None:
            for request in source.initial_requests():
                push(request)

        while arrivals or self.admission.total_backlog:
            if not self.admission.total_backlog:
                self.clock.advance_to(arrivals[0][0])
            # admit everything that has arrived by now
            while arrivals and arrivals[0][0] <= self.clock.now:
                arrival_abs, _, request = heappop(arrivals)
                if request.tenant in stats:
                    stats[request.tenant].note_submitted()
                else:  # unknown tenant: still owed exactly one response
                    stats.setdefault(request.tenant, TenantStats())
                    stats[request.tenant].note_submitted()
                if self.journal is not None:
                    self.journal.note_submitted(request.tenant)
                refusal, shed = self._admit(request, arrival_abs)
                for victim in shed:
                    settle(victim)
                if refusal is not None:
                    settle(refusal)
            if not self.admission.total_backlog:
                continue
            for expired in self.admission.expire_deadlines(self.clock.now):
                settle(expired)
            batch = self.scheduler.next_batch(self.admission)
            if len(batch) == 0:
                continue
            for response in self._execute(batch, workers):
                settle(response)

        if self.monitor is not None:
            # force a final evaluation so alerts straddling the last
            # settled event still advance (e.g. firing -> resolved)
            self.monitor.evaluate(self.clock.now)
        return ServiceReport(
            responses=responses,
            tenants=stats,
            duration_s=self.clock.now - t0,
            passes=self.passes,
            queries_served=sum(s.answered for s in stats.values()),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_monitor_journal(self) -> None:
        """The monitor reads journal records, so it needs a journal."""
        if self.monitor is not None and self.journal is None:
            raise QueryError(
                "monitor= needs journal=: the SLO monitor observes the "
                "journal record of each settled request"
            )

    def _validated(self, request: Request) -> Request:
        """Front-door validation: compile the query form once, here."""
        query = coerce_query(request.query)
        if query is request.query:
            return request
        return Request(
            tenant=request.tenant,
            query=query,
            priority=request.priority,
            deadline_s=request.deadline_s,
            arrival_s=request.arrival_s,
            sample_fraction=request.sample_fraction,
        )

    def _admit(
        self, request: Request, arrival_abs: float
    ) -> tuple[Optional[Response], list[Response]]:
        if self.fault_injector is not None and self.fault_injector.on_admit(
            request.tenant
        ):
            return (
                Response(
                    request=request,
                    outcome=Outcome.REJECTED,
                    reason="compile_fault",
                    completed_at_s=self.clock.now,
                ),
                [],
            )
        return self.admission.offer(request, self.clock.now, arrival_abs)

    def _execute(self, batch: Batch, workers: int) -> list[Response]:
        """Run one packed batch as a single accelerator pass."""
        start = self.clock.now
        queries = batch.queries
        degraded = False
        bottleneck = ""
        estimates = None
        try:
            if self.is_cluster:
                outcome = self.backend.query(
                    *queries, use_index=self.use_index, workers=workers
                )
                counts = outcome.per_query_counts
                elapsed = outcome.elapsed_s
                degraded = outcome.degraded
                # the pass is paced by its slowest shard; that shard's
                # bottleneck stage is the pass's bottleneck
                if outcome.per_shard:
                    slowest = max(
                        outcome.per_shard, key=lambda o: o.stats.elapsed_s
                    )
                    bottleneck = slowest.stats.bottleneck
                self.clock.advance(elapsed)
            else:
                # ``sample_fraction`` is None for an exact batch; a
                # degraded batch is one sampled pass over a seeded
                # fraction of the candidate pages, answers as estimates
                result = self.backend.query(
                    *queries, use_index=self.use_index, workers=workers,
                    sample_fraction=batch.sample_fraction,
                    sample_seed=self._sample_seed,
                )
                counts = result.per_query_counts
                elapsed = result.stats.elapsed_s  # clock already advanced
                bottleneck = result.stats.bottleneck
                estimates = result.estimates
        except StorageError as exc:
            # a single system has no healthy-shard fallback: the pass
            # failed outright — its riders are shed with the cause, the
            # availability-loss outcome, never a silent retry-forever
            return [
                Response(
                    request=member.request,
                    outcome=Outcome.SHED,
                    reason=f"storage:{type(exc).__name__}",
                    queue_time_s=start - member.arrival_s,
                    completed_at_s=self.clock.now,
                    batch_size=len(batch),
                )
                for member in batch.members
            ]
        if self.fault_injector is not None:
            multiplier = self.fault_injector.on_pass(len(batch))
            if multiplier > 1.0:
                extra = elapsed * (multiplier - 1.0)
                self.clock.advance(extra)
                elapsed += extra
        self.passes += 1
        if self.tracer is not None:
            self.tracer.record(
                "service_pass",
                start,
                elapsed,
                category="service",
                track="service",
                queries=len(batch),
                tenants=",".join(sorted(set(batch.tenants))),
            )
        return [
            Response(
                request=member.request,
                outcome=Outcome.APPROXIMATED if batch.approx else Outcome.OK,
                queue_time_s=start - member.arrival_s,
                service_time_s=elapsed,
                completed_at_s=self.clock.now,
                matches=counts[i],
                batch_size=len(batch),
                degraded=degraded,
                bottleneck=bottleneck,
                estimate=estimates[i] if estimates is not None else None,
            )
            for i, member in enumerate(batch.members)
        ]
