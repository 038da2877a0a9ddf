"""Workload generation: skewed tenant mixes, open- and closed-loop load.

Real query workloads against shared log platforms are *skewed* (a few
tenants issue most queries) and *bursty* (arrivals cluster). This module
builds such traffic deterministically from a seed:

- :func:`make_tenants` — N tenants with Zipf-skewed traffic shares and
  matching QoS weights;
- :func:`query_pool` — template queries extracted from a corpus via
  FT-tree + :func:`repro.templates.querygen.build_workload`, so the
  service replays the same machine-generated query families the paper's
  evaluation uses;
- :func:`open_loop_requests` — Poisson arrivals at a fixed offered rate,
  split across tenants by their shares (open loop: the generator does
  not care whether the service keeps up — exactly the regime where
  admission control earns its keep);
- :class:`ClosedLoopSource` — a fixed population of per-tenant clients,
  each submitting, waiting for its response, thinking, submitting again
  (closed loop: offered load self-limits to the service's capacity).

Helpers at the bottom (:func:`estimate_capacity`, :func:`run_sweep`)
drive a :class:`~repro.service.service.QueryService` across offered-load
multiples and emit the latency/goodput records ``bench_service.py`` and
``repro loadgen`` both consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol, Sequence

from repro.core.query import Query
from repro.errors import QueryError
from repro.service.request import Request, Response, TenantConfig
from repro.templates.fttree import FTTree, FTTreeParams
from repro.templates.querygen import build_workload


class WorkloadSource(Protocol):
    """Closed-loop feedback: the service calls back on every completion."""

    def initial_requests(self) -> Iterable[Request]:
        """Requests in flight when the run starts."""
        ...  # pragma: no cover - protocol

    def on_complete(self, response: Response, now_s: float) -> Iterable[Request]:
        """React to a completion; return follow-up requests (offsets)."""
        ...  # pragma: no cover - protocol


def zipf_shares(n: int, skew: float = 1.2) -> list[float]:
    """Traffic shares ``1/rank^skew``, normalised to sum to one."""
    if n <= 0:
        raise QueryError("need at least one tenant")
    raw = [1.0 / (rank**skew) for rank in range(1, n + 1)]
    total = sum(raw)
    return [r / total for r in raw]


def make_tenants(
    n: int,
    skew: float = 1.2,
    queue_limit: int = 64,
    rate_per_s: float = float("inf"),
    quota_queries: Optional[int] = None,
) -> list[TenantConfig]:
    """N tenants, Zipf-skewed: heavier tenants get larger QoS weights.

    Weights track shares so the fair scheduler honours the paid tiers;
    the admission knobs (queue bound, rate, quota) apply uniformly — the
    per-tenant constructor is there when a test wants asymmetry.
    """
    shares = zipf_shares(n, skew)
    return [
        TenantConfig(
            name=f"tenant{i}",
            weight=share * n,  # mean weight 1.0, skewed like traffic
            queue_limit=queue_limit,
            rate_per_s=rate_per_s,
            quota_queries=quota_queries,
        )
        for i, share in enumerate(shares)
    ]


def query_pool(
    lines: Sequence[bytes],
    max_queries: int = 32,
    seed: int = 2021,
    num_pairs: int = 8,
) -> list[Query]:
    """Template queries over a corpus, via FT-tree extraction.

    The pool mixes single-template queries with a few OR-pairs — the
    Section 7.1 construction — so packed batches exercise both small and
    wider programs.
    """
    if not lines:
        raise QueryError("query_pool needs a corpus")
    tree = FTTree.from_lines(
        list(lines),
        FTTreeParams(max_depth=10, prune_threshold=32, max_doc_frequency=0.9),
    )
    workload = build_workload(
        tree, num_pairs=num_pairs, num_eights=0, seed=seed
    )
    pool = list(workload.singles[: max(1, max_queries - num_pairs)])
    pool.extend(workload.pairs)
    return pool[:max_queries]


def _pick_tenant(rng: random.Random, tenants: Sequence[TenantConfig],
                 shares: Sequence[float]) -> str:
    roll = rng.random()
    acc = 0.0
    for config, share in zip(tenants, shares):
        acc += share
        if roll <= acc:
            return config.name
    return tenants[-1].name


def open_loop_requests(
    pool: Sequence[Query],
    tenants: Sequence[TenantConfig],
    offered_qps: float,
    duration_s: float,
    seed: int = 0,
    skew: float = 1.2,
    deadline_s: Optional[float] = None,
    priorities: Sequence[int] = (0, 0, 1, 2),
    sample_fraction: Optional[float] = None,
) -> list[Request]:
    """Poisson arrivals at ``offered_qps`` for ``duration_s`` seconds.

    Tenant choice is Zipf-share weighted (same ``skew`` convention as
    :func:`make_tenants`); priorities are drawn uniformly from
    ``priorities`` (the default skews low — most traffic is sheddable).
    ``sample_fraction`` opts every request into the approximate
    admission class: under overload the service degrades them to a
    sampled scan at that page fraction instead of shedding them.
    Deterministic in ``seed``.
    """
    if offered_qps <= 0:
        raise QueryError("offered_qps must be positive")
    if duration_s <= 0:
        raise QueryError("duration_s must be positive")
    if not pool:
        raise QueryError("open_loop_requests needs a query pool")
    rng = random.Random(seed)
    shares = zipf_shares(len(tenants), skew)
    requests: list[Request] = []
    t = 0.0
    while True:
        t += rng.expovariate(offered_qps)
        if t >= duration_s:
            break
        requests.append(
            Request(
                tenant=_pick_tenant(rng, tenants, shares),
                query=rng.choice(list(pool)),
                priority=rng.choice(list(priorities)),
                deadline_s=deadline_s,
                arrival_s=t,
                sample_fraction=sample_fraction,
            )
        )
    return requests


class ClosedLoopSource:
    """A fixed client population: submit → wait → think → submit again.

    Each tenant runs ``clients`` concurrent clients. A client issues its
    next request ``think_time_s`` after its previous response lands (any
    outcome — a rejected client retries after thinking, like a human
    hitting refresh). The source stops issuing once ``max_requests``
    total have been submitted, so runs terminate.
    """

    def __init__(
        self,
        pool: Sequence[Query],
        tenants: Sequence[TenantConfig],
        clients: int = 2,
        think_time_s: float = 0.005,
        max_requests: int = 200,
        seed: int = 0,
        deadline_s: Optional[float] = None,
        sample_fraction: Optional[float] = None,
    ) -> None:
        if clients <= 0:
            raise QueryError("clients must be positive")
        if think_time_s < 0:
            raise QueryError("think_time_s cannot be negative")
        if max_requests <= 0:
            raise QueryError("max_requests must be positive")
        self.pool = list(pool)
        self.tenants = list(tenants)
        self.clients = clients
        self.think_time_s = think_time_s
        self.max_requests = max_requests
        self.deadline_s = deadline_s
        self.sample_fraction = sample_fraction
        self._rng = random.Random(seed)
        self.issued = 0

    def _make(self, tenant: str, arrival_s: float) -> Request:
        self.issued += 1
        return Request(
            tenant=tenant,
            query=self._rng.choice(self.pool),
            priority=self._rng.choice((0, 1, 2)),
            deadline_s=self.deadline_s,
            arrival_s=arrival_s,
            sample_fraction=self.sample_fraction,
        )

    def initial_requests(self) -> list[Request]:
        requests = []
        for config in self.tenants:
            for client in range(self.clients):
                if self.issued >= self.max_requests:
                    return requests
                # stagger starts so the first batch is not one burst
                requests.append(
                    self._make(config.name, client * self.think_time_s)
                )
        return requests

    def on_complete(self, response: Response, now_s: float) -> list[Request]:
        if self.issued >= self.max_requests:
            return []
        return [
            self._make(
                response.request.tenant, now_s + self.think_time_s
            )
        ]


# ---------------------------------------------------------------------------
# Load sweeps (shared by bench_service.py and `repro loadgen`)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One offered-load level's service-quality numbers."""

    load_multiple: float
    offered_qps: float
    goodput_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    shed_rate: float
    passes: int
    submitted: int
    approximated: int = 0  #: responses answered as sampled estimates

    def record(self) -> dict:
        """A trajectory-file record (``repro watch-perf`` compatible)."""
        return {
            "bench": "service",
            "config": f"load-x{self.load_multiple:g}",
            "offered_qps": round(self.offered_qps, 2),
            "goodput_qps": round(self.goodput_qps, 2),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "shed_rate": round(self.shed_rate, 4),
            "passes": self.passes,
            "submitted": self.submitted,
            "approximated": self.approximated,
        }


def estimate_capacity(
    service_factory: Callable[[], "object"],
    pool: Sequence[Query],
    tenants: Sequence[TenantConfig],
    probe_requests: int = 24,
    seed: int = 0,
) -> float:
    """Measured saturation throughput (queries/simulated-second).

    Runs a short closed-loop burst (zero think time) against a fresh
    service and reads the goodput: with full queues and batching this is
    what the accelerator actually sustains — the anchor the sweep's
    offered-load multiples scale from.
    """
    service = service_factory()
    source = ClosedLoopSource(
        pool,
        tenants,
        clients=4,
        think_time_s=0.0,
        max_requests=probe_requests,
        seed=seed,
    )
    report = service.run(source=source)
    if report.goodput_qps <= 0:
        raise QueryError("capacity probe served nothing")
    return report.goodput_qps


def run_sweep(
    service_factory: Callable[[], "object"],
    pool: Sequence[Query],
    tenants: Sequence[TenantConfig],
    capacity_qps: float,
    load_multiples: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    duration_s: float = 0.5,
    deadline_s: Optional[float] = None,
    seed: int = 0,
    workers: int = 1,
    journal: Optional[object] = None,
    monitor: Optional[object] = None,
    sample_fraction: Optional[float] = None,
) -> list[SweepPoint]:
    """Offered-load sweep: one fresh service per level, open-loop traffic.

    Each level offers ``multiple x capacity_qps`` for ``duration_s``
    simulated seconds and records the latency percentiles of completed
    work, the goodput, and the loss (shed+rejected+timed-out) rate —
    the curve the acceptance gate reads: p99 stays bounded past
    saturation *because* shedding engages.

    Pass a :class:`repro.obs.journal.QueryJournal` as ``journal`` to
    capture every request across the sweep; each load level opens its
    own journal window (``load-x<multiple>``) so the levels can be
    mined and diffed independently afterwards. Pass an
    :class:`repro.obs.slo.SLOMonitor` as ``monitor`` (with a
    ``journal``, whose records it reads) to evaluate SLO burn rates live
    across every level of the sweep.

    ``sample_fraction`` opts the generated traffic into the approximate
    admission class (see :func:`open_loop_requests`); past saturation
    the service then answers with sampled estimates instead of
    shedding, which the per-point ``approximated`` tally records.
    """
    points: list[SweepPoint] = []
    time_base = 0.0
    for multiple in load_multiples:
        offered = capacity_qps * multiple
        requests = open_loop_requests(
            pool,
            tenants,
            offered_qps=offered,
            duration_s=duration_s,
            seed=seed,
            deadline_s=deadline_s,
            sample_fraction=sample_fraction,
        )
        service = service_factory()
        if journal is not None:
            journal.begin_window(f"load-x{multiple:g}")
            service.journal = journal
        if monitor is not None:
            service.monitor = monitor
            # each level gets a fresh service (and clock); rebase onto
            # the previous level's end so the monitor's simulated
            # timeline stays monotone across the whole sweep
            if time_base > service.clock.now:
                service.clock.advance_to(time_base)
        report = service.run(requests, workers=workers)
        if monitor is not None:
            time_base = service.clock.now
        points.append(
            SweepPoint(
                load_multiple=multiple,
                offered_qps=offered,
                goodput_qps=report.goodput_qps,
                p50_ms=report.latency_percentile_s(50) * 1e3,
                p95_ms=report.latency_percentile_s(95) * 1e3,
                p99_ms=report.latency_percentile_s(99) * 1e3,
                shed_rate=report.shed_rate,
                passes=report.passes,
                submitted=report.submitted,
                approximated=report.approximated,
            )
        )
    return points
