"""Admission control: bounded queues, token buckets, quotas, shedding.

Query workloads against shared log platforms are skewed and bursty (see
*Query Log Compression for Workload Analytics* in PAPERS.md): one noisy
tenant can monopolise an accelerator that a dozen quiet ones rely on.
The admission layer is the first line of defence, and it is deliberately
*explicit*: every refused request gets a :class:`~repro.service.request
.Response` with a machine-readable reason instead of an unbounded queue
or a hung caller.

Order of checks at the door (cheapest veto first):

1. **quota** — the tenant's absolute per-run budget is spent;
2. **rate limit** — the tenant's token bucket is empty (buckets refill
   on the simulated clock, so runs are deterministic);
3. **queue bound** — the tenant's admission queue is full;
4. **backlog shedding** — the *global* backlog has hit the overload
   line: the lowest-priority request in the building (the newcomer or a
   queued victim) is shed so higher-priority latency stays bounded.

Requests that opted into the approximate admission class (a
``sample_fraction``) get one reprieve on the shedding path: instead of
being dropped they are *degraded* — marked to run as a sampled scan
that costs a fraction of an accelerator pass and answers with an
estimate (outcome ``APPROXIMATED``). A degraded request that comes up
for shedding a second time is genuinely shed, so the backlog bound
still bites.

All state lives on plain objects keyed by simulated time passed in from
the service loop — nothing here reads a wall clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import QueryError
from repro.service.request import Outcome, Request, Response, TenantConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.hints import TemplateHintProvider


class TokenBucket:
    """A deterministic token bucket on simulated time."""

    def __init__(self, rate_per_s: float, capacity: float) -> None:
        self.rate_per_s = rate_per_s
        self.capacity = capacity
        self.tokens = capacity
        self._last_refill_s = 0.0

    def refill(self, now: float) -> None:
        if now <= self._last_refill_s:
            return
        if self.rate_per_s == float("inf"):
            self.tokens = self.capacity
        else:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill_s) * self.rate_per_s,
            )
        self._last_refill_s = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Refill to ``now`` and spend ``amount`` tokens if available."""
        self.refill(now)
        if self.capacity == float("inf"):
            return True
        if self.tokens + 1e-12 >= amount:  # tolerate float refill drift
            self.tokens -= amount
            return True
        return False


@dataclass
class QueuedRequest:
    """A request waiting in its tenant's admission queue."""

    request: Request
    arrival_s: float  #: rebased absolute simulated arrival
    seq: int  #: global admission order, the deterministic tie-break
    #: overload degraded this request to the approximate class: it will
    #: ride a sampled pass and settle as APPROXIMATED, not OK
    approx: bool = False

    @property
    def deadline_at_s(self) -> Optional[float]:
        if self.request.deadline_s is None:
            return None
        return self.arrival_s + self.request.deadline_s

    @property
    def sample_key(self) -> tuple[bool, Optional[float]]:
        """Pass-compatibility key: sampled and exact work never share an
        accelerator pass, and sampled riders must agree on the fraction."""
        return (self.approx, self.request.sample_fraction if self.approx else None)


@dataclass
class TenantState:
    """One tenant's live admission state."""

    config: TenantConfig
    bucket: TokenBucket
    queue: deque = field(default_factory=deque)  #: of QueuedRequest
    quota_used: int = 0

    @property
    def backlog(self) -> int:
        return len(self.queue)


class AdmissionController:
    """The service's front gate: admit, refuse, or shed — never block.

    ``max_backlog`` bounds the *total* queued work across tenants; when
    an arrival would push past it, the lowest-priority request in the
    system is shed (the newcomer itself when nothing queued is lower).
    Ties shed the youngest, so long-waiting work is not starved by
    equally-unimportant new arrivals.
    """

    def __init__(
        self,
        tenants: list[TenantConfig],
        max_backlog: Optional[int] = None,
        hints: Optional["TemplateHintProvider"] = None,
        approx_on_overload: bool = True,
    ) -> None:
        if not tenants:
            raise QueryError("admission control needs at least one tenant")
        if max_backlog is not None and max_backlog <= 0:
            raise QueryError("max_backlog must be positive when given")
        #: template-aware priority hints, consulted only on the overload
        #: (shedding) path — normal admission never reads them
        self.hints = hints
        #: honour the approximate admission class on the shedding path
        #: (the service turns this off when its backend cannot sample)
        self.approx_on_overload = approx_on_overload
        #: sheds converted into sampled answers (metrics/report feed)
        self.degraded_to_sample = 0
        self.tenants: dict[str, TenantState] = {}
        for config in tenants:
            if config.name in self.tenants:
                raise QueryError(f"duplicate tenant {config.name!r}")
            self.tenants[config.name] = TenantState(
                config=config,
                bucket=TokenBucket(config.rate_per_s, config.bucket_capacity),
            )
        self.max_backlog = max_backlog
        self._seq = 0

    # -- queries over the queues ----------------------------------------

    @property
    def total_backlog(self) -> int:
        return sum(t.backlog for t in self.tenants.values())

    def pending(self) -> list[QueuedRequest]:
        """Every queued request, in admission order."""
        items = [q for t in self.tenants.values() for q in t.queue]
        items.sort(key=lambda q: q.seq)
        return items

    # -- the gate ---------------------------------------------------------

    def offer(
        self, request: Request, now: float, arrival_s: float
    ) -> tuple[Optional[Response], list[Response]]:
        """Present one request at the gate.

        Returns ``(refusal, shed)``: ``refusal`` is the newcomer's
        terminal response when it was refused or shed at the door
        (``None`` means it is now queued), and ``shed`` lists responses
        for any *queued* victims evicted to make room. Exactly one
        terminal response per request, eventually — the service loop
        relies on it.
        """
        state = self.tenants.get(request.tenant)
        if state is None:
            return (
                self._refuse(request, now, arrival_s, "unknown_tenant"),
                [],
            )
        config = state.config
        if (
            config.quota_queries is not None
            and state.quota_used >= config.quota_queries
        ):
            return self._refuse(request, now, arrival_s, "quota"), []
        if not state.bucket.try_take(now):
            return self._refuse(request, now, arrival_s, "rate_limit"), []
        # the bucket token is spent even if a later check refuses: the
        # tenant *used* its rate allowance by knocking
        if state.backlog >= config.queue_limit:
            return self._refuse(request, now, arrival_s, "queue_full"), []
        state.quota_used += 1
        shed: list[Response] = []
        if (
            self.max_backlog is not None
            and self.total_backlog >= self.max_backlog
        ):
            victim = self._lowest_priority_queued()
            if victim is None or self._priority(
                victim.request
            ) >= self._priority(request):
                # the newcomer is the lowest-priority request in the
                # building: degrade it if it opted in, else shed it
                if self._can_degrade(request):
                    self.degraded_to_sample += 1
                    self._seq += 1
                    state.queue.append(
                        QueuedRequest(
                            request=request,
                            arrival_s=arrival_s,
                            seq=self._seq,
                            approx=True,
                        )
                    )
                    return None, []
                self._note_hinted_shed(request)
                return (
                    Response(
                        request=request,
                        outcome=Outcome.SHED,
                        reason="overload",
                        completed_at_s=now,
                    ),
                    [],
                )
            if self._can_degrade(victim.request) and not victim.approx:
                # one reprieve: the victim stays queued but will ride a
                # sampled pass; picked again, it is genuinely shed
                victim.approx = True
                self.degraded_to_sample += 1
            else:
                self._evict(victim)
                self._note_hinted_shed(victim.request)
                shed.append(
                    Response(
                        request=victim.request,
                        outcome=Outcome.SHED,
                        reason="overload",
                        queue_time_s=now - victim.arrival_s,
                        completed_at_s=now,
                    )
                )
        self._seq += 1
        state.queue.append(
            QueuedRequest(request=request, arrival_s=arrival_s, seq=self._seq)
        )
        return None, shed

    def expire_deadlines(self, now: float) -> list[Response]:
        """Cancel every queued request whose deadline has passed."""
        expired: list[Response] = []
        for state in self.tenants.values():
            keep = deque()
            for queued in state.queue:
                deadline = queued.deadline_at_s
                if deadline is not None and deadline < now:
                    expired.append(
                        Response(
                            request=queued.request,
                            outcome=Outcome.TIMED_OUT,
                            reason="deadline",
                            queue_time_s=now - queued.arrival_s,
                            completed_at_s=now,
                        )
                    )
                else:
                    keep.append(queued)
            state.queue = keep
        expired.sort(key=lambda r: r.request.arrival_s)
        return expired

    def take(self, tenant: str) -> QueuedRequest:
        """Pop the head of one tenant's queue (scheduler's accessor)."""
        return self.tenants[tenant].queue.popleft()

    def head(self, tenant: str) -> Optional[QueuedRequest]:
        state = self.tenants[tenant]
        return state.queue[0] if state.queue else None

    # -- internals --------------------------------------------------------

    def _refuse(
        self, request: Request, now: float, arrival_s: float, reason: str
    ) -> Response:
        del arrival_s  # refusals are instantaneous; no queue time accrues
        return Response(
            request=request,
            outcome=Outcome.REJECTED,
            reason=reason,
            completed_at_s=now,
        )

    def _can_degrade(self, request: Request) -> bool:
        """May this request leave with an estimate instead of a shed?"""
        return self.approx_on_overload and request.sample_fraction is not None

    def _priority(self, request: Request) -> int:
        """The priority the overload path compares: hinted when active."""
        if self.hints is None:
            return request.priority
        return self.hints.effective_priority(request)

    def _note_hinted_shed(self, request: Request) -> None:
        """Count a shed that the hint demotion (not the declared
        priority alone) steered toward a slow template."""
        if self.hints is not None and self.hints.is_slow(request.query):
            self.hints.note_demotion()

    def _lowest_priority_queued(self) -> Optional[QueuedRequest]:
        """The shedding victim: lowest (hinted) priority, then youngest."""
        victim: Optional[QueuedRequest] = None
        victim_key: Optional[tuple[int, int]] = None
        for state in self.tenants.values():
            for queued in state.queue:
                key = (self._priority(queued.request), -queued.seq)
                if victim_key is None or key < victim_key:
                    victim, victim_key = queued, key
        return victim

    def _evict(self, victim: QueuedRequest) -> None:
        state = self.tenants[victim.request.tenant]
        state.queue = deque(q for q in state.queue if q.seq != victim.seq)
