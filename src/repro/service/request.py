"""The service vocabulary: requests, outcomes, responses, tenant configs.

The front door of the multi-tenant service speaks in :class:`Request`
objects — *who* is asking (``tenant``), *what* they want (a compiled
:class:`repro.core.query.Query` or its textual form), *how urgent* it is
(``priority``), and *how long the answer stays useful* (``deadline_s``).
Every submitted request receives exactly one :class:`Response` whose
:class:`Outcome` is explicit: the service never blocks a caller forever
and never drops work silently. That one-response-per-request contract is
what the conservation property test pins:
``ok + rejected + shed + timed_out + approximated == submitted`` for
every tenant.

Requests may opt into the *approximate* admission class by setting
``sample_fraction``: under overload, instead of shedding such a request
outright the service degrades it to a sampled scan over a seeded
fraction of candidate pages and answers with an estimate plus a
confidence interval (outcome ``APPROXIMATED``) — a cheap answer instead
of no answer. See ``docs/STREAMING.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.query import Query, parse_query
from repro.errors import QueryError


class Outcome(enum.Enum):
    """The five ways a request leaves the service — always exactly one.

    - ``OK`` — executed; the response carries matches and latency.
    - ``REJECTED`` — refused before queuing (queue full, rate limit,
      quota exhausted, unknown tenant, or an injected compile reject).
    - ``SHED`` — admitted but dropped under overload: a lowest-priority
      victim evicted so higher-priority work keeps its latency bound.
    - ``TIMED_OUT`` — its deadline passed while it waited; cancelled
      before wasting an accelerator pass on a stale answer.
    - ``APPROXIMATED`` — answered with a sampled-scan estimate instead
      of an exact count: the request opted in via ``sample_fraction``
      and overload degraded it rather than shedding it.
    """

    OK = "ok"
    REJECTED = "rejected"
    SHED = "shed"
    TIMED_OUT = "timed_out"
    APPROXIMATED = "approximated"


@dataclass(frozen=True)
class Request:
    """One tenant query submitted to the service.

    ``arrival_s`` is the *simulated* arrival time, relative to the start
    of the service run (the run rebases onto the system clock, so a
    store whose clock already advanced during ingest still sees queue
    times measured from each request's own arrival). ``deadline_s`` is
    relative to arrival: the answer is useless ``deadline_s`` seconds
    after the request arrived.
    """

    tenant: str
    query: Query
    priority: int = 0  #: higher is more important; sheds last
    deadline_s: Optional[float] = None  #: seconds after arrival; None = patient
    arrival_s: float = 0.0  #: simulated arrival offset within the run
    #: opt-in to the approximate admission class: when overload would
    #: shed this request, degrade it to a sampled scan over this seeded
    #: fraction of candidate pages instead (None = exact answers only)
    sample_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise QueryError("request needs a tenant name")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise QueryError("deadline_s must be positive when given")
        if self.arrival_s < 0:
            raise QueryError("arrival_s cannot be negative")
        if self.sample_fraction is not None and not (
            0.0 < self.sample_fraction < 1.0
        ):
            raise QueryError("sample_fraction must be in (0, 1) when given")


def coerce_query(query: Union[Query, str, bytes]) -> Query:
    """Validate/compile the query form a caller handed the front door."""
    if isinstance(query, Query):
        return query
    if isinstance(query, bytes):
        query = query.decode()
    if isinstance(query, str):
        return parse_query(query)
    raise QueryError(f"cannot interpret {type(query).__name__} as a query")


@dataclass(frozen=True)
class Response:
    """The service's one-and-only answer to a request."""

    request: Request
    outcome: Outcome
    reason: str = ""  #: machine-readable cause (``queue_full``, ``rate_limit``...)
    queue_time_s: float = 0.0  #: arrival -> service start (simulated)
    service_time_s: float = 0.0  #: the accelerator pass the request rode
    completed_at_s: float = 0.0  #: absolute simulated completion time
    matches: int = 0  #: lines the query matched (OK outcomes only)
    batch_size: int = 0  #: queries sharing the accelerator pass
    degraded: bool = False  #: cluster answered with at least one shard down
    #: bottleneck stage of the accelerator pass this request rode
    #: (``flash``/``decompress``/``filter``/``host``; "" when no pass
    #: ran) — what the query journal's per-stage slicing keys on
    bottleneck: str = ""
    #: APPROXIMATED only: the sampled-scan estimate the answer carries
    #: (``matches`` then holds the *raw* sampled match count). A
    #: :class:`repro.stream.sampling.SampleEstimate`.
    estimate: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.outcome is Outcome.OK

    @property
    def answered(self) -> bool:
        """The caller got an answer: exact (OK) or estimated."""
        return self.outcome in (Outcome.OK, Outcome.APPROXIMATED)

    @property
    def latency_s(self) -> float:
        """End-to-end simulated latency: queueing plus the shared pass."""
        return self.queue_time_s + self.service_time_s


@dataclass(frozen=True)
class TenantConfig:
    """Admission-control knobs for one tenant.

    ``weight`` drives the QoS scheduler's weighted-fair drain;
    ``queue_limit`` bounds the admission queue (the bounded-buffer half
    of backpressure); ``rate_per_s``/``burst`` parameterise the token
    bucket (the rate half); ``quota_queries`` is an absolute budget for
    the whole run (accounting, e.g. a free tier).
    """

    name: str
    weight: float = 1.0
    queue_limit: int = 64
    rate_per_s: float = float("inf")  #: token refill rate; inf = unlimited
    burst: Optional[float] = None  #: bucket capacity; None = max(rate, 1)
    quota_queries: Optional[int] = None  #: absolute per-run budget

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("tenant needs a name")
        if self.weight <= 0:
            raise QueryError(f"tenant {self.name}: weight must be positive")
        if self.queue_limit <= 0:
            raise QueryError(f"tenant {self.name}: queue_limit must be positive")
        if self.rate_per_s <= 0:
            raise QueryError(f"tenant {self.name}: rate_per_s must be positive")
        if self.burst is not None and self.burst <= 0:
            raise QueryError(f"tenant {self.name}: burst must be positive")
        if self.quota_queries is not None and self.quota_queries < 0:
            raise QueryError(f"tenant {self.name}: quota cannot be negative")

    @property
    def bucket_capacity(self) -> float:
        if self.burst is not None:
            return self.burst
        if self.rate_per_s == float("inf"):
            return float("inf")
        return max(self.rate_per_s, 1.0)


@dataclass
class TenantStats:
    """Per-tenant outcome accounting; one row of the service report."""

    submitted: int = 0
    completed: int = 0  #: OK responses
    rejected: int = 0
    shed: int = 0
    timed_out: int = 0
    approximated: int = 0  #: answered with a sampled-scan estimate

    def note_submitted(self) -> None:
        """Counted at intake, *before* any outcome — so :meth:`conserved`
        genuinely cross-checks intake against the five outcome tallies
        instead of trivially restating them."""
        self.submitted += 1

    def record(self, response: Response) -> None:
        if response.outcome is Outcome.OK:
            self.completed += 1
        elif response.outcome is Outcome.REJECTED:
            self.rejected += 1
        elif response.outcome is Outcome.SHED:
            self.shed += 1
        elif response.outcome is Outcome.TIMED_OUT:
            self.timed_out += 1
        elif response.outcome is Outcome.APPROXIMATED:
            self.approximated += 1

    @property
    def accepted(self) -> int:
        """Alias the conservation property reads: OK completions."""
        return self.completed

    @property
    def answered(self) -> int:
        """Responses that carried an answer: exact or estimated."""
        return self.completed + self.approximated

    def conserved(self) -> bool:
        """Every submitted request got exactly one outcome."""
        return (
            self.completed
            + self.rejected
            + self.shed
            + self.timed_out
            + self.approximated
            == self.submitted
        )
