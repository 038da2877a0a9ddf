"""QoS scheduling: weighted-fair drain packed into shared accelerator passes.

Two goals pull against each other in a multi-tenant front end:

- **fairness** — a heavy tenant must not starve light ones, and paid
  weights must mean something;
- **batching** — the accelerator is fastest when a pass carries many
  queries (Section 4's concurrent-query mode: one decompress+tokenize
  stream feeds up to eight compiled queries), so serving one request per
  pass throws away most of the hardware.

The scheduler does both: requests are *chosen* by start-time weighted
fair queueing (each tenant accrues virtual work ``1/weight`` per served
request; the tenant with the least virtual work goes next), and the
chosen requests are *packed* into one accelerator pass with the same
compile-probe the single-tenant :class:`repro.system.scheduler
.QueryScheduler` uses — a query joins the pass only if the combined
program still compiles within the flag-pair and cuckoo-placement
budgets. Batching therefore survives the multi-tenant boundary: a pass
routinely carries queries from several tenants at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.hashfilter import fits
from repro.core.query import Query
from repro.errors import QueryError
from repro.service.admission import AdmissionController, QueuedRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.hints import TemplateHintProvider


@dataclass
class Batch:
    """One planned accelerator pass: the requests riding it together."""

    members: list[QueuedRequest] = field(default_factory=list)

    @property
    def queries(self) -> list[Query]:
        return [m.request.query for m in self.members]

    @property
    def tenants(self) -> list[str]:
        return [m.request.tenant for m in self.members]

    @property
    def approx(self) -> bool:
        """Is this a sampled pass? (All riders agree — see quarantine.)"""
        return bool(self.members) and self.members[0].approx

    @property
    def sample_fraction(self) -> Optional[float]:
        """The sampled pass's page fraction (None for exact passes)."""
        if not self.approx:
            return None
        return self.members[0].request.sample_fraction

    def __len__(self) -> int:
        return len(self.members)


class QoSScheduler:
    """Drains admission queues fairly into compile-probe-packed batches."""

    def __init__(
        self,
        cuckoo_params,
        seed: int = 0,
        max_batch: int = 8,
        hints: Optional["TemplateHintProvider"] = None,
    ) -> None:
        if max_batch <= 0:
            raise QueryError("max_batch must be positive")
        self.cuckoo_params = cuckoo_params
        self.seed = seed
        self.max_batch = max_batch
        #: template hints: when set, slow-template and fast-template
        #: queries never share a pass (the pass is paced by its most
        #: expensive rider, so one broad template taxes every rider)
        self.hints = hints
        #: virtual work per tenant; min-heap semantics via explicit argmin
        self.virtual_work: dict[str, float] = {}

    def _next_tenant(
        self, admission: AdmissionController, skip: set
    ) -> str | None:
        """The non-empty tenant with the least weighted virtual work."""
        best: str | None = None
        best_key: tuple[float, str] | None = None
        for name, state in admission.tenants.items():
            if name in skip or not state.queue:
                continue
            key = (self.virtual_work.get(name, 0.0), name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def next_batch(self, admission: AdmissionController) -> Batch:
        """Plan the next accelerator pass from the queued work.

        Repeatedly picks the fairest tenant and tries to add its head
        request to the pass. A head that no longer fits parks that
        tenant for this pass (its turn is not lost — virtual work only
        accrues for served requests). A request that cannot compile even
        alone still ships as a batch of one: the engine falls back to
        software evaluation for it, exactly as the single-tenant
        scheduler does.
        """
        batch = Batch()
        skip: set = set()
        while len(batch) < self.max_batch:
            tenant = self._next_tenant(admission, skip)
            if tenant is None:
                break
            head = admission.head(tenant)
            assert head is not None  # _next_tenant only returns non-empty
            if len(batch) > 0 and head.sample_key != batch.members[0].sample_key:
                # mode quarantine: sampled and exact scans read different
                # page sets, and sampled riders must share one fraction —
                # a mixed pass would be unexecutable as a single scan
                skip.add(tenant)
                continue
            if (
                len(batch) > 0
                and self.hints is not None
                and self.hints.is_slow(head.request.query)
                != self.hints.is_slow(batch.members[0].request.query)
            ):
                # quarantine: a slow template would pace the whole pass
                skip.add(tenant)
                continue
            candidate = batch.queries + [head.request.query]
            if len(batch) > 0 and not fits(
                candidate, self.cuckoo_params, self.seed
            ):
                skip.add(tenant)
                continue
            admission.take(tenant)
            batch.members.append(head)
            state = admission.tenants[tenant]
            self.virtual_work[tenant] = self.virtual_work.get(tenant, 0.0) + (
                1.0 / state.config.weight
            )
        return batch

    def reset(self) -> None:
        """Forget accrued virtual work (a fresh fairness epoch)."""
        self.virtual_work.clear()
