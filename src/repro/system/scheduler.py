"""Concurrent-query scheduling.

Section 4's flexibility claim: the query format "can be used to either
encode one complex query, or to evaluate multiple queries in parallel by
joining them with unions" — concurrent execution at no performance loss.
The operational consequence is a scheduler: given a queue of queries,
pack as many as fit the hardware provisioning (flag pairs, cuckoo load
factor) into each accelerator pass, so a batch of N simple queries costs
~N/8 scans instead of N.

Packing is greedy with a compile-probe: a query joins the current group
if the combined program still compiles (covers both the flag-pair budget
and cuckoo placement limits). Queries that cannot compile even alone run
in software fallback groups of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.hashfilter import pack
from repro.core.query import Query
from repro.system.mithrilog import MithriLogSystem, QueryOutcome


@dataclass
class ScheduledRun:
    """Outcome of running a query queue through the scheduler.

    ``queue_times_s``/``service_times_s`` attribute each query's share of
    the makespan: queue time is the elapsed makespan before the query's
    group started (all queries are treated as arriving together at run
    start), service time is its group's pass duration. The sum is that
    query's end-to-end latency — what a service front end reports.
    """

    groups: list[tuple[int, ...]]  # indices of queries per accelerator pass
    outcomes: list[QueryOutcome]  # one per group
    per_query_counts: list[int]  # aligned with the input queue
    makespan_s: float
    queue_times_s: list[float] = field(default_factory=list)  # per query
    service_times_s: list[float] = field(default_factory=list)  # per query

    @property
    def passes(self) -> int:
        return len(self.groups)

    @property
    def per_query_latency_s(self) -> list[float]:
        """Queue plus service time, aligned with the input queue."""
        return [
            q + s for q, s in zip(self.queue_times_s, self.service_times_s)
        ]


class QueryScheduler:
    """Packs a query queue into hardware-sized concurrent groups."""

    def __init__(self, system: MithriLogSystem) -> None:
        self.system = system

    def pack(self, queries: Sequence[Query]) -> list[tuple[int, ...]]:
        """Greedy first-fit grouping under the compile probe."""
        engine = self.system.engine
        return pack(queries, engine.cuckoo_params, engine.seed)

    def run(self, queries: Sequence[Query], use_index: bool = True) -> ScheduledRun:
        """Execute the whole queue; makespan is the sum of pass times."""
        if not queries:
            raise ValueError("nothing to schedule")
        groups = self.pack(queries)
        outcomes: list[QueryOutcome] = []
        counts = [0] * len(queries)
        queue_times = [0.0] * len(queries)
        service_times = [0.0] * len(queries)
        makespan = 0.0
        for group in groups:
            outcome = self.system.query(
                *[queries[i] for i in group], use_index=use_index
            )
            outcomes.append(outcome)
            elapsed = outcome.stats.elapsed_s
            for position, query_index in enumerate(group):
                counts[query_index] = outcome.per_query_counts[position]
                queue_times[query_index] = makespan
                service_times[query_index] = elapsed
            makespan += elapsed
        return ScheduledRun(
            groups=groups,
            outcomes=outcomes,
            per_query_counts=counts,
            makespan_s=makespan,
            queue_times_s=queue_times,
            service_times_s=service_times,
        )

    def serial_makespan(self, queries: Sequence[Query], use_index: bool = True) -> float:
        """Reference cost of running each query as its own pass."""
        return sum(
            self.system.query(query, use_index=use_index).stats.elapsed_s
            for query in queries
        )
